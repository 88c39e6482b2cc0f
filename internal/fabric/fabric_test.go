package fabric

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// testEnv builds a 3-server cluster with one register per server and a
// fabric over it.
func testEnv(t *testing.T, gate Gate) (*Fabric, []types.ObjectID) {
	t.Helper()
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, 3)
	for s := 0; s < 3; s++ {
		obj, err := c.PlaceRegister(types.ServerID(s), baseobj.WriterRange{})
		if err != nil {
			t.Fatal(err)
		}
		objs[s] = obj
	}
	var opts []Option
	if gate != nil {
		opts = append(opts, WithGate(gate))
	}
	return New(c, opts...), objs
}

func writeInv(ts uint64, v types.Value) baseobj.Invocation {
	return baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: ts, Val: v}}
}

func readInv() baseobj.Invocation {
	return baseobj.Invocation{Op: baseobj.OpRead}
}

func mustOutcome(t *testing.T, call *Call) Outcome {
	t.Helper()
	o, ok := call.Outcome()
	if !ok {
		t.Fatalf("call %d has no outcome", call.Token())
	}
	return o
}

func TestPassThrough(t *testing.T) {
	fab, objs := testEnv(t, nil)
	w := fab.Trigger(0, objs[0], writeInv(1, 10))
	o := mustOutcome(t, w)
	if o.Err != nil {
		t.Fatalf("write: %v", o.Err)
	}
	r := fab.Trigger(1, objs[0], readInv())
	o = mustOutcome(t, r)
	if o.Err != nil || o.Resp.Val.Val != 10 {
		t.Fatalf("read = %+v, want val 10", o)
	}
	if fab.Triggers() != 2 {
		t.Errorf("Triggers = %d, want 2", fab.Triggers())
	}
	if used := fab.UsedObjects(); len(used) != 1 || used[0] != objs[0] {
		t.Errorf("UsedObjects = %v, want [%d]", used, objs[0])
	}
}

func TestHoldApplyDefersEffect(t *testing.T) {
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Inv.Op == baseobj.OpWrite && ev.Inv.Arg.Val == 10 {
			return Hold
		}
		return Pass
	}}
	fab, objs := testEnv(t, gate)

	held := fab.Trigger(0, objs[0], writeInv(1, 10))
	if _, ok := held.Outcome(); ok {
		t.Fatal("held write completed")
	}
	// The held write has NOT taken effect.
	read1 := mustOutcome(t, fab.Trigger(1, objs[0], readInv()))
	if read1.Resp.Val.Val != 0 {
		t.Fatalf("read saw held write: %v", read1.Resp.Val)
	}
	// A newer write lands.
	if o := mustOutcome(t, fab.Trigger(1, objs[0], writeInv(2, 20))); o.Err != nil {
		t.Fatal(o.Err)
	}
	// Releasing the held write applies it NOW, erasing the newer value:
	// the covering-write semantics of the lower bound.
	if err := fab.Release(held.Token()); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if o := mustOutcome(t, held); o.Err != nil {
		t.Fatalf("released write outcome: %v", o.Err)
	}
	read2 := mustOutcome(t, fab.Trigger(1, objs[0], readInv()))
	if read2.Resp.Val.Val != 10 {
		t.Fatalf("after release read = %v, want the stale 10", read2.Resp.Val)
	}
}

func TestHoldRespondAppliesButDelays(t *testing.T) {
	gate := GateFuncs{Respond: func(ev TriggerEvent, _ baseobj.Response) Decision {
		if ev.Inv.Op == baseobj.OpWrite {
			return Hold
		}
		return Pass
	}}
	fab, objs := testEnv(t, gate)
	held := fab.Trigger(0, objs[0], writeInv(1, 10))
	if _, ok := held.Outcome(); ok {
		t.Fatal("held-respond write completed")
	}
	// The op HAS taken effect, its client just doesn't know.
	read := mustOutcome(t, fab.Trigger(1, objs[0], readInv()))
	if read.Resp.Val.Val != 10 {
		t.Fatalf("read = %v, want 10 (respond-held write must be applied)", read.Resp.Val)
	}
	if err := fab.Release(held.Token()); err != nil {
		t.Fatal(err)
	}
	if o := mustOutcome(t, held); o.Err != nil {
		t.Fatal(o.Err)
	}
}

func TestPendingAndCoveredAccounting(t *testing.T) {
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Inv.Op.IsWrite() {
			return Hold
		}
		return Pass
	}}
	fab, objs := testEnv(t, gate)
	fab.Trigger(0, objs[0], writeInv(1, 10))
	fab.Trigger(0, objs[1], writeInv(1, 10))
	fab.Trigger(0, objs[2], readInv()) // reads pass

	pending := fab.Pending()
	if len(pending) != 2 {
		t.Fatalf("Pending = %d ops, want 2", len(pending))
	}
	for _, p := range pending {
		if p.Phase != PhaseApply {
			t.Errorf("pending phase = %v, want PhaseApply", p.Phase)
		}
	}
	covered := fab.CoveredObjects()
	if len(covered) != 2 || covered[0] != objs[0] || covered[1] != objs[1] {
		t.Fatalf("CoveredObjects = %v, want [%d %d]", covered, objs[0], objs[1])
	}
}

func TestReleaseErrors(t *testing.T) {
	fab, _ := testEnv(t, nil)
	if err := fab.Release(999); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("Release(999) err = %v, want ErrNotHeld", err)
	}
}

func TestReleaseWhere(t *testing.T) {
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Inv.Op.IsWrite() {
			return Hold
		}
		return Pass
	}}
	fab, objs := testEnv(t, gate)
	c0 := fab.Trigger(0, objs[0], writeInv(1, 10))
	c1 := fab.Trigger(1, objs[1], writeInv(1, 11))
	released := fab.ReleaseWhere(func(op PendingOp) bool { return op.Event.Client == 0 })
	if released != 1 {
		t.Fatalf("released %d, want 1", released)
	}
	if _, ok := c0.Outcome(); !ok {
		t.Error("client 0 op not released")
	}
	if _, ok := c1.Outcome(); ok {
		t.Error("client 1 op released unexpectedly")
	}
}

func TestCrashDropsHeldAndFutureOps(t *testing.T) {
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Inv.Op.IsWrite() && ev.Server == 0 {
			return Hold
		}
		return Pass
	}}
	fab, objs := testEnv(t, gate)
	held := fab.Trigger(0, objs[0], writeInv(1, 10))
	if err := fab.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// The held op is dropped: releasing it is now impossible and it stays
	// pending forever.
	if err := fab.Release(held.Token()); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("release after crash err = %v, want ErrNotHeld", err)
	}
	if _, ok := held.Outcome(); ok {
		t.Error("op on crashed server completed")
	}
	// New ops on the crashed server never complete either.
	late := fab.Trigger(1, objs[0], readInv())
	if _, ok := late.Outcome(); ok {
		t.Error("trigger on crashed server completed")
	}
	// Both remain visible as pending (the write also covers).
	var droppedWrites int
	for _, p := range fab.Pending() {
		if p.Phase == PhaseDropped && p.Event.Inv.Op.IsWrite() {
			droppedWrites++
		}
	}
	if droppedWrites != 1 {
		t.Errorf("dropped writes = %d, want 1", droppedWrites)
	}
	// Other servers still work.
	if o := mustOutcome(t, fab.Trigger(1, objs[1], readInv())); o.Err != nil {
		t.Errorf("live server read: %v", o.Err)
	}
}

func TestTriggerUnknownObject(t *testing.T) {
	fab, _ := testEnv(t, nil)
	call := fab.Trigger(0, 999, readInv())
	o, ok := call.Outcome()
	if !ok || o.Err == nil {
		t.Fatalf("unknown object outcome = %+v ok=%v, want error", o, ok)
	}
}

// TestTriggerFnFiresInlineOnInProcLane: the in-process lane applies
// synchronously, so the callback has run by the time TriggerFn returns.
func TestTriggerFnFiresInlineOnInProcLane(t *testing.T) {
	fab, objs := testEnv(t, nil)
	var got []Outcome
	call := fab.TriggerFn(0, objs[0], writeInv(1, 10), func(o Outcome) { got = append(got, o) })
	if len(got) != 1 || got[0].Err != nil {
		t.Fatalf("callback outcomes at return = %+v, want exactly one success", got)
	}
	if o, ok := call.Outcome(); !ok || o.Err != nil || o.Resp.Val != got[0].Resp.Val {
		t.Fatalf("Outcome = %+v ok=%v, want the callback's %+v", o, ok, got[0])
	}
}

// TestTriggerFnFiresExactlyOnce: a held op's callback stays silent while the
// op is parked, fires once on release, and nothing that happens to the
// completed op afterwards — a second release, a crash of its server — fires
// it again.
func TestTriggerFnFiresExactlyOnce(t *testing.T) {
	gate := GateFuncs{Respond: func(ev TriggerEvent, _ baseobj.Response) Decision {
		if ev.Inv.Op.IsWrite() {
			return Hold
		}
		return Pass
	}}
	fab, objs := testEnv(t, gate)
	fired := 0
	held := fab.TriggerFn(0, objs[0], writeInv(1, 10), func(Outcome) { fired++ })
	if fired != 0 {
		t.Fatalf("callback fired %d times while the op is held", fired)
	}
	if err := fab.Release(held.Token()); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("callback fired %d times after release, want 1", fired)
	}
	if err := fab.Release(held.Token()); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("second release err = %v, want ErrNotHeld", err)
	}
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("callback fired %d times in total, want 1", fired)
	}
}

// TestTriggerFnFiresFromLaneGoroutine: on the latency lane TriggerFn returns
// before the delivery delay elapsed, and the callback then runs on the
// lane's goroutine — the triggering goroutine does nothing but wait.
func TestTriggerFnFiresFromLaneGoroutine(t *testing.T) {
	slow := LatencyProfile{Base: 20 * time.Millisecond}
	fab, objs := laneEnv(t, LatencyLanes(1, slow), nil)
	var fired atomic.Int32
	done := make(chan Outcome, 1)
	fab.TriggerFn(0, objs[0], writeInv(1, 10), func(o Outcome) {
		fired.Add(1)
		done <- o
	})
	if n := fired.Load(); n != 0 {
		t.Fatalf("callback fired %d times before TriggerFn returned, %v ahead of its delivery", n, slow.Base)
	}
	select {
	case o := <-done:
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("callback never fired")
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("callback fired %d times, want 1", n)
	}
}

func TestReleasedOpOnCrashedServerIsDropped(t *testing.T) {
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Inv.Op.IsWrite() {
			return Hold
		}
		return Pass
	}}
	fab, objs := testEnv(t, gate)
	held := fab.Trigger(0, objs[0], writeInv(1, 10))
	// Crash the server through the cluster directly, bypassing the
	// fabric's own bookkeeping, then release: the fabric must notice.
	if err := fab.Cluster().Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := fab.Release(held.Token()); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, ok := held.Outcome(); ok {
		t.Error("released op on crashed server completed")
	}
}

func TestYieldGatePasses(t *testing.T) {
	g := &YieldGate{Yields: 1}
	fab, objs := testEnv(t, g)
	if o := mustOutcome(t, fab.Trigger(0, objs[0], writeInv(1, 10))); o.Err != nil {
		t.Fatalf("write through yield gate: %v", o.Err)
	}
	if g.Ops() != 1 {
		t.Errorf("Ops = %d, want 1", g.Ops())
	}
}

func TestPhaseStrings(t *testing.T) {
	for _, p := range []Phase{PhaseApply, PhaseRespond, PhaseDropped, Phase(99)} {
		if p.String() == "" {
			t.Errorf("Phase(%d).String() empty", int(p))
		}
	}
}
