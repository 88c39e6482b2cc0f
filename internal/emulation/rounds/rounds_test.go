package rounds

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/types"
)

// testEnv builds an n-server cluster with one max-register per server.
func testEnv(t *testing.T, n int, gate fabric.Gate) (*fabric.Fabric, []types.ObjectID) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, n)
	for s := 0; s < n; s++ {
		obj, err := c.PlaceMaxRegister(types.ServerID(s))
		if err != nil {
			t.Fatal(err)
		}
		objs[s] = obj
	}
	var opts []fabric.Option
	if gate != nil {
		opts = append(opts, fabric.WithGate(gate))
	}
	return fabric.New(c, opts...), objs
}

func readTargets(objs []types.ObjectID) []Target {
	ts := make([]Target, len(objs))
	for i, obj := range objs {
		ts[i] = Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpReadMax}}
	}
	return ts
}

func writeTargets(objs []types.ObjectID, v types.TSValue) []Target {
	ts := make([]Target, len(objs))
	for i, obj := range objs {
		ts[i] = Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v}}
	}
	return ts
}

func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

func TestScatterAwaitMax(t *testing.T) {
	fab, objs := testEnv(t, 3, nil)
	v := types.TSValue{TS: 7, Writer: 1, Val: 42}
	if _, err := Scatter(fab, 1, writeTargets(objs, v)).AwaitMax(context.Background(), 3); err != nil {
		t.Fatalf("write round: %v", err)
	}
	got, err := Scatter(fab, 2, readTargets(objs)).AwaitMax(context.Background(), 2)
	if err != nil {
		t.Fatalf("read round: %v", err)
	}
	if got != v {
		t.Fatalf("AwaitMax = %v, want %v", got, v)
	}
}

func TestAwaitMaxAdaptsToCrash(t *testing.T) {
	fab, objs := testEnv(t, 3, nil)
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	// n-f = 2 responses still arrive from the two live servers.
	if _, err := Scatter(fab, 1, readTargets(objs)).AwaitMax(context.Background(), 2); err != nil {
		t.Fatalf("quorum round with crash: %v", err)
	}
	// All 3 can never respond: the gather must fail via ctx, not hang.
	if _, err := Scatter(fab, 1, readTargets(objs)).AwaitMax(shortCtx(t), 3); err == nil {
		t.Fatal("full round over a crashed server succeeded")
	}
}

func TestAwaitMaxHeldResponses(t *testing.T) {
	gate := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
		if ev.Server == 2 {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	fab, objs := testEnv(t, 3, gate)
	if _, err := Scatter(fab, 1, readTargets(objs)).AwaitMax(context.Background(), 2); err != nil {
		t.Fatalf("quorum with one held response: %v", err)
	}
	if _, err := Scatter(fab, 1, readTargets(objs)).AwaitMax(shortCtx(t), 3); err == nil {
		t.Fatal("await of a held response succeeded")
	}
}

func TestGatherFailsFastOnStoreError(t *testing.T) {
	ch := make(chan Report, 2)
	ch <- Report{Err: context.DeadlineExceeded}
	if _, err := Gather(context.Background(), ch, 2); err == nil {
		t.Fatal("Gather swallowed a store error")
	}
}

// TestAwaitServers exercises the Algorithm 2 scan condition: a server
// counts only when every one of its operations responded.
func TestAwaitServers(t *testing.T) {
	c, err := cluster.New(2)
	if err != nil {
		t.Fatal(err)
	}
	// Two registers per server.
	var objs []types.ObjectID
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			obj, err := c.PlaceRegister(types.ServerID(s))
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
		}
	}
	// Hold the response of one register of server 1: server 1 never
	// completes a scan, server 0 does.
	heldObj := objs[3]
	gate := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
		if ev.Object == heldObj {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	fab := fabric.New(c, fabric.WithGate(gate))

	targets := make([]Target, len(objs))
	for i, obj := range objs {
		targets[i] = Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}
	}
	if _, err := Scatter(fab, 1, targets).AwaitServers(context.Background(), 1); err != nil {
		t.Fatalf("one full scan: %v", err)
	}
	if _, err := Scatter(fab, 1, targets).AwaitServers(shortCtx(t), 0); err == nil {
		t.Fatal("two full scans succeeded with a held register response")
	}
}

// TestAwaitServersOverDeliveryIsAProtocolError forges the duplicate-report
// scenario the countdown must survive: a server that produces more reports
// than the round scattered to it. Before the guard, the countdown passed
// through zero (0 -> -1 -> ...) and a server whose count re-reached zero
// was counted as a second complete scan; now any report beyond a server's
// scattered quota fails the gather with ErrOverDelivery.
func TestAwaitServersOverDeliveryIsAProtocolError(t *testing.T) {
	ch := make(chan Report, 4)
	// Server 0 scattered one op but reports twice; server 1 never reports.
	ch <- Report{Server: 0, Val: types.TSValue{TS: 1}}
	ch <- Report{Server: 0, Val: types.TSValue{TS: 2}}
	remaining := map[types.ServerID]int{0: 1, 1: 1}
	_, err := awaitServers(context.Background(), ch, remaining, 2)
	if !errors.Is(err, ErrOverDelivery) {
		t.Fatalf("err = %v, want ErrOverDelivery", err)
	}

	// A report from a server the round never scattered to is equally
	// over-delivered (zero quota).
	ch = make(chan Report, 4)
	ch <- Report{Server: 7, Val: types.TSValue{TS: 1}}
	_, err = awaitServers(context.Background(), ch, map[types.ServerID]int{0: 1}, 1)
	if !errors.Is(err, ErrOverDelivery) {
		t.Fatalf("unknown-server err = %v, want ErrOverDelivery", err)
	}
}

// TestAwaitServersExactDeliveryStillCompletes pins the guard against
// false positives: a server delivering exactly its quota completes.
func TestAwaitServersExactDeliveryStillCompletes(t *testing.T) {
	ch := make(chan Report, 4)
	ch <- Report{Server: 0, Val: types.TSValue{TS: 1}}
	ch <- Report{Server: 0, Val: types.TSValue{TS: 3}}
	ch <- Report{Server: 1, Val: types.TSValue{TS: 2}}
	max, err := awaitServers(context.Background(), ch, map[types.ServerID]int{0: 2, 1: 1}, 2)
	if err != nil {
		t.Fatalf("awaitServers: %v", err)
	}
	if max.TS != 3 {
		t.Fatalf("max = %v, want ts 3", max)
	}
}

// TestDeliverNeverBlocks pins the guaranteed-capacity discipline: a send
// within capacity succeeds, a send beyond it panics loudly instead of
// blocking the (would-be fabric) goroutine forever.
func TestDeliverNeverBlocks(t *testing.T) {
	ch := make(chan Report, 1)
	Deliver(ch, Report{Index: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity Deliver did not panic")
		}
	}()
	Deliver(ch, Report{Index: 2})
}

// TestAbandonedRoundReleaseCannotBlock is the cancellation-leak regression
// test: a gather abandoned by ctx cancellation leaves held ops behind;
// when the environment later releases every one of them, the late
// completions land in the abandoned round's buffer on the releasing
// goroutine. The capacity invariant (one slot per scattered call) means
// none of those sends can block — the release loop below would deadlock
// (and -race/timeout would catch it) if they could.
func TestAbandonedRoundReleaseCannotBlock(t *testing.T) {
	gate := fabric.GateFuncs{Respond: func(fabric.TriggerEvent, baseobj.Response) fabric.Decision {
		return fabric.Hold // hold every response
	}}
	fab, objs := testEnv(t, 3, gate)
	for round := 0; round < 4; round++ {
		r := Scatter(fab, 1, readTargets(objs))
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // abandon the gather before any response arrives
		if _, err := r.AwaitMax(ctx, len(objs)); err == nil {
			t.Fatal("cancelled gather succeeded")
		}
		// Release everything: each completion sends into the abandoned
		// round's channel, inline on this goroutine.
		if released := fab.ReleaseWhere(func(fabric.PendingOp) bool { return true }); released != len(objs) {
			t.Fatalf("round %d: released %d, want %d", round, released, len(objs))
		}
		for i, call := range r.Calls() {
			if _, ok := call.Outcome(); !ok {
				t.Fatalf("round %d: call %d did not complete after release", round, i)
			}
		}
	}
}

func TestScatterFold(t *testing.T) {
	fab, objs := testEnv(t, 3, nil)
	v := types.TSValue{TS: 3, Writer: 0, Val: 9}
	if _, err := Scatter(fab, 0, writeTargets(objs, v)).AwaitMax(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	fired := 0
	var got types.TSValue
	ScatterFold(fab, 1, readTargets(objs), len(objs), func(max types.TSValue, err error) {
		if err != nil {
			t.Fatalf("fold: %v", err)
		}
		fired++
		got = max
	})
	if fired != 1 || got != v {
		t.Fatalf("fold fired=%d max=%v, want 1 fire of %v", fired, got, v)
	}

	// Degenerate need reports an error instead of never firing.
	errFired := false
	ScatterFold(fab, 1, readTargets(objs), len(objs)+1, func(_ types.TSValue, err error) {
		if err == nil {
			t.Fatal("fold with need > targets reported no error")
		}
		errFired = true
	})
	if !errFired {
		t.Fatal("degenerate fold never reported")
	}
}

func TestScatterFoldReportsProtocolError(t *testing.T) {
	c, err := cluster.New(1)
	if err != nil {
		t.Fatal(err)
	}
	// A single-writer register: client 5 is not authorized.
	obj, err := c.PlaceRegister(0, baseobj.WithWriters([]types.ClientID{0}))
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	fired := false
	ScatterFold(fab, 5, []Target{{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1, Writer: 5}}}}, 1,
		func(_ types.TSValue, err error) {
			if err == nil {
				t.Fatal("unauthorized write folded without error")
			}
			fired = true
		})
	if !fired {
		t.Fatal("fold never reported")
	}
}

// multiEnv builds an n-server cluster with regs max-registers per server,
// returning read targets in server-major order (a scan).
func multiEnv(t *testing.T, n, regs int, gate fabric.Gate) (*fabric.Fabric, []Target, [][]types.ObjectID) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	var scan []Target
	byServer := make([][]types.ObjectID, n)
	for s := 0; s < n; s++ {
		for r := 0; r < regs; r++ {
			obj, err := c.PlaceMaxRegister(types.ServerID(s))
			if err != nil {
				t.Fatal(err)
			}
			byServer[s] = append(byServer[s], obj)
			scan = append(scan, Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpReadMax}})
		}
	}
	var opts []fabric.Option
	if gate != nil {
		opts = append(opts, fabric.WithGate(gate))
	}
	return fabric.New(c, opts...), scan, byServer
}

func TestScatterFoldServersCompletes(t *testing.T) {
	fab, scan, byServer := multiEnv(t, 3, 2, nil)
	v := types.TSValue{TS: 3, Writer: 0, Val: 9}
	if _, err := Scatter(fab, 0, writeTargets([]types.ObjectID{byServer[1][1]}, v)).AwaitMax(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	got := make(chan types.TSValue, 1)
	ScatterFoldServers(fab, 1, scan, 0, func(max types.TSValue, err error) {
		if err != nil {
			t.Errorf("scan fold: %v", err)
		}
		got <- max
	})
	select {
	case max := <-got:
		if max != v {
			t.Fatalf("scan fold max = %v, want %v", max, v)
		}
	default:
		t.Fatal("scan fold did not fire synchronously on the in-process lane")
	}
}

// TestScatterFoldServersPartialScanDoesNotCount holds one register response
// per gated server: its scan stays partial and must not count toward the
// quorum until released.
func TestScatterFoldServersPartialScanDoesNotCount(t *testing.T) {
	var heldObj types.ObjectID = -1
	gate := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
		if ev.Object == heldObj {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	fab, scan, byServer := multiEnv(t, 3, 2, gate)
	heldObj = byServer[0][0]
	fired := make(chan types.TSValue, 1)
	ScatterFoldServers(fab, 1, scan, 0, func(max types.TSValue, err error) {
		if err != nil {
			t.Errorf("scan fold: %v", err)
		}
		fired <- max
	})
	select {
	case <-fired:
		t.Fatal("scan fold fired with server 0's scan still partial")
	default:
	}
	fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
	select {
	case <-fired:
	default:
		t.Fatal("scan fold did not fire after releasing the held response")
	}
}

// TestServerFoldOverDelivery feeds the accumulator a duplicate report for an
// exhausted server: the same protocol violation AwaitServers rejects.
func TestServerFoldOverDelivery(t *testing.T) {
	errs := make(chan error, 1)
	j := &serverFold{
		remaining: map[types.ServerID]int{0: 1, 1: 1},
		need:      2,
		report:    func(_ types.TSValue, err error) { errs <- err },
	}
	j.complete(0, types.ZeroTSValue, nil)
	j.complete(0, types.ZeroTSValue, nil)
	select {
	case err := <-errs:
		if !errors.Is(err, ErrOverDelivery) {
			t.Fatalf("duplicate report error = %v, want ErrOverDelivery", err)
		}
	default:
		t.Fatal("duplicate report for an exhausted server did not fire the fold")
	}
}

// TestFoldLateCompletionsAbsorbed fires a fold, then keeps completing: the
// report must fire exactly once.
func TestFoldLateCompletionsAbsorbed(t *testing.T) {
	fired := 0
	j := NewFold(1, func(types.TSValue, error) { fired++ })
	j.Complete(types.TSValue{TS: 1}, nil)
	j.Complete(types.TSValue{TS: 2}, nil)
	j.Complete(types.ZeroTSValue, errors.New("late error"))
	if fired != 1 {
		t.Fatalf("fold fired %d times, want 1", fired)
	}
}
