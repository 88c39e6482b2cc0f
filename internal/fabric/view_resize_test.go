package fabric

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// maxEnv builds an n-server fabric with one max-register per server
// (max-registers transfer and re-seed under every transition).
func maxEnv(t *testing.T, n int, opts ...Option) (*Fabric, []types.ObjectID) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, n)
	for s := 0; s < n; s++ {
		if objs[s], err = c.PlaceMaxRegister(types.ServerID(s)); err != nil {
			t.Fatal(err)
		}
	}
	fab := New(c, opts...)
	t.Cleanup(func() { fab.Close() })
	return fab, objs
}

// latencyEnv is maxEnv on the latency lane.
func latencyEnv(t *testing.T, n int, laneSeed int64) (*Fabric, []types.ObjectID) {
	t.Helper()
	return maxEnv(t, n, WithLanes(LatencyLanes(laneSeed, LatencyProfile{Jitter: 50 * time.Microsecond})))
}

func writeMaxInv(ts uint64, v types.Value) baseobj.Invocation {
	return baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: types.TSValue{TS: ts, Val: v}}
}

func readMaxInv() baseobj.Invocation {
	return baseobj.Invocation{Op: baseobj.OpReadMax}
}

// startRetryWriters launches writers hammering objs through retryView.
// Each failure lands on errs; close stop and call wait to finish.
func startRetryWriters(ctx context.Context, t *testing.T, fab *Fabric, objs []types.ObjectID, writers int) (chan struct{}, chan error, func()) {
	t.Helper()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := uint64(1); ; ts++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := objs[int(ts)%len(objs)]
				inv := baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: types.TSValue{TS: ts, Writer: types.ClientID(w), Val: types.Value(ts)}}
				if _, err := retryView(ctx, fab, func() (types.TSValue, error) {
					o := waitOutcome(t, fab, types.ClientID(w), obj, inv)
					return o.Resp.Val, o.Err
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	return stop, errs, wg.Wait
}

// TestResizeGrowAndShrink walks one fabric through each transition the
// membership delta selects, with a counting reshape: a one-for-one swap
// moves the leaver's objects onto its joiner without calling the reshape
// while the other members keep serving; a two-joiner grow calls it once
// with every old member frozen; a shrink with a nil reshape commits when
// its leavers are empty and, when one still hosts an object, aborts with
// cluster.ErrServerNotEmpty onto the intact old view. Values survive every
// step, no leave costs a crash, and Moved/Duration report honestly.
func TestResizeGrowAndShrink(t *testing.T) {
	fab, objs := testEnv(t, nil)
	c := fab.Cluster()
	ctx := context.Background()
	if _, err := c.PlaceRegister(0, baseobj.WriterRange{}); err != nil {
		t.Fatal(err)
	}
	for i, obj := range objs {
		if o := mustOutcome(t, trigger(fab, 0, obj, writeInv(uint64(i+1), types.Value(100+i)))); o.Err != nil {
			t.Fatalf("seed write %d: %v", i, o.Err)
		}
	}
	reshapes, frozenInReshape := 0, 0
	reshape := func(*Reshaper) error {
		reshapes++
		for _, m := range c.Members() {
			if srv, err := c.Server(m); err == nil && srv.Departing() {
				frozenInReshape++
			}
		}
		return nil
	}
	var inWindow func()
	fab.HookTransition(func() {
		if inWindow != nil {
			inWindow()
		}
	}, nil)

	// A swap keeps n and f: only the leaver freezes, its two objects move.
	epochBefore := c.Epoch()
	leaverObjects := len(c.ObjectsOn(0))
	served := false
	inWindow = func() {
		o := mustOutcome(t, trigger(fab, 1, objs[1], readInv()))
		served = o.Err == nil && o.Resp.Val.Val == 101
	}
	swapped, err := fab.Resize(ctx, ResizeSpec{Join: []LaneMaker{nil}, Leave: []types.ServerID{0}}, reshape)
	inWindow = nil
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if reshapes != 0 {
		t.Fatalf("a same-shape swap called the reshape %d times, want 0", reshapes)
	}
	if !served {
		t.Fatal("an op on a member that stays did not complete inside the swap's window")
	}
	if swapped.Moved != leaverObjects || leaverObjects != 2 {
		t.Fatalf("swap moved %d objects, want the leaver's 2 (had %d)", swapped.Moved, leaverObjects)
	}
	if s, err := c.Delta(objs[0]); err != nil || s != swapped.Joined[0] {
		t.Fatalf("Delta(%d) = %d, %v after the swap, want joiner %d", objs[0], s, err, swapped.Joined[0])
	}
	if c.Epoch() <= epochBefore {
		t.Fatal("epoch did not advance across the swap")
	}

	// A grow changes n: the reshape runs once, with every old member frozen.
	grow, err := fab.Resize(ctx, ResizeSpec{Join: []LaneMaker{nil, nil}}, reshape)
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	if len(grow.Joined) != 2 || grow.Joined[0] != 4 || grow.Joined[1] != 5 {
		t.Fatalf("grow joined %v, want [4 5]", grow.Joined)
	}
	if reshapes != 1 || frozenInReshape != 3 {
		t.Fatalf("grow: reshape called %d times with %d members frozen, want once with all 3", reshapes, frozenInReshape)
	}
	if grow.Moved != 0 {
		t.Fatalf("grow moved %d objects, want 0 (the reshape re-places)", grow.Moved)
	}
	if grow.Duration <= 0 {
		t.Fatalf("grow duration %v, want > 0", grow.Duration)
	}
	if n := c.View().N(); n != 5 {
		t.Fatalf("view N after grow = %d, want 5", n)
	}

	// A nil reshape has nothing to re-place: a shrink by a server hosting
	// objects aborts at activation; one by the two empty joiners commits.
	before := c.View()
	_, err = fab.Resize(ctx, ResizeSpec{Leave: []types.ServerID{swapped.Joined[0], 1}}, nil)
	if !IsResizeAborted(err) || !errors.Is(err, cluster.ErrServerNotEmpty) {
		t.Fatalf("shrink by hosting servers with a nil reshape: %v, want an abort for a non-empty server", err)
	}
	if after := c.View(); after.N() != before.N() || after.F != before.F {
		t.Fatalf("the aborted shrink left view %+v, want %+v", after, before)
	}
	for _, m := range before.Members {
		if srv, _ := c.Server(m); srv.Departing() {
			t.Fatalf("server %d still frozen after the abort", m)
		}
	}
	for i, obj := range objs {
		if o := mustOutcome(t, trigger(fab, 1, obj, readInv())); o.Err != nil || o.Resp.Val.Val != types.Value(100+i) {
			t.Fatalf("read %d after the aborted shrink = %+v, want val %d", i, o, 100+i)
		}
	}
	shrink, err := fab.Resize(ctx, ResizeSpec{Leave: grow.Joined}, nil)
	if err != nil {
		t.Fatalf("shrink by the empty joiners: %v", err)
	}
	if shrink.Moved != 0 || reshapes != 1 {
		t.Fatalf("shrink moved %d objects and the reshape ran %d times, want 0 and still 1", shrink.Moved, reshapes)
	}
	view := c.View()
	if view.N() != 3 || slices.Contains(view.Members, 0) || slices.Contains(view.Members, 4) || slices.Contains(view.Members, 5) {
		t.Fatalf("view after the shrink = %v, want servers 1, 2 and 3", view.Members)
	}
	// Every transition was a leave or a join, never a failure.
	if c.Crashes() != 0 {
		t.Fatalf("Crashes = %d after clean transitions, want 0", c.Crashes())
	}
	for i, obj := range objs {
		if o := mustOutcome(t, trigger(fab, 1, obj, readInv())); o.Err != nil || o.Resp.Val.Val != types.Value(100+i) {
			t.Fatalf("read %d after resize = %+v, want val %d", i, o, 100+i)
		}
	}
}

// TestResizeChangesF: an f-only delta is a real view change — new quorum
// thresholds activate under an epoch bump with the member set untouched.
func TestResizeChangesF(t *testing.T) {
	fab, _ := testEnv(t, nil)
	c := fab.Cluster()
	epochBefore := c.Epoch()
	membersBefore := c.View().N()
	if _, err := fab.Resize(context.Background(), ResizeSpec{F: 1}, nil); err != nil {
		t.Fatalf("f-only resize: %v", err)
	}
	view := c.View()
	if view.F != 1 {
		t.Fatalf("view F = %d, want 1", view.F)
	}
	if view.N() != membersBefore {
		t.Fatalf("member count changed across an f-only resize: %d -> %d", membersBefore, view.N())
	}
	if c.Epoch() <= epochBefore {
		t.Fatal("epoch did not advance across an f-only resize")
	}
}

// TestResizeReshaperStateIsPeekState: on the in-process lane a reshape's
// state read of an object — fresh or written, of every kind — is the
// object's whole state, PeekState's, and leaves it as it was: a CAS cell is
// read by the no-op CAS(v0, v0), a fragment store with its committed and
// pending fragments (compared as a set: the pending ones come from a map).
func TestResizeReshaperStateIsPeekState(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := New(c)
	v1, v2, v3 := types.TSValue{TS: 1, Val: 10}, types.TSValue{TS: 2, Writer: 1, Val: 20}, types.TSValue{TS: 3, Val: 30}
	frag := func(ts types.TSValue) baseobj.Invocation {
		return baseobj.Invocation{Op: baseobj.OpPutFrag, Body: &baseobj.Fragment{TS: ts, Index: 1, K: 1, Length: 16, Data: types.PayloadFor(ts.Val, 16)}}
	}
	var objs []types.ObjectID
	for _, tc := range []struct {
		place  func(types.ServerID) (types.ObjectID, error)
		writes []baseobj.Invocation
	}{
		{func(s types.ServerID) (types.ObjectID, error) { return c.PlaceRegister(s, baseobj.WriterRange{}) },
			[]baseobj.Invocation{{Op: baseobj.OpWrite, Arg: v2, Body: &baseobj.Fragment{Data: types.PayloadFor(v2.Val, 32)}}}},
		{c.PlaceMaxRegister, []baseobj.Invocation{{Op: baseobj.OpWriteMax, Arg: v2, Body: &baseobj.Fragment{Data: types.PayloadFor(v2.Val, 32)}}}},
		{c.PlaceCASCell, []baseobj.Invocation{{Op: baseobj.OpCAS, Exp: types.ZeroTSValue, Arg: v2}}},
		{c.PlaceFragStore, []baseobj.Invocation{frag(v1), {Op: baseobj.OpCommitFrag, Arg: v1}, frag(v2), frag(v3)}},
	} {
		fresh, err := tc.place(0)
		if err != nil {
			t.Fatal(err)
		}
		written, err := tc.place(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range tc.writes {
			if _, err := c.Apply(written, 1, inv); err != nil {
				t.Fatal(err)
			}
		}
		objs = append(objs, fresh, written)
	}
	peek := func(obj types.ObjectID) baseobj.State {
		o, err := c.Object(obj)
		if err != nil {
			t.Fatal(err)
		}
		return o.PeekState()
	}
	before := make([]baseobj.State, len(objs))
	for i, obj := range objs {
		before[i] = peek(obj)
	}
	reshape := func(rs *Reshaper) error {
		for i, obj := range objs {
			got, err := rs.State(obj)
			if err != nil {
				return err
			}
			if !sameState(got, before[i]) {
				t.Errorf("object %d: Reshaper.State = %+v, PeekState = %+v", obj, got, before[i])
			}
		}
		return nil
	}
	if _, err := fab.Resize(context.Background(), ResizeSpec{F: 1}, reshape); err != nil {
		t.Fatal(err)
	}
	for i, obj := range objs {
		if after := peek(obj); !sameState(after, before[i]) {
			t.Errorf("object %d: the state read changed it from %+v to %+v", obj, before[i], after)
		}
	}
}

// sameState compares two states, their fragments as a set.
func sameState(a, b baseobj.State) bool {
	byTS := func(x, y baseobj.Fragment) int { return x.TS.Compare(y.TS) }
	a.Frags, b.Frags = slices.SortedFunc(slices.Values(a.Frags), byTS), slices.SortedFunc(slices.Values(b.Frags), byTS)
	return reflect.DeepEqual(a, b)
}

// TestResizeAbortsWhenLeaverCrashesMidDrain is the no-escape regression:
// the departing server crashes between the freeze and the quiesce, and the
// coordinator must detect it and abort instead of spinning forever on a
// drain that can never complete (the crashed lane's in-flight ops are
// dropped, not completed). The old view stays active minus the crash.
func TestResizeAbortsWhenLeaverCrashesMidDrain(t *testing.T) {
	fab, objs := testEnv(t, nil)
	c := fab.Cluster()
	fab.HookTransition(func() {
		if err := fab.Crash(0); err != nil {
			t.Errorf("crash inside the freeze window: %v", err)
		}
	}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := fab.Resize(ctx, ResizeSpec{Join: []LaneMaker{nil}, Leave: []types.ServerID{0}}, nil)
	if !IsResizeAborted(err) {
		t.Fatalf("resize with a mid-drain crash returned %v, want ErrResizeAborted", err)
	}
	if ctx.Err() != nil {
		t.Fatal("abort only came from the context deadline — the crash was not detected")
	}
	// Only the causing crash is spent from the fail-stop budget.
	if c.Crashes() != 1 {
		t.Fatalf("Crashes = %d, want 1", c.Crashes())
	}
	// The empty joiner was retired with the abort.
	view := c.View()
	if view.N() != 3 {
		t.Fatalf("view N after abort = %d, want 3 (empty joiner retired)", view.N())
	}
	// Survivors returned to service: their objects still answer.
	for s := 1; s <= 2; s++ {
		srv, err := c.Server(types.ServerID(s))
		if err != nil {
			t.Fatal(err)
		}
		if srv.Departing() {
			t.Fatalf("survivor %d still departing after abort", s)
		}
		if o := mustOutcome(t, trigger(fab, 0, objs[s], writeInv(9, 77))); o.Err != nil {
			t.Fatalf("write on survivor %d after abort: %v", s, o.Err)
		}
	}
}

// TestResizeAbortsWhenTransferTargetCrashes kills the joiner inside the
// sealed-but-not-activated window — after an object's state is fetched and
// sealed, before MoveObject lands it — on both local-state lane backends
// (the TCP variant lives in the runner suite, which owns the node
// processes). The abort must roll the seal back: the object stays on its
// old server, readable and writable, and no op is lost or doubly applied.
func TestResizeAbortsWhenTransferTargetCrashes(t *testing.T) {
	t.Run("inproc", func(t *testing.T) {
		fab, objs := maxEnv(t, 3)
		testTransferTargetCrash(t, fab, objs)
	})
	t.Run("latency", func(t *testing.T) {
		fab, objs := latencyEnv(t, 3, 13)
		testTransferTargetCrash(t, fab, objs)
	})
}

func testTransferTargetCrash(t *testing.T, fab *Fabric, objs []types.ObjectID) {
	c := fab.Cluster()
	if o := waitOutcome(t, fab, 0, objs[0], writeMaxInv(5, 42)); o.Err != nil {
		t.Fatalf("seed write: %v", o.Err)
	}
	fired := false
	fab.HookTransition(nil, func(_ types.ObjectID, to types.ServerID) {
		if fired {
			return
		}
		fired = true
		if err := fab.Crash(to); err != nil {
			t.Errorf("crash of transfer target %d: %v", to, err)
		}
	})

	_, err := fab.Resize(context.Background(), ResizeSpec{Join: []LaneMaker{nil}, Leave: []types.ServerID{0}}, nil)
	if !IsResizeAborted(err) {
		t.Fatalf("resize with a crashed transfer target returned %v, want ErrResizeAborted", err)
	}
	if !fired {
		t.Fatal("beforeMove hook never fired")
	}
	if c.Crashes() != 1 {
		t.Fatalf("Crashes = %d, want 1 (only the injected crash)", c.Crashes())
	}
	// The seal rolled back: the object serves from its old server again.
	srv, err := c.Server(0)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Departing() {
		t.Fatal("server 0 still departing after abort")
	}
	if s, err := c.Delta(objs[0]); err != nil || s != 0 {
		t.Fatalf("Delta(%d) = %d, %v; want 0 (object stayed put)", objs[0], s, err)
	}
	if o := waitOutcome(t, fab, 1, objs[0], readMaxInv()); o.Err != nil || o.Resp.Val.Val != 42 {
		t.Fatalf("read after abort = %+v, want the sealed-then-restored val 42", o)
	}
	if o := waitOutcome(t, fab, 0, objs[0], writeMaxInv(6, 43)); o.Err != nil {
		t.Fatalf("write after abort: %v", o.Err)
	}
	if o := waitOutcome(t, fab, 1, objs[0], readMaxInv()); o.Err != nil || o.Resp.Val.Val != 43 {
		t.Fatalf("read after post-abort write = %+v, want val 43", o)
	}
}

// TestResizeAbortUnderLatencyLaneLoad drives the mid-drain abort with real
// in-flight operations on the latency lane: concurrent retryView writers
// keep running through the aborted transition, and none of their ops may
// fail — an op caught by the freeze or the rollback retries transparently.
func TestResizeAbortUnderLatencyLaneLoad(t *testing.T) {
	fab, objs := latencyEnv(t, 3, 11)
	c := fab.Cluster()
	fab.HookTransition(func() {
		_ = fab.Crash(0)
	}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Writers avoid server 0's object: ops routed at a crashed server hang
	// by design, and this test is about the abort path, not crash hangs.
	stop, errs, wait := startRetryWriters(ctx, t, fab, objs[1:], 4)
	_, err := fab.Resize(ctx, ResizeSpec{Join: []LaneMaker{nil}, Leave: []types.ServerID{0}}, nil)
	close(stop)
	wait()
	if !IsResizeAborted(err) {
		t.Fatalf("resize returned %v, want ErrResizeAborted", err)
	}
	select {
	case err := <-errs:
		t.Fatalf("client op failed across the aborted transition: %v", err)
	default:
	}
	if c.Crashes() != 1 {
		t.Fatalf("Crashes = %d, want 1", c.Crashes())
	}
	if n := c.View().N(); n != 3 {
		t.Fatalf("view N after abort = %d, want 3", n)
	}
}
