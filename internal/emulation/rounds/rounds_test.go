package rounds

import (
	"context"
	"errors"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/types"
)

// multiEnv builds an n-server cluster with regs max-registers per server,
// returning the objects server-major (a scan order).
func multiEnv(t *testing.T, n, regs int, gate fabric.Gate, opts ...fabric.Option) (*fabric.Fabric, [][]types.ObjectID) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	byServer := make([][]types.ObjectID, n)
	for s := 0; s < n; s++ {
		for r := 0; r < regs; r++ {
			obj, err := c.PlaceMaxRegister(types.ServerID(s))
			if err != nil {
				t.Fatal(err)
			}
			byServer[s] = append(byServer[s], obj)
		}
	}
	if gate != nil {
		opts = append(opts, fabric.WithGate(gate))
	}
	return fabric.New(c, opts...), byServer
}

// testEnv is multiEnv with one max-register per server.
func testEnv(t *testing.T, n int, gate fabric.Gate) (*fabric.Fabric, []types.ObjectID) {
	t.Helper()
	fab, byServer := multiEnv(t, n, 1, gate)
	objs := make([]types.ObjectID, n)
	for s := range byServer {
		objs[s] = byServer[s][0]
	}
	return fab, objs
}

func readTargets(objs ...types.ObjectID) []Target {
	ts := make([]Target, len(objs))
	for i, obj := range objs {
		ts[i] = Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpReadMax}}
	}
	return ts
}

func writeTargets(v types.TSValue, objs ...types.ObjectID) []Target {
	ts := make([]Target, len(objs))
	for i, obj := range objs {
		ts[i] = Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v}}
	}
	return ts
}

func fixed(targets []Target, need int) Plan {
	return func(buf []Target) ([]Target, int) { return append(buf, targets...), need }
}

// outcome is a round's report, recorded; fired counts reports.
type outcome struct {
	fired int
	max   types.TSValue
	reps  []Report
	err   error
}

// scatter runs a max-fold round on the in-process lane, where everything
// that can complete completes inline, and returns what was reported so far.
func scatter(fab *fabric.Fabric, client types.ClientID, r Round) *outcome {
	out := &outcome{}
	r.Max = func(v types.TSValue, err error) { out.fired++; out.max, out.err = v, err }
	Scatter(context.Background(), fab, client, r)
	return out
}

func releaseAll(fab *fabric.Fabric) int {
	return fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
}

// TestScatterMaxFold: a write round at need n, then a read round at the
// quorum folds the written maximum; a degenerate threshold reports an error
// instead of never firing.
func TestScatterMaxFold(t *testing.T) {
	fab, objs := testEnv(t, 3, nil)
	v := types.TSValue{TS: 7, Writer: 1, Val: 42}
	if w := scatter(fab, 1, Round{Plan: fixed(writeTargets(v, objs...), 3)}); w.fired != 1 || w.err != nil {
		t.Fatalf("write round: fired=%d err=%v", w.fired, w.err)
	}
	if r := scatter(fab, 2, Round{Plan: fixed(readTargets(objs...), 2)}); r.fired != 1 || r.err != nil || r.max != v {
		t.Fatalf("read round: fired=%d max=%v err=%v, want one report of %v", r.fired, r.max, r.err, v)
	}
	for _, need := range []int{0, -1, len(objs) + 1} {
		before := fab.Triggers()
		if r := scatter(fab, 2, Round{Plan: fixed(readTargets(objs...), need)}); r.fired != 1 || r.err == nil {
			t.Fatalf("need=%d: fired=%d err=%v, want one error report", need, r.fired, r.err)
		}
		if fab.Triggers() != before {
			t.Fatalf("need=%d: a rejected round triggered operations", need)
		}
	}
}

// TestScatterAdaptsToCrash: n-f responses still arrive from the live
// servers; a threshold that needs the crashed one never reports — a pending
// op, not an error and not a hang of the caller.
func TestScatterAdaptsToCrash(t *testing.T) {
	fab, objs := testEnv(t, 3, nil)
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	if r := scatter(fab, 1, Round{Plan: fixed(readTargets(objs...), 2)}); r.fired != 1 || r.err != nil {
		t.Fatalf("quorum round with a crash: fired=%d err=%v", r.fired, r.err)
	}
	if r := scatter(fab, 1, Round{Plan: fixed(readTargets(objs...), 3)}); r.fired != 0 {
		t.Fatalf("full round over a crashed server reported (%v)", r.err)
	}
}

// TestScatterHeldResponses: a held response does not count until released.
func TestScatterHeldResponses(t *testing.T) {
	gate := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
		if ev.Server == 2 {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	fab, objs := testEnv(t, 3, gate)
	if r := scatter(fab, 1, Round{Plan: fixed(readTargets(objs...), 2)}); r.fired != 1 || r.err != nil {
		t.Fatalf("quorum with one held response: fired=%d err=%v", r.fired, r.err)
	}
	r := scatter(fab, 1, Round{Plan: fixed(readTargets(objs...), 3)})
	if r.fired != 0 {
		t.Fatal("round counted a held response")
	}
	releaseAll(fab)
	if r.fired != 1 || r.err != nil {
		t.Fatalf("after release: fired=%d err=%v", r.fired, r.err)
	}
}

// TestScatterFailsFastOnProtocolError: an unauthorized write reports its
// error at once, on every reducer, however many responses were still needed.
func TestScatterFailsFastOnProtocolError(t *testing.T) {
	c, err := cluster.New(1)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := c.PlaceRegister(0, baseobj.WriterRange{Lo: 0, Hi: 1})
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	targets := []Target{{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1, Writer: 5}}}}
	if r := scatter(fab, 5, Round{Plan: fixed(targets, 1)}); r.fired != 1 || r.err == nil {
		t.Fatalf("max fold: fired=%d err=%v, want the protocol error", r.fired, r.err)
	}
	if r := scatter(fab, 5, Round{Plan: fixed(targets, 0), Servers: true}); r.fired != 1 || r.err == nil {
		t.Fatalf("server scan: fired=%d err=%v, want the protocol error", r.fired, r.err)
	}
	fired := 0
	Scatter(context.Background(), fab, 5, Round{Plan: fixed(targets, 1), Reports: func(reps []Report, err error) {
		fired++
		if err == nil || reps != nil {
			t.Errorf("reports: reps=%v err=%v, want the protocol error alone", reps, err)
		}
	}})
	if fired != 1 {
		t.Fatalf("reports reducer fired %d times", fired)
	}
}

// TestScatterReports: the report reducer hands over exactly the need
// responses that completed the round, in arrival order, each naming its
// target and server.
func TestScatterReports(t *testing.T) {
	fab, objs := testEnv(t, 3, nil)
	v := types.TSValue{TS: 2, Writer: 0, Val: 5}
	scatter(fab, 0, Round{Plan: fixed(writeTargets(v, objs[1]), 1)})
	var got []Report
	Scatter(context.Background(), fab, 1, Round{Plan: fixed(readTargets(objs...), 2), Reports: func(reps []Report, err error) {
		if err != nil {
			t.Errorf("reports: %v", err)
		}
		got = reps
	}})
	if len(got) != 2 {
		t.Fatalf("got %d reports, want the 2 that completed the round", len(got))
	}
	for i, rep := range got {
		if rep.Index != i || rep.Object != objs[i] || rep.Server != types.ServerID(i) {
			t.Errorf("report %d = %+v, want index/object/server of target %d", i, rep, i)
		}
	}
	if got[1].Val != v {
		t.Errorf("report 1 carries %v, want %v", got[1].Val, v)
	}
}

// TestScatterServers exercises Algorithm 2's condition on both dispatch
// forms: a server counts only when every one of its operations responded,
// and the threshold is all but f of the hosting servers.
func TestScatterServers(t *testing.T) {
	for _, scan := range []bool{false, true} {
		var heldObj types.ObjectID = -1
		gate := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
			if ev.Object == heldObj {
				return fabric.Hold
			}
			return fabric.Pass
		}}
		fab, byServer := multiEnv(t, 3, 2, gate)
		var all []types.ObjectID
		for _, objs := range byServer {
			all = append(all, objs...)
		}
		v := types.TSValue{TS: 3, Writer: 0, Val: 9}
		scatter(fab, 0, Round{Plan: fixed(writeTargets(v, byServer[1][1]), 1)})

		if r := scatter(fab, 1, Round{Plan: fixed(readTargets(all...), 0), Scan: scan, Servers: true}); r.fired != 1 || r.err != nil || r.max != v {
			t.Fatalf("scan=%v: three complete scans: fired=%d max=%v err=%v", scan, r.fired, r.max, r.err)
		}
		// Server 0's scan stays partial while one of its registers is held.
		heldObj = byServer[0][0]
		if r := scatter(fab, 1, Round{Plan: fixed(readTargets(all...), 1), Scan: scan, Servers: true}); r.fired != 1 || r.err != nil {
			t.Fatalf("scan=%v: two of three scans, f=1: fired=%d err=%v", scan, r.fired, r.err)
		}
		r := scatter(fab, 1, Round{Plan: fixed(readTargets(all...), 0), Scan: scan, Servers: true})
		if r.fired != 0 {
			t.Fatalf("scan=%v: round fired with server 0's scan still partial", scan)
		}
		releaseAll(fab)
		if r.fired != 1 || r.err != nil {
			t.Fatalf("scan=%v: after release: fired=%d err=%v", scan, r.fired, r.err)
		}
		// An f that leaves no hosting server to wait for is rejected.
		for _, f := range []int{3, -1} {
			if r := scatter(fab, 1, Round{Plan: fixed(readTargets(all...), f), Scan: scan, Servers: true}); r.fired != 1 || r.err == nil {
				t.Fatalf("scan=%v f=%d: fired=%d err=%v, want an error", scan, f, r.fired, r.err)
			}
		}
	}
}

// TestScatterServersStalePlanRetries: a server-scan round planned over
// objects a transition retired before the round resolved their servers — a
// reshape that re-placed every object in between — finds no hosting server.
// That is a stale plan, not a bad threshold: the round parks on the view
// stamp like any view-change bounce, triggers nothing, and reports only its
// context's end.
func TestScatterServersStalePlanRetries(t *testing.T) {
	fab, byServer := multiEnv(t, 3, 2, nil)
	var all []types.ObjectID
	for _, objs := range byServer {
		all = append(all, objs...)
	}
	for _, obj := range all {
		if err := fab.Cluster().RemoveObject(obj); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	reported := make(chan error, 1)
	before := fab.Triggers()
	Scatter(ctx, fab, 1, Round{Plan: fixed(readTargets(all...), 1), Scan: true, Servers: true,
		Max: func(_ types.TSValue, err error) { reported <- err }})
	select {
	case err := <-reported:
		t.Fatalf("the stale round reported %v, want it parked on the view stamp", err)
	default:
	}
	if got := fab.ViewWaiters(); got != 1 {
		t.Fatalf("%d rounds parked on the view stamp, want the stale one", got)
	}
	cancel()
	if err := <-reported; !errors.Is(err, context.Canceled) {
		t.Fatalf("the parked round reported %v, want its context's error", err)
	}
	if got := fab.Triggers(); got != before {
		t.Fatalf("the stale round triggered %d operations", got-before)
	}
}

// TestScatterServersCrashedPartialScanNeverCounts: a crashed server's
// remaining operations never respond, so with f=0 the round stays pending.
func TestScatterServersCrashedPartialScanNeverCounts(t *testing.T) {
	fab, byServer := multiEnv(t, 2, 2, nil)
	if err := fab.Crash(1); err != nil {
		t.Fatal(err)
	}
	all := append(append([]types.ObjectID{}, byServer[0]...), byServer[1]...)
	if r := scatter(fab, 1, Round{Plan: fixed(readTargets(all...), 0), Servers: true}); r.fired != 0 {
		t.Fatalf("round over a crashed server reported (%v)", r.err)
	}
	if r := scatter(fab, 1, Round{Plan: fixed(readTargets(all...), 1), Servers: true}); r.fired != 1 || r.err != nil {
		t.Fatalf("f=1 round: fired=%d err=%v", r.fired, r.err)
	}
}

// TestFoldOverDelivery forges the duplicate-report scenario the per-server
// countdown must survive: a server producing more reports than the round
// scattered to it (or one the round never scattered to). Without the guard
// the countdown passed through zero and a server whose count re-reached
// zero was counted as a second complete scan.
func TestFoldOverDelivery(t *testing.T) {
	for name, reports := range map[string][]types.ServerID{
		"duplicate":      {0, 0},
		"unknown server": {7},
	} {
		var errs []error
		j := &Fold{left: 2, owed: map[types.ServerID]int{0: 1, 1: 1}, report: func(_ types.TSValue, err error) { errs = append(errs, err) }}
		for _, srv := range reports {
			j.add(&Report{Server: srv})
		}
		if len(errs) != 1 || !errors.Is(errs[0], ErrOverDelivery) {
			t.Fatalf("%s: reports = %v, want one ErrOverDelivery", name, errs)
		}
	}
}

// TestFoldExactDeliveryCompletes pins the guard against false positives: a
// server delivering exactly its quota completes its scan.
func TestFoldExactDeliveryCompletes(t *testing.T) {
	var got types.TSValue
	fired := 0
	j := &Fold{left: 2, owed: map[types.ServerID]int{0: 2, 1: 1}, report: func(v types.TSValue, err error) {
		if err != nil {
			t.Errorf("fold: %v", err)
		}
		fired++
		got = v
	}}
	j.add(&Report{Server: 0, Val: types.TSValue{TS: 1}})
	j.add(&Report{Server: 0, Val: types.TSValue{TS: 3}})
	if fired != 0 {
		t.Fatal("fold fired on one complete scan of two")
	}
	j.add(&Report{Server: 1, Val: types.TSValue{TS: 2}})
	if fired != 1 || got.TS != 3 {
		t.Fatalf("fired=%d max=%v, want one report of ts 3", fired, got)
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

// TestAbandonedRoundReleaseCannotBlock is the cancellation-leak regression
// test: a round whose caller gave up leaves held ops behind; when the
// environment later releases every one of them, the late completions land
// in the abandoned round's fold inline on the releasing goroutine. Nothing
// there can block — the release below would deadlock if it could — and the
// cancelled context starts no new round.
func TestAbandonedRoundReleaseCannotBlock(t *testing.T) {
	gate := fabric.GateFuncs{Respond: func(fabric.TriggerEvent, baseobj.Response) fabric.Decision {
		return fabric.Hold
	}}
	fab, objs := testEnv(t, 3, gate)
	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		fired := 0
		Scatter(ctx, fab, 1, Round{Plan: fixed(readTargets(objs...), len(objs)), Max: func(types.TSValue, error) { fired++ }})
		cancel() // abandon the round before any response arrives
		if released := releaseAll(fab); released != len(objs) {
			t.Fatalf("round %d: released %d, want %d", round, released, len(objs))
		}
		if fired != 1 {
			t.Fatalf("round %d: the abandoned round's fold fired %d times on release", round, fired)
		}
		before := fab.Triggers()
		var got error
		Scatter(ctx, fab, 1, Round{Plan: fixed(readTargets(objs...), 1), Max: func(_ types.TSValue, err error) { got = err }})
		if !errors.Is(got, context.Canceled) || fab.Triggers() != before {
			t.Fatalf("round %d: scatter on a cancelled context: err=%v, triggers %d -> %d", round, got, before, fab.Triggers())
		}
	}
}

// TestRetryDecision pins the one retry function's contract: a non-view-change
// error is not taken over; under a stale stamp again runs promptly; under the
// current stamp nothing runs until a transition ends, then again, once; an
// ended context turns the parked retry into one fail with the context's error,
// which a later transition does not repeat.
func TestRetryDecision(t *testing.T) {
	fab, _ := testEnv(t, 3, nil)
	ctx := context.Background()
	endTransition := func() {
		t.Helper()
		if _, err := fab.Resize(ctx, fabric.ResizeSpec{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	unreachable := func() { t.Error("again called") }
	unfailed := func(error) { t.Error("fail called") }
	if Retry(ctx, fab, fab.ViewStamp(), errors.New("protocol error"), unreachable, unfailed) {
		t.Fatal("a non-view-change error was retried")
	}

	stale := fab.ViewStamp()
	endTransition()
	ran := make(chan struct{}, 2)
	again := func() { ran <- struct{}{} }
	if !Retry(ctx, fab, stale, fabric.ErrViewChanged, again, unfailed) {
		t.Fatal("a view-change error under a stale stamp was not taken over")
	}
	<-ran

	if !Retry(ctx, fab, fab.ViewStamp(), fabric.ErrViewChanged, again, unfailed) {
		t.Fatal("a view-change error under the current stamp was not taken over")
	}
	if fab.ViewWaiters() != 1 || len(ran) != 0 {
		t.Fatalf("%d parked, %d retries ran; want the retry parked until a transition ends", fab.ViewWaiters(), len(ran))
	}
	endTransition()
	<-ran
	endTransition() // the woken retry is gone: nothing left to run twice
	if fab.ViewWaiters() != 0 || len(ran) != 0 {
		t.Fatalf("%d parked, %d more retries after the wake-up; want none", fab.ViewWaiters(), len(ran))
	}

	cancelled, cancel := context.WithCancel(ctx)
	failed := make(chan error, 2)
	if !Retry(cancelled, fab, fab.ViewStamp(), fabric.ErrViewChanged, unreachable, func(err error) { failed <- err }) {
		t.Fatal("a view-change error under the current stamp was not taken over")
	}
	cancel()
	if err := <-failed; !errors.Is(err, context.Canceled) {
		t.Fatalf("fail(%v), want context.Canceled", err)
	}
	if fab.ViewWaiters() != 0 {
		t.Fatalf("%d waiters left behind by an ended context", fab.ViewWaiters())
	}
	endTransition()
	if len(failed) != 0 {
		t.Fatal("fail ran a second time")
	}
}
