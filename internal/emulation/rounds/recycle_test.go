package rounds

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// lateServer2 is the chaos gate of the recycling tests: every response of
// server 2 is parked, so it reaches its round only when the releaser gets to
// it — after the quorum of the other two completed and reported.
var lateServer2 = fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
	if ev.Server == 2 {
		return fabric.Hold
	}
	return fabric.Pass
}}

// streamEnv builds a 3-server latency-lane fabric behind the lateServer2
// gate with one max-register per server for each of the streams, and starts
// the releaser that lets server 2's parked responses go, late. stop ends the
// releaser once nothing is pending any more.
func streamEnv(t *testing.T, streams int) (fab *fabric.Fabric, objs [][]types.ObjectID, stop func()) {
	t.Helper()
	lanes := fabric.LatencyLanes(3, fabric.LatencyProfile{Base: 2 * time.Microsecond, Jitter: 20 * time.Microsecond})
	fab, byServer := multiEnv(t, 3, streams, lateServer2, fabric.WithLanes(lanes))
	t.Cleanup(func() { fab.Close() })
	objs = make([][]types.ObjectID, streams)
	for s := range objs {
		for srv := range byServer {
			objs[s] = append(objs[s], byServer[srv][s])
		}
	}
	return fab, objs, lateReleaser(t, fab)
}

// lateReleaser starts the goroutine that lets parked responses go, late; the
// returned stop ends it once nothing is pending any more.
func lateReleaser(t *testing.T, fab *fabric.Fabric) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	return func() {
		deadline := time.Now().Add(10 * time.Second)
		for len(fab.Pending()) != 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		close(quit)
		<-done
		if n := len(fab.Pending()); n != 0 {
			t.Errorf("%d operations still pending after the run", n)
		}
	}
}

// result is one round's report as its reducer saw it.
type result struct {
	max  types.TSValue
	reps []Report
	err  error
}

// TestRoundRecyclingLateResponders runs thousands of back-to-back rounds from
// concurrent streams on the latency lane while one responder of every round
// is delayed past its quorum, so each attempt object is recycled with a
// straggler only just in — and a swap of server 1 lands in the middle, so
// rounds caught by it retry on fresh objects. Every stream owns its
// registers and raises their value by one before each read, so a response
// folded into the wrong round — another stream's, or this stream's previous
// one — shows as a wrong maximum, a wrong report, or a second firing.
func TestRoundRecyclingLateResponders(t *testing.T) {
	const streams, pairs = 4, 400
	fab, objs, stop := streamEnv(t, streams)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// fired[s][r] counts the reports of stream s's r-th round.
	fired := make([][]atomic.Int32, streams)
	var past atomic.Int32 // streams past the halfway mark
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		fired[s] = make([]atomic.Int32, 2*pairs)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client := types.ClientID(s)
			results := make(chan result, 2*pairs) // room for every firing, so a double one cannot block
			// run scatters round n of the stream and waits for its report.
			// flavour: 0 max-fold, 1 reports, 2 server scans (tolerating 1).
			run := func(n int, targets []Target, flavour int) (result, bool) {
				count := func(res result) { fired[s][n].Add(1); results <- res }
				r := Round{Plan: fixed(targets, 2)}
				switch flavour {
				case 0:
					r.Max = func(v types.TSValue, _ uint64, err error) { count(result{max: v, err: err}) }
				case 1:
					r.Reports = func(reps []Report, err error) { count(result{reps: reps, err: err}) }
				case 2:
					r.Plan, r.Scan = fixed(targets, 1), true
					r.Max = func(v types.TSValue, _ uint64, err error) { count(result{max: v, err: err}) }
				}
				Scatter(ctx, fab, client, r)
				select {
				case res := <-results:
					if res.err != nil {
						t.Errorf("stream %d round %d: %v", s, n, res.err)
					}
					return res, res.err == nil
				case <-ctx.Done():
					t.Errorf("stream %d round %d never reported", s, n)
					return result{}, false
				}
			}
			for p := 0; p < pairs; p++ {
				if p == pairs/2 {
					past.Add(1)
				}
				want := types.TSValue{TS: uint64(p + 1), Writer: client, Val: types.Value(1000*s + p)}
				if _, ok := run(2*p, writeTargets(want, objs[s]...), 0); !ok {
					return
				}
				res, ok := run(2*p+1, readTargets(objs[s]...), p%3)
				if !ok {
					return
				}
				if p%3 != 1 {
					if res.max != want {
						t.Errorf("stream %d pair %d: read max %v, want %v", s, p, res.max, want)
						return
					}
					continue
				}
				if len(res.reps) != 2 {
					t.Errorf("stream %d pair %d: %d reports, want 2", s, p, len(res.reps))
					return
				}
				seen := types.ZeroTSValue
				for _, rep := range res.reps {
					if rep.Index < 0 || rep.Index > 2 || rep.Object != objs[s][rep.Index] || rep.Val.Writer != client && rep.Val != types.ZeroTSValue {
						t.Errorf("stream %d pair %d: foreign report %+v", s, p, rep)
						return
					}
					seen = types.MaxTSValue(seen, rep.Val)
				}
				if seen != want {
					t.Errorf("stream %d pair %d: reports fold to %v, want %v", s, p, seen, want)
					return
				}
			}
		}(s)
	}

	// Swap server 1 out once every stream is in full swing.
	for past.Load() < streams && ctx.Err() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	swapped, err := fab.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{1}}, nil)
	if err != nil {
		t.Fatalf("swap of server 1: %v", err)
	}
	joiner := swapped.Joined[0]
	wg.Wait()
	stop()
	for s := range fired {
		if srv, err := fab.ServerFor(objs[s][1]); err != nil || srv != joiner {
			t.Errorf("stream %d: object %d on server %d (%v), want the joiner %d", s, objs[s][1], srv, err, joiner)
		}
		for n := range fired[s] {
			if got := fired[s][n].Load(); got != 1 && !t.Failed() {
				t.Errorf("stream %d round %d reported %d times", s, n, got)
			}
		}
	}
}

// TestRoundReplaceMidRoundRescatters pins the view-change retry on the
// recycled path: a round stalled on a parked operation is caught by a
// swap of that operation's server; its retry must plan afresh and resolve
// the moved object under the new view, on an attempt object of its own while
// the first one is recycled.
func TestRoundReplaceMidRoundRescatters(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	gate := fabric.GateFuncs{Apply: func(ev fabric.TriggerEvent) fabric.Decision {
		if armed.Load() && ev.Server == 0 {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	fab, objs := testEnv(t, 3, gate)
	v := types.TSValue{TS: 4, Writer: 1, Val: 44}
	var plans atomic.Int32
	done := make(chan result, 2)
	Scatter(context.Background(), fab, 1, Round{
		Plan: func(buf []Target) ([]Target, int) {
			plans.Add(1)
			return append(buf, writeTargets(v, objs...)...), 3
		},
		Reports: func(reps []Report, err error) { done <- result{reps: reps, err: err} },
	})
	if n := len(fab.Pending()); n != 1 {
		t.Fatalf("%d operations parked, want the round stalled on server 0's", n)
	}
	armed.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	swapped, err := fab.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{0}}, nil)
	if err != nil {
		t.Fatalf("swap of server 0: %v", err)
	}
	joiner := swapped.Joined[0]
	var res result
	select {
	case res = <-done:
	case <-ctx.Done():
		t.Fatal("round never reported after the replacement")
	}
	if res.err != nil || len(res.reps) != 3 {
		t.Fatalf("round across the replacement: %d reports, err %v", len(res.reps), res.err)
	}
	// One plan per attempt; retries that land while the transition is still
	// in progress bounce again, so there may be more than two.
	if got := plans.Load(); got < 2 {
		t.Fatalf("plan ran %d times, want one per attempt (at least 2)", got)
	}
	for _, rep := range res.reps {
		want := types.ServerID(rep.Index)
		if rep.Index == 0 {
			want = joiner
		}
		if rep.Server != want || rep.Object != objs[rep.Index] {
			t.Errorf("report %+v, want object %d on server %d", rep, objs[rep.Index], want)
		}
	}
	select {
	case extra := <-done:
		t.Fatalf("round reported twice: %+v", extra)
	case <-time.After(5 * time.Millisecond):
	}
	if r := scatter(fab, 2, Round{Plan: fixed(readTargets(objs...), 3)}); r.fired != 1 || r.err != nil || r.max != v {
		t.Fatalf("read after the replacement: fired=%d max=%v err=%v, want %v", r.fired, r.max, r.err, v)
	}
}

// TestReportsSliceIsTheReducers: the slice a Reports reducer receives is its
// own — 1,000 further rounds through the same pool, of every flavour, leave
// a retained one exactly as it was handed over.
func TestReportsSliceIsTheReducers(t *testing.T) {
	fab, byServer := multiEnv(t, 3, 2, nil)
	var all []types.ObjectID
	for s, objs := range byServer {
		all = append(all, objs...)
		v := types.TSValue{TS: uint64(s + 1), Writer: types.ClientID(s), Val: types.Value(10 + s)}
		scatter(fab, types.ClientID(s), Round{Plan: fixed(writeTargets(v, objs...), len(objs))})
	}
	var kept, snapshot []Report
	Scatter(context.Background(), fab, 1, Round{Plan: fixed(readTargets(all...), len(all)), Reports: func(reps []Report, err error) {
		if err != nil {
			t.Errorf("reports: %v", err)
		}
		kept, snapshot = reps, append([]Report(nil), reps...)
	}})
	if len(kept) != len(all) {
		t.Fatalf("kept %d reports, want %d", len(kept), len(all))
	}
	for i := 0; i < 1000; i++ {
		v := types.TSValue{TS: uint64(100 + i), Writer: 0, Val: types.Value(i)}
		switch i % 3 {
		case 0:
			scatter(fab, 0, Round{Plan: fixed(writeTargets(v, all...), len(all))})
		case 1:
			Scatter(context.Background(), fab, 2, Round{Plan: fixed(readTargets(all...), 2), Reports: func([]Report, error) {}})
		case 2:
			scatter(fab, 2, Round{Plan: fixed(readTargets(all...), 1), Scan: true})
		}
	}
	if !reflect.DeepEqual(kept, snapshot) {
		t.Fatalf("retained reports changed under later rounds:\n%s\nwant\n%s", fmt.Sprint(kept), fmt.Sprint(snapshot))
	}
}

// awaitPending polls until Pending is exactly one op in the given phase on
// server 2, and returns it.
func awaitPending(t *testing.T, fab *fabric.Fabric, phase fabric.Phase) fabric.PendingOp {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		p := fab.Pending()
		if len(p) == 1 && p[0].Phase == phase && p[0].Event.Server == 2 {
			return p[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("Pending = %+v, want one op of server 2 in phase %v", p, phase)
		}
	}
}

// awaitRound scatters a 2-of-3 max-fold round over targets, counting its
// reports in fired, and returns the first one.
func awaitRound(t *testing.T, fab *fabric.Fabric, fired *atomic.Int32, plan Plan) types.TSValue {
	t.Helper()
	results := make(chan result, 2) // room for a second firing, so it cannot block its lane
	Scatter(context.Background(), fab, 1, Round{Plan: plan, Max: func(v types.TSValue, _ uint64, err error) {
		fired.Add(1)
		results <- result{max: v, err: err}
	}})
	select {
	case res := <-results:
		if res.err != nil {
			t.Fatalf("round: %v", res.err)
		}
		return res.max
	case <-time.After(10 * time.Second):
		t.Fatal("round never reported")
		return types.ZeroTSValue
	}
}

// writeReadPairs runs pairs write-then-read rounds at quorum 2 of 3 and checks
// that every read folds exactly the value just written and every round
// reported once. plan wraps each round's targets (nil: fixed).
func writeReadPairs(t *testing.T, fab *fabric.Fabric, objs []types.ObjectID, pairs int, plan func([]Target) Plan) {
	t.Helper()
	if plan == nil {
		plan = func(targets []Target) Plan { return fixed(targets, 2) }
	}
	fired := make([]atomic.Int32, 2*pairs)
	for p := 0; p < pairs; p++ {
		want := types.TSValue{TS: uint64(p + 2), Writer: 1, Val: types.Value(7000 + p)}
		awaitRound(t, fab, &fired[2*p], plan(writeTargets(want, objs...)))
		if got := awaitRound(t, fab, &fired[2*p+1], plan(readTargets(objs...))); got != want {
			t.Fatalf("pair %d: read max %v, want %v", p, got, want)
		}
	}
	for n := range fired {
		if got := fired[n].Load(); got != 1 {
			t.Fatalf("round %d reported %d times", n, got)
		}
	}
}

// TestRoundRespondHeldRecordLifetime follows one straggler through the slab:
// on the latency lane a round's quorum reports while server 2's response sits
// at the respond gate, parked on the attempt's own in-flight record and listed
// as held-respond; releasing it folds it into its own spent round — no second
// report — and only then is the attempt recycled. Over 5,000 further rounds on
// the pool, each leaving a straggler of its own to a late releaser, no round
// reports twice and none reads another round's value.
func TestRoundRespondHeldRecordLifetime(t *testing.T) {
	lanes := fabric.LatencyLanes(5, fabric.LatencyProfile{Jitter: 2 * time.Microsecond})
	fab, byServer := multiEnv(t, 3, 1, lateServer2, fabric.WithLanes(lanes))
	t.Cleanup(func() { fab.Close() })
	objs := []types.ObjectID{byServer[0][0], byServer[1][0], byServer[2][0]}

	var fired atomic.Int32
	first := types.TSValue{TS: 1, Writer: 1, Val: 1}
	awaitRound(t, fab, &fired, fixed(writeTargets(first, objs...), 2))
	held := awaitPending(t, fab, fabric.PhaseRespond)
	if held.Event.Inv.Arg != first || fired.Load() != 1 {
		t.Fatalf("held op %+v after %d reports, want the first round's write parked after its one report", held.Event, fired.Load())
	}
	if err := fab.Release(held.Event.Token); err != nil {
		t.Fatal(err)
	}
	if err := fab.Release(held.Event.Token); err == nil {
		t.Fatal("the same held response released twice")
	}
	for deadline := time.Now().Add(10 * time.Second); len(fab.Pending()) != 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("released response never completed")
		}
	}

	stop := lateReleaser(t, fab)
	writeReadPairs(t, fab, objs, 2500, nil)
	stop()
	if got := fired.Load(); got != 1 {
		t.Fatalf("the first round reported %d times", got)
	}
}

// TestRoundCrashOnTheWireLeavesItsAttempt: server 2 crashes with a round's op
// on its (slow) wire. The record is unlisted and Pending keeps the event; the
// attempt is never recycled — no later round's plan is handed its op buffer —
// so when the lane delivers the lost op after all, the completion finds its
// own record, loses the claim and is discarded, while a thousand later rounds
// run on slabs of their own.
func TestRoundCrashOnTheWireLeavesItsAttempt(t *testing.T) {
	quick := fabric.LatencyProfile{Jitter: 2 * time.Microsecond}
	const wire = 30 * time.Millisecond // server 2's delivery delay: the crash beats it
	fab, byServer := multiEnv(t, 3, 1, nil, fabric.WithLanes(func(s types.ServerID) fabric.Lane {
		if s == 2 {
			return fabric.NewLatencyLane(2, fabric.LatencyProfile{Base: wire})
		}
		return fabric.NewLatencyLane(int64(s), quick)
	}))
	t.Cleanup(func() { fab.Close() })
	objs := []types.ObjectID{byServer[0][0], byServer[1][0], byServer[2][0]}

	var fired atomic.Int32
	var slab *Target // the crashed round's op buffer
	first := types.TSValue{TS: 1, Writer: 1, Val: 1}
	triggered := time.Now()
	awaitRound(t, fab, &fired, func(buf []Target) ([]Target, int) {
		buf = append(buf, writeTargets(first, objs...)...)
		slab = &buf[0]
		return buf, 2
	})
	onWire := awaitPending(t, fab, fabric.PhaseInFlight)
	if err := fab.Crash(2); err != nil {
		t.Fatal(err)
	}
	if p := fab.Pending(); len(p) != 1 || p[0].Phase != fabric.PhaseDropped || p[0].Event.Token != onWire.Event.Token {
		t.Fatalf("Pending after the crash = %+v, want %+v dropped", p, onWire.Event)
	}

	writeReadPairs(t, fab, objs, 500, func(targets []Target) Plan {
		return func(buf []Target) ([]Target, int) {
			if cap(buf) > 0 && &buf[:1][0] == slab {
				t.Error("a later round runs on the slabs of the round whose op was dropped")
			}
			return append(buf, targets...), 2
		}
	})
	time.Sleep(time.Until(triggered.Add(2 * wire))) // the lane has delivered the lost op by now
	if got := fired.Load(); got != 1 {
		t.Fatalf("the crashed round reported %d times", got)
	}
	if p := fab.Pending(); len(p) == 0 || p[0].Phase != fabric.PhaseDropped || p[0].Event.Token != onWire.Event.Token {
		t.Fatalf("oldest pending op after the late delivery = %+v, want %+v still dropped", p[:min(len(p), 1)], onWire.Event)
	}
}

// TestRoundReplaceMidRoundRescattersLatencyLane is
// TestRoundReplaceMidRoundRescatters across the asynchronous hand-off: the
// stalled op is parked on its attempt's slab record, the swap completes it
// with a view-change error without it ever reaching the lane, and the retry
// re-scatters on an attempt of its own under the new view.
func TestRoundReplaceMidRoundRescattersLatencyLane(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	gate := fabric.GateFuncs{Apply: func(ev fabric.TriggerEvent) fabric.Decision {
		if armed.Load() && ev.Server == 0 {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	lanes := fabric.LatencyLanes(9, fabric.LatencyProfile{Base: 2 * time.Microsecond, Jitter: 20 * time.Microsecond})
	fab, byServer := multiEnv(t, 3, 1, gate, fabric.WithLanes(lanes))
	t.Cleanup(func() { fab.Close() })
	objs := []types.ObjectID{byServer[0][0], byServer[1][0], byServer[2][0]}
	v := types.TSValue{TS: 4, Writer: 1, Val: 44}
	var plans atomic.Int32
	done := make(chan result, 2)
	Scatter(context.Background(), fab, 1, Round{
		Plan: func(buf []Target) ([]Target, int) {
			plans.Add(1)
			return append(buf, writeTargets(v, objs...)...), 3
		},
		Reports: func(reps []Report, err error) { done <- result{reps: reps, err: err} },
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if p := fab.Pending(); len(p) == 1 && p[0].Phase == fabric.PhaseApply && p[0].Event.Server == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Pending = %+v, want the round stalled on server 0's held write", fab.Pending())
		}
	}
	armed.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	swapped, err := fab.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{0}}, nil)
	if err != nil {
		t.Fatalf("swap of server 0: %v", err)
	}
	joiner := swapped.Joined[0]
	var res result
	select {
	case res = <-done:
	case <-ctx.Done():
		t.Fatal("round never reported after the replacement")
	}
	if res.err != nil || len(res.reps) != 3 || plans.Load() < 2 {
		t.Fatalf("round across the replacement: %d reports, err %v, %d plans; want 3, none, one plan per attempt", len(res.reps), res.err, plans.Load())
	}
	for _, rep := range res.reps {
		want := types.ServerID(rep.Index)
		if rep.Index == 0 {
			want = joiner
		}
		if rep.Server != want || rep.Object != objs[rep.Index] {
			t.Errorf("report %+v, want object %d on server %d", rep, objs[rep.Index], want)
		}
	}
	select {
	case extra := <-done:
		t.Fatalf("round reported twice: %+v", extra)
	case <-time.After(5 * time.Millisecond):
	}
	var fired atomic.Int32
	if got := awaitRound(t, fab, &fired, fixed(readTargets(objs...), 3)); got != v {
		t.Fatalf("read after the replacement: max %v, want %v", got, v)
	}
}
