package fabric

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// TestReplaceTransfersState pins the full freeze → drain → transfer →
// activate sequence on the in-process lane: the written value survives the
// move, routes re-resolve to the joiner, a moved register keeps its writer
// range, the view drops the departed server, and a departure is not a
// crash.
func TestReplaceTransfersState(t *testing.T) {
	fab, objs := testEnv(t, nil)
	c := fab.Cluster()
	restricted, err := c.PlaceRegister(0, baseobj.WriterRange{Lo: 0, Hi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o := mustOutcome(t, trigger(fab, 0, objs[0], writeInv(5, 42))); o.Err != nil {
		t.Fatalf("write: %v", o.Err)
	}
	epochBefore := c.Epoch()

	newID, err := swap(context.Background(), fab, 0)
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if newID != 3 {
		t.Fatalf("joiner ID = %d, want 3 (IDs are never reused)", newID)
	}
	view := c.View()
	if view.N() != 3 {
		t.Fatalf("view N = %d, want 3", view.N())
	}
	for _, m := range view.Members {
		if m == 0 {
			t.Fatal("departed server 0 still in the view")
		}
	}
	if c.Epoch() <= epochBefore {
		t.Fatalf("epoch did not advance across the swap (%d -> %d)", epochBefore, c.Epoch())
	}
	if s, err := c.Delta(objs[0]); err != nil || s != newID {
		t.Fatalf("Delta(%d) = %d, %v; want %d", objs[0], s, err, newID)
	}
	if o := mustOutcome(t, trigger(fab, 1, objs[0], readInv())); o.Err != nil || o.Resp.Val.Val != 42 {
		t.Fatalf("read after transfer = %+v, want val 42", o)
	}
	if s, err := c.Delta(restricted); err != nil || s != newID {
		t.Fatalf("Delta(%d) = %d, %v; want %d", restricted, s, err, newID)
	}
	if o := mustOutcome(t, trigger(fab, 1, restricted, writeInv(1, 7))); !errors.Is(o.Err, baseobj.ErrUnauthorizedWriter) {
		t.Fatalf("foreign write on the moved register err = %v, want ErrUnauthorizedWriter", o.Err)
	}
	if o := mustOutcome(t, trigger(fab, 0, restricted, writeInv(1, 7))); o.Err != nil {
		t.Fatalf("writer 0 on the moved register: %v", o.Err)
	}
	// Writes keep flowing to the migrated object through the old object ID.
	if o := mustOutcome(t, trigger(fab, 0, objs[0], writeInv(6, 43))); o.Err != nil {
		t.Fatalf("write after transfer: %v", o.Err)
	}
	if o := mustOutcome(t, trigger(fab, 1, objs[0], readInv())); o.Err != nil || o.Resp.Val.Val != 43 {
		t.Fatalf("read after post-transfer write = %+v, want val 43", o)
	}
	if c.Crashes() != 0 {
		t.Fatalf("Crashes = %d after a clean leave, want 0", c.Crashes())
	}
	old, err := c.Server(0)
	if err != nil {
		t.Fatalf("Server(0): %v", err)
	}
	if !old.Departing() || old.NumObjects() != 0 {
		t.Fatalf("departed server: departing=%v objects=%d, want true/0", old.Departing(), old.NumObjects())
	}
}

// TestReplaceDrainsParkedOps pins the phase divergence of the coordinator
// drain: a gate-parked PhaseApply op never applied, so it must complete
// with a retryable view-change error; a PhaseRespond op already linearized,
// so it must complete with its real response.
func TestReplaceDrainsParkedOps(t *testing.T) {
	gate := GateFuncs{
		Apply: func(ev TriggerEvent) Decision {
			if ev.Inv.Op == baseobj.OpWrite && ev.Inv.Arg.Val == 10 {
				return Hold
			}
			return Pass
		},
		Respond: func(ev TriggerEvent, _ baseobj.Response) Decision {
			if ev.Inv.Op == baseobj.OpWrite && ev.Inv.Arg.Val == 11 {
				return Hold
			}
			return Pass
		},
	}
	fab, objs := testEnv(t, gate)
	applyHeld := trigger(fab, 0, objs[0], writeInv(1, 10))
	respondHeld := trigger(fab, 1, objs[0], writeInv(2, 11))
	if _, done := applyHeld.Outcome(); done {
		t.Fatal("apply-held op completed before the drain")
	}

	newID, err := swap(context.Background(), fab, 0)
	if err != nil {
		t.Fatalf("swap: %v", err)
	}

	o := applyHeld.wait(t)
	if !IsViewChange(o.Err) {
		t.Fatalf("apply-held op completed with %v, want a view-change error", o.Err)
	}
	o = respondHeld.wait(t)
	if o.Err != nil {
		t.Fatalf("respond-held op completed with %v, want its real response", o.Err)
	}
	// The respond-held write linearized before the freeze, so its effect is
	// part of the transferred state on the joiner.
	if r := mustOutcome(t, trigger(fab, 2, objs[0], readInv())); r.Err != nil || r.Resp.Val.Val != 11 {
		t.Fatalf("read after drain = %+v, want val 11 (respond-held write transferred)", r)
	}
	if s, _ := fab.Cluster().Delta(objs[0]); s != newID {
		t.Fatalf("object on server %d, want joiner %d", s, newID)
	}
}

// TestReplaceRefusals: a crashed server's state is lost (no replacement),
// and a server cannot depart twice.
func TestReplaceRefusals(t *testing.T) {
	fab, _ := testEnv(t, nil)
	ctx := context.Background()
	if err := fab.Crash(1); err != nil {
		t.Fatal(err)
	}
	if _, err := swap(ctx, fab, 1); err == nil {
		t.Fatal("swap of a crashed server succeeded")
	}
	srv, err := fab.Cluster().Server(2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Depart()
	if _, err := swap(ctx, fab, 2); err == nil {
		t.Fatal("swap of an already-departing server succeeded")
	}
	if _, err := swap(ctx, fab, 99); err == nil {
		t.Fatal("swap of an unknown server succeeded")
	}
}

// TestTriggerOnDepartingServerRetries: an op routed to a departing server
// completes with a retryable view-change error before touching the wire —
// the freeze window every transparent retry loop is built around.
func TestTriggerOnDepartingServerRetries(t *testing.T) {
	fab, objs := testEnv(t, nil)
	srv, err := fab.Cluster().Server(0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Depart()
	// Done hears the error inline and exactly once: the op neither pends nor
	// reaches a lane.
	var got []Outcome
	fab.TriggerBatch(0, &Group{
		Ops:  []BatchOp{{Object: objs[0], Inv: writeInv(1, 7)}},
		Done: func(_ int, o *Outcome) { got = append(got, *o) },
	})
	if len(got) != 1 || !IsViewChange(got[0].Err) {
		t.Fatalf("trigger on departing server = %+v, want exactly one view-change error", got)
	}
	// The guarantee behind exactly-once retries: the op never applied.
	obj, err := fab.Cluster().Object(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := obj.PeekState().Val; v.Val != types.InitialValue {
		t.Fatalf("rejected write applied anyway: %+v", v)
	}
}

// TestReplaceUnderLatencyLaneLoad replaces every original server of a
// latency-lane fabric while seeded concurrent clients keep writing and
// reading through retryView. Zero operations may fail: ops caught in freeze
// windows must retry transparently into the new view.
func TestReplaceUnderLatencyLaneLoad(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, 3)
	for s := 0; s < 3; s++ {
		if objs[s], err = c.PlaceMaxRegister(types.ServerID(s)); err != nil {
			t.Fatal(err)
		}
	}
	profile := LatencyProfile{Jitter: 50 * time.Microsecond}
	fab := New(c, WithLanes(LatencyLanes(7, profile)))
	defer fab.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
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

	for _, old := range c.View().Members {
		if _, err := swap(ctx, fab, old); err != nil {
			t.Fatalf("swap(%d): %v", old, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("client op failed during reconfiguration: %v", err)
	default:
	}
	view := c.View()
	if view.N() != 3 {
		t.Fatalf("view N = %d, want 3", view.N())
	}
	for _, m := range view.Members {
		if m < 3 {
			t.Fatalf("original server %d still in the view %v", m, view.Members)
		}
	}
}

// swap is the one-for-one Resize: a fresh joiner on the default lane takes
// over every object of old. It returns the joiner's ID.
func swap(ctx context.Context, fab *Fabric, old types.ServerID) (types.ServerID, error) {
	res, err := fab.Resize(ctx, ResizeSpec{Join: []LaneMaker{nil}, Leave: []types.ServerID{old}}, nil)
	if err != nil {
		return 0, err
	}
	return res.Joined[0], nil
}

// retryView runs attempt until it stops failing with a view-change error,
// parking on the view stamp between tries like rounds.Retry does: the
// test-local blocking retry loop for single low-level ops.
func retryView(ctx context.Context, fab *Fabric, attempt func() (types.TSValue, error)) (types.TSValue, error) {
	for {
		seen := fab.ViewStamp()
		v, err := attempt()
		if !IsViewChange(err) {
			return v, err
		}
		woke := make(chan error, 1)
		fab.AwaitView(ctx, seen, func() { woke <- nil }, func(err error) { woke <- err })
		if err := <-woke; err != nil {
			return v, err
		}
	}
}
