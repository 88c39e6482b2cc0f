package fabric

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// parkingLane is an asynchronous backend under the test's control: it keeps
// every hand-off and completes nothing on its own.
type parkingLane struct {
	mu  sync.Mutex
	ops []LaneOp
}

func (p *parkingLane) Deliver(ev TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	p.mu.Lock()
	p.ops = append(p.ops, LaneOp{Ev: ev, Apply: apply, Complete: complete})
	p.mu.Unlock()
}

func (p *parkingLane) Close() error { return nil }

// TestInflightCompletionsRaceCrashDrain races N backend completions against
// the crash drain of their lane. Completion and drain compete for one
// unlink-if-linked claim per op, so every op must end in exactly one of
// {completed, dropped} and the in-flight index must empty.
func TestInflightCompletionsRaceCrashDrain(t *testing.T) {
	const n = 256
	parked := &parkingLane{}
	fab, objs := laneEnv(t, func(types.ServerID) Lane { return parked }, nil)

	calls := make([]*testOp, n)
	for i := range calls {
		calls[i] = trigger(fab, types.ClientID(i), objs[0], readInv())
	}
	l := fab.laneFor(0)
	if got := l.inflightCount(); got != n {
		t.Fatalf("inflightCount before the race = %d, want %d", got, n)
	}
	if got := fab.Pending(); len(got) != n || got[0].Phase != PhaseInFlight || got[0].Event.Token != calls[0].Token() {
		t.Fatalf("Pending before the race reports %d ops, want %d in-flight in token order", len(got), n)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, op := range parked.ops {
		wg.Add(1)
		go func(op LaneOp) {
			defer wg.Done()
			<-start
			op.Complete(op.Apply())
		}(op)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := fab.Crash(0); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()

	dropped := make(map[uint64]bool)
	for _, p := range fab.Pending() {
		if p.Phase != PhaseDropped {
			t.Fatalf("op %d left in phase %v after the crash", p.Event.Token, p.Phase)
		}
		dropped[p.Event.Token] = true
	}
	completed := 0
	for _, call := range calls {
		_, done := call.Outcome()
		if done == dropped[call.Token()] {
			t.Fatalf("op %d: completed=%v dropped=%v, want exactly one", call.Token(), done, dropped[call.Token()])
		}
		if done {
			completed++
		}
	}
	if got := l.inflightCount(); got != 0 {
		t.Fatalf("inflightCount after the race = %d, want 0", got)
	}
	if l.inflight.next != &l.inflight || l.inflight.prev != &l.inflight {
		t.Fatal("in-flight list not empty after the race")
	}
	t.Logf("%d completed, %d dropped", completed, len(dropped))
}

// TestDrainEndsOnTheLaneIdleSignal pins the three exits of the coordinator's
// quiesce wait, none of which is a poll: the last in-flight op of the frozen
// lane completing (the transition commits, both ops applied in the old view),
// the leaver crashing (its in-flight op is dropped, the transition aborts),
// and the transition's context ending (abort, the lane back in service).
func TestDrainEndsOnTheLaneIdleSignal(t *testing.T) {
	// held opens a swap of server 0 with n reads in flight on it and
	// returns once every departing lane froze.
	held := func(t *testing.T, ctx context.Context, n int) (*Fabric, *parkingLane, []*testOp, <-chan error) {
		parked := &parkingLane{}
		fab, objs := laneEnv(t, func(types.ServerID) Lane { return parked }, nil)
		ops := make([]*testOp, n)
		for i := range ops {
			ops[i] = trigger(fab, types.ClientID(i), objs[0], readInv())
		}
		frozen := make(chan struct{})
		fab.HookTransition(func() { close(frozen) }, nil)
		replaced := make(chan error, 1)
		go func() {
			_, err := swap(ctx, fab, 0)
			replaced <- err
		}()
		<-frozen
		return fab, parked, ops, replaced
	}

	t.Run("last completion", func(t *testing.T) {
		fab, parked, ops, replaced := held(t, context.Background(), 2)
		parked.ops[0].Complete(parked.ops[0].Apply())
		select {
		case err := <-replaced:
			t.Fatalf("the swap returned (%v) with an op still on the wire", err)
		default:
		}
		parked.ops[1].Complete(parked.ops[1].Apply())
		if err := <-replaced; err != nil {
			t.Fatalf("swap: %v", err)
		}
		for _, op := range ops {
			if o := op.wait(t); o.Err != nil {
				t.Fatalf("op %d admitted before the freeze completed with %v, want its response", op.Token(), o.Err)
			}
		}
		if got := fab.ViewStamp(); got != 1 {
			t.Fatalf("view stamp = %d after one committed transition, want 1", got)
		}
	})
	t.Run("crash", func(t *testing.T) {
		fab, _, _, replaced := held(t, context.Background(), 1)
		if err := fab.Crash(0); err != nil {
			t.Fatal(err)
		}
		if err := <-replaced; !IsResizeAborted(err) {
			t.Fatalf("a swap with the leaver crashed mid-drain returned %v, want ErrResizeAborted", err)
		}
		if got := fab.Pending(); len(got) != 1 || got[0].Phase != PhaseDropped {
			t.Fatalf("pending after the crash = %+v, want the in-flight op dropped", got)
		}
		if got := fab.ViewStamp(); got != 1 {
			t.Fatalf("view stamp = %d after one aborted transition, want 1", got)
		}
	})
	t.Run("context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		fab, _, _, replaced := held(t, ctx, 1)
		cancel()
		if err := <-replaced; !IsResizeAborted(err) || !errors.Is(err, context.Canceled) {
			t.Fatalf("a swap cancelled mid-drain returned %v, want ErrResizeAborted wrapping the context's error", err)
		}
		srv, err := fab.Cluster().Server(0)
		if err != nil {
			t.Fatal(err)
		}
		if srv.Departing() || fab.ViewStamp() != 1 {
			t.Fatalf("after the abort: departing=%v stamp=%d, want the lane back in service and the stamp advanced", srv.Departing(), fab.ViewStamp())
		}
	})
}

// TestLanePendingSeesAnOpWhileItsGateDecides blocks the gate inside its
// decision on a gated op — the respond gate on the lane's goroutine (on the
// in-process lane, the triggering one), the apply gate inside the trigger —
// and requires Pending to list the op at that moment and at every moment
// after: in flight while the gate decides, then parked in the phase the gate
// held it in, with no stretch in neither list (a poller that saw
// Pending() == 0 there would take a still-owed op for done). A crash drain
// that claims the op while the gate decides wins: the Hold verdict is
// discarded and the op is dropped, once. Both lanes keep one record per op
// from trigger to completion, so both run it; the latency lane's subtests
// keep the names they had when it ran alone.
func TestLanePendingSeesAnOpWhileItsGateDecides(t *testing.T) {
	pendingWhileGateDecides(t, "", LatencyLanes(1, LatencyProfile{Base: 10 * time.Microsecond}))
	pendingWhileGateDecides(t, "inproc/", func(types.ServerID) Lane { return InProcLane{} })
}

func pendingWhileGateDecides(t *testing.T, prefix string, maker LaneMaker) {
	for _, phase := range []Phase{PhaseRespond, PhaseApply} {
		// blocked runs one write up to the gate's decision and returns with
		// the gate blocked inside it.
		blocked := func(t *testing.T) (fab *Fabric, obj types.ObjectID, verdict chan<- Decision, op func() *testOp) {
			entered, decide := make(chan struct{}), make(chan Decision)
			ask := func() Decision { entered <- struct{}{}; return <-decide }
			var gate GateFuncs
			if phase == PhaseApply {
				gate.Apply = func(TriggerEvent) Decision { return ask() }
			} else {
				gate.Respond = func(TriggerEvent, baseobj.Response) Decision { return ask() }
			}
			fab, objs := laneEnv(t, maker, gate)
			triggered := make(chan *testOp, 1)
			go func() { triggered <- trigger(fab, 0, objs[0], writeInv(1, 7)) }()
			<-entered
			if got := fab.Pending(); len(got) != 1 || got[0].Phase != PhaseInFlight || got[0].Event.Object != objs[0] {
				t.Fatalf("Pending while the %v gate decides = %+v, want the op listed in flight", phase, got)
			}
			if got := fab.CoveredObjects(); len(got) != 1 || got[0] != objs[0] {
				t.Fatalf("CoveredObjects while the %v gate decides = %v, want [%d]", phase, got, objs[0])
			}
			return fab, objs[0], decide, func() *testOp { return <-triggered }
		}

		t.Run(prefix+phase.String()+"/held", func(t *testing.T) {
			fab, _, verdict, triggered := blocked(t)
			verdict <- Hold
			for {
				got := fab.Pending()
				if len(got) != 1 {
					t.Fatalf("Pending after the Hold verdict = %+v, want the op in one list at every moment", got)
				}
				if got[0].Phase == phase {
					break
				}
				if got[0].Phase != PhaseInFlight {
					t.Fatalf("op passed through phase %v on its way to %v", got[0].Phase, phase)
				}
				runtime.Gosched()
			}
			op := triggered()
			if err := fab.Release(op.Token()); err != nil {
				t.Fatal(err)
			}
			if o := op.wait(t); o.Err != nil {
				t.Fatalf("released op completed with %v", o.Err)
			}
			if got := fab.Pending(); len(got) != 0 {
				t.Fatalf("Pending after the release = %+v, want none", got)
			}
		})
		t.Run(prefix+phase.String()+"/crash drain wins", func(t *testing.T) {
			fab, _, verdict, triggered := blocked(t)
			if err := fab.Crash(0); err != nil {
				t.Fatal(err)
			}
			verdict <- Hold
			op := triggered()
			// The lane goroutine discards the verdict some time after taking
			// it; whenever that is, the op stays listed exactly once, dropped.
			for i := 0; i < 100; i++ {
				if got := fab.Pending(); len(got) != 1 || got[0].Phase != PhaseDropped || got[0].Event.Token != op.Token() {
					t.Fatalf("Pending after the crash = %+v, want the op dropped once", got)
				}
				runtime.Gosched()
			}
			if err := fab.Release(op.Token()); !errors.Is(err, ErrNotHeld) {
				t.Fatalf("Release of an op the crash drain took: %v, want ErrNotHeld", err)
			}
			if _, done := op.Outcome(); done {
				t.Fatal("an op dropped with its server completed")
			}
		})
	}
}
