package fabric

import (
	"sync"
	"testing"

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

	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = fab.Trigger(types.ClientID(i), objs[0], readInv())
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
