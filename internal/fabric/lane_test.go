package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// laneEnv builds a 3-server cluster with one register per server and a
// fabric using the given lane maker.
func laneEnv(t *testing.T, maker LaneMaker, gate Gate) (*Fabric, []types.ObjectID) {
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
	opts := []Option{WithLanes(maker)}
	if gate != nil {
		opts = append(opts, WithGate(gate))
	}
	fab := New(c, opts...)
	t.Cleanup(func() { fab.Close() })
	return fab, objs
}

var testProfile = LatencyProfile{
	Base:      10 * time.Microsecond,
	Jitter:    200 * time.Microsecond,
	SpikeProb: 0.2,
	Spike:     500 * time.Microsecond,
}

// TestLatencyLaneDeliversAsynchronously: ops on a latency lane complete
// with full read-your-write semantics, just later.
func TestLatencyLaneDeliversAsynchronously(t *testing.T) {
	fab, objs := laneEnv(t, LatencyLanes(1, testProfile), nil)
	if o := waitOutcome(t, fab, 0, objs[0], writeInv(1, 10)); o.Err != nil {
		t.Fatalf("write: %v", o.Err)
	}
	if o := waitOutcome(t, fab, 1, objs[0], readInv()); o.Err != nil || o.Resp.Val.Val != 10 {
		t.Fatalf("read = %+v, want val 10", o)
	}
}

// TestLatencyLaneInFlightPending: between trigger and delivery the op is
// visible as a pending in-flight op, and a pending in-flight write covers
// its register — the paper's accounting must not lose ops on the wire.
func TestLatencyLaneInFlightPending(t *testing.T) {
	slow := LatencyProfile{Base: 200 * time.Millisecond}
	fab, objs := laneEnv(t, LatencyLanes(1, slow), nil)
	call := trigger(fab, 0, objs[0], writeInv(1, 10))
	pending := fab.Pending()
	if len(pending) != 1 || pending[0].Phase != PhaseInFlight {
		t.Fatalf("Pending = %+v, want one in-flight op", pending)
	}
	if covered := fab.CoveredObjects(); len(covered) != 1 || covered[0] != objs[0] {
		t.Fatalf("CoveredObjects = %v, want [%d]", covered, objs[0])
	}
	if o := call.wait(t); o.Err != nil {
		t.Fatal(o.Err)
	}
	if pending := fab.Pending(); len(pending) != 0 {
		t.Fatalf("Pending after completion = %+v, want none", pending)
	}
}

// TestLatencyLaneCrashDropsInFlight: a crash while ops are on the wire
// must drop them — the late timer delivery must neither complete the call
// nor mutate the crashed server's object.
func TestLatencyLaneCrashDropsInFlight(t *testing.T) {
	slow := LatencyProfile{Base: 50 * time.Millisecond}
	fab, objs := laneEnv(t, LatencyLanes(1, slow), nil)
	call := trigger(fab, 0, objs[0], writeInv(1, 10))
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	var dropped int
	for _, p := range fab.Pending() {
		if p.Phase == PhaseDropped {
			dropped++
		}
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	// Wait past the delivery delay: the op must stay incomplete and the
	// object unmutated.
	time.Sleep(120 * time.Millisecond)
	if _, ok := call.Outcome(); ok {
		t.Fatal("in-flight op on crashed server completed")
	}
	obj, err := fab.Cluster().Object(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.PeekState().Val; got != types.ZeroTSValue {
		t.Fatalf("crashed server state mutated by late delivery: %v", got)
	}
}

// TestLatencyLaneComposesWithGate: holds and releases work unchanged on an
// asynchronous backend — a released apply-held op re-enters the lane and
// completes after its delivery delay.
func TestLatencyLaneComposesWithGate(t *testing.T) {
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Inv.Op.IsWrite() {
			return Hold
		}
		return Pass
	}}
	fab, objs := laneEnv(t, LatencyLanes(7, testProfile), gate)
	held := trigger(fab, 0, objs[0], writeInv(1, 10))
	if _, ok := held.Outcome(); ok {
		t.Fatal("held write completed")
	}
	if pending := fab.Pending(); len(pending) != 1 || pending[0].Phase != PhaseApply {
		t.Fatalf("Pending = %+v, want one held-apply op", pending)
	}
	if err := fab.Release(held.Token()); err != nil {
		t.Fatal(err)
	}
	if o := held.wait(t); o.Err != nil {
		t.Fatalf("released write: %v", o.Err)
	}
	if o := waitOutcome(t, fab, 1, objs[0], readInv()); o.Resp.Val.Val != 10 {
		t.Fatalf("read = %v, want 10", o.Resp.Val)
	}
}

// TestLatencyLaneSeededReplay: the same lane seed must produce the same
// delay schedule — experiments replay from one number.
func TestLatencyLaneSeededReplay(t *testing.T) {
	sample := func() []time.Duration {
		l := NewLatencyLane(99, testProfile)
		ds := make([]time.Duration, 32)
		for i := range ds {
			ds[i] = l.delay()
		}
		return ds
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	for i := range a {
		if a[i] < testProfile.Base {
			t.Fatalf("delay %d = %v below base %v", i, a[i], testProfile.Base)
		}
	}
}

// TestLatencyLaneParallelClients hammers a latency fabric from concurrent
// clients (run under -race in CI): completions run on the lanes' loops
// while other clients trigger, read, and — on one server hosting three
// registers — take snapshot scans: nothing deadlocks, nothing is dropped.
func TestLatencyLaneParallelClients(t *testing.T) {
	for _, tc := range []struct {
		name         string
		env          func(*testing.T, LaneMaker) (*Fabric, []types.ObjectID)
		clients, ops int
		scans        bool // every third op a snapshot scan of all registers
	}{
		{"writes-reads", func(t *testing.T, m LaneMaker) (*Fabric, []types.ObjectID) { return laneEnv(t, m, nil) }, 8, 50, false},
		{"writes-reads-scans", func(t *testing.T, m LaneMaker) (*Fabric, []types.ObjectID) { return scanEnv(t, 3, m) }, 6, 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := LatencyProfile{Jitter: 50 * time.Microsecond}
			fab, objs := tc.env(t, LatencyLanes(3, fast))
			kinds := 2
			if tc.scans {
				kinds = 3
			}
			var wg sync.WaitGroup
			var triggered atomic.Uint64
			for cl := 0; cl < tc.clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					client := types.ClientID(cl)
					for i := 0; i < tc.ops; i++ {
						var o Outcome
						switch i % kinds {
						case 0:
							o = waitOutcome(t, fab, client, objs[(cl+i)%len(objs)], writeInv(uint64(i+1), types.Value(cl*100+i)))
						case 1:
							o = waitOutcome(t, fab, client, objs[(cl+i)%len(objs)], readInv())
						default:
							awaitScan(t, fab, client, objs)
							triggered.Add(uint64(len(objs)))
							continue
						}
						if o.Err != nil {
							t.Errorf("op %d: %v", i, o.Err)
							return
						}
						triggered.Add(1)
					}
				}(cl)
			}
			wg.Wait()
			if got, want := fab.Triggers(), triggered.Load(); got != want {
				t.Fatalf("Triggers = %d, want %d", got, want)
			}
		})
	}
}

// TestLatencyLaneDeliverNeverBlocks parks the event loop on its first
// dequeue and keeps delivering: every Deliver, DeliverGroup and DeliverScan
// must return while the loop cannot drain, and once it is released every op
// completes exactly once.
func TestLatencyLaneDeliverNeverBlocks(t *testing.T) {
	const singles, group = 2048, 4
	lane := NewLatencyLane(1, LatencyProfile{})
	t.Cleanup(func() { lane.Close() })
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	lane.testHook = func() { once.Do(func() { close(parked); <-release }) }

	total := 1 + singles + 2*group
	counts := make([]atomic.Int32, total)
	var left sync.WaitGroup
	left.Add(total)
	op := func(i int) LaneOp {
		return LaneOp{
			Apply:    func() (baseobj.Response, error) { return baseobj.Response{}, nil },
			Complete: func(baseobj.Response, error) { counts[i].Add(1); left.Done() },
		}
	}
	ops := func(from int) []LaneOp {
		g := make([]LaneOp, group)
		for i := range g {
			g[i] = op(from + i)
		}
		return g
	}

	first := op(0)
	lane.Deliver(first.Ev, first.Apply, first.Complete)
	<-parked
	var delivered atomic.Int32
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := 1; i <= singles; i++ {
			o := op(i)
			lane.Deliver(o.Ev, o.Apply, o.Complete)
			delivered.Add(1)
		}
		lane.DeliverGroup(ops(1 + singles))
		delivered.Add(1)
		lane.DeliverScan(ops(1 + singles + group))
		delivered.Add(1)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatalf("delivery %d blocked while the loop was parked", delivered.Load()+2)
	}

	close(release)
	done := make(chan struct{})
	go func() { left.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ops never completed after the loop was released")
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("op %d completed %d times, want once", i, n)
		}
	}
}

// customSyncLane is a minimal third-party backend: synchronous but not the
// in-process type, so it exercises the generic in-flight delivery path.
type customSyncLane struct{ delivered int }

func (c *customSyncLane) Deliver(_ TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	c.delivered++
	complete(apply())
}

func (c *customSyncLane) Close() error { return nil }

// TestCustomLaneBackend: the generic path must behave identically to the
// in-process fast path for a synchronous custom backend.
func TestCustomLaneBackend(t *testing.T) {
	lanes := make(map[types.ServerID]*customSyncLane)
	fab, objs := laneEnv(t, func(s types.ServerID) Lane {
		l := &customSyncLane{}
		lanes[s] = l
		return l
	}, nil)
	if o := mustOutcome(t, trigger(fab, 0, objs[1], writeInv(1, 5))); o.Err != nil {
		t.Fatal(o.Err)
	}
	if o := mustOutcome(t, trigger(fab, 1, objs[1], readInv())); o.Resp.Val.Val != 5 {
		t.Fatalf("read = %v, want 5", o.Resp.Val)
	}
	if lanes[1].delivered != 2 {
		t.Fatalf("lane 1 delivered %d ops, want 2", lanes[1].delivered)
	}
	if lanes[0].delivered+lanes[2].delivered != 0 {
		t.Fatal("ops leaked onto other servers' lanes")
	}
}
