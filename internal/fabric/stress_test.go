package fabric

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// TestConcurrentHoldReleaseCrashStress hammers the fabric's most
// race-prone paths concurrently: triggers racing with releases racing with
// a crash. Run with -race. Invariants checked afterwards:
//
//   - every call either completed or is accounted for in Pending
//   - no token is both pending and completed
//   - covered objects all have a genuinely pending write
func TestConcurrentHoldReleaseCrashStress(t *testing.T) {
	const (
		servers    = 4
		objsPer    = 3
		goroutines = 6
		opsEach    = 150
	)
	c, err := cluster.New(servers)
	if err != nil {
		t.Fatal(err)
	}
	var objs []types.ObjectID
	for s := 0; s < servers; s++ {
		for i := 0; i < objsPer; i++ {
			obj, err := c.PlaceRegister(types.ServerID(s), baseobj.WriterRange{})
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
		}
	}
	// Hold roughly a third of all writes, deterministically by token.
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Inv.Op.IsWrite() && ev.Token%3 == 0 {
			return Hold
		}
		return Pass
	}}
	fab := New(c, WithGate(gate))

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		calls []*testOp
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsEach; i++ {
				obj := objs[rng.Intn(len(objs))]
				var call *testOp
				if rng.Intn(2) == 0 {
					call = trigger(fab, types.ClientID(g), obj, baseobj.Invocation{
						Op:  baseobj.OpWrite,
						Arg: types.TSValue{TS: uint64(i + 1), Writer: types.ClientID(g)},
					})
				} else {
					call = trigger(fab, types.ClientID(g), obj, baseobj.Invocation{Op: baseobj.OpRead})
				}
				mu.Lock()
				calls = append(calls, call)
				mu.Unlock()
				if rng.Intn(5) == 0 {
					fab.ReleaseWhere(func(op PendingOp) bool {
						return op.Event.Client == types.ClientID(g)
					})
				}
			}
		}(g)
	}
	// One goroutine crashes a server midway.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fab.Crash(types.ServerID(servers - 1)); err != nil {
			t.Errorf("Crash: %v", err)
		}
	}()
	wg.Wait()

	// Drain: release everything still held.
	fab.ReleaseWhere(func(PendingOp) bool { return true })

	pendingTokens := make(map[uint64]Phase)
	for _, op := range fab.Pending() {
		pendingTokens[op.Event.Token] = op.Phase
	}
	completed := 0
	for _, call := range calls {
		_, done := call.Outcome()
		phase, pending := pendingTokens[call.Token()]
		switch {
		case done && pending:
			t.Fatalf("token %d both completed and pending (%v)", call.Token(), phase)
		case done:
			completed++
		case !pending:
			t.Fatalf("token %d neither completed nor pending", call.Token())
		case phase != PhaseDropped:
			t.Fatalf("token %d still held (%v) after global release", call.Token(), phase)
		}
	}
	if completed == 0 {
		t.Fatal("no call completed")
	}
	// Every covered object must map to a pending write.
	for _, obj := range fab.CoveredObjects() {
		found := false
		for _, op := range fab.Pending() {
			if op.Event.Object == obj && op.Event.Inv.Op.IsWrite() {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("object %d covered without a pending write", obj)
		}
	}
}
