package async_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/emulation/async"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/types"
)

// TestShutdownNeverRecyclesAFailedOp pins the one case in which a completed
// op must not return to the pool: the shutdown sweep fired its callback, but
// its chain is still out and may complete later. The first engine is closed
// with every write held at the gate; a second engine then starts as many
// writes — taking whatever the pool holds — which are held too; then only the
// first engine's low-level operations are released. Their late completions
// must find their own dead ops and be dropped at the closed mailbox: had the
// sweep recycled those ops, they would now be the second engine's, and its
// writes would complete with every one of their own operations still held.
func TestShutdownNeverRecyclesAFailedOp(t *testing.T) {
	const n = 64 // writers 0..n-1 ride the first engine, n..2n-1 the second, 2n is the barrier
	// Everything is held until released is set; from then on everything
	// passes. The barrier write's collect may reach the fabric only after
	// the final release loop found nothing pending, and it must not be held
	// forever then.
	var released atomic.Bool
	gate := fabric.GateFuncs{Apply: func(fabric.TriggerEvent) fabric.Decision {
		if released.Load() {
			return fabric.Pass
		}
		return fabric.Hold
	}}
	env, err := runner.NewEnv(3, gate)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Fabric.Close()
	reg, _, err := runner.BuildWith(runner.KindABDMax, env.Fabric, 2*n+1, 1, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	start := func(eng *async.Engine, first int, done func(i int, err error)) {
		for i := first; i < first+n; i++ {
			c, err := eng.WriterOn(reg, i)
			if err != nil {
				t.Fatal(err)
			}
			c.StartWrite(types.Value(i+1), func(err error) { done(i, err) })
		}
	}

	var fired [2 * n]atomic.Int32
	dead := async.NewDetached()
	start(dead, 0, func(i int, err error) {
		if !errors.Is(err, async.ErrClosed) {
			t.Errorf("write %d of the closed engine completed with %v, want ErrClosed", i, err)
		}
		fired[i].Add(1)
	})
	waitStarted(t, dead, n)
	dead.Close()

	live := async.NewDetached()
	defer live.Close()
	start(live, n, func(i int, err error) {
		if !released.Load() {
			t.Errorf("write %d of the second engine completed with all its operations held: it rode a dead op of the first", i)
		}
		if err != nil {
			t.Errorf("write %d of the second engine: %v", i, err)
		}
		fired[i].Add(1)
	})
	waitStarted(t, live, n)

	env.Fabric.ReleaseWhere(func(op fabric.PendingOp) bool { return op.Event.Client < n })
	// The late completions ran inline, in ReleaseWhere; a misdelivered one
	// sits in the second engine's mailbox. The mailbox is handled in order,
	// so once one more write has started behind it, it has been handled.
	barrier, err := live.WriterOn(reg, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	barrier.StartWrite(2*n+1, func(err error) {
		if err != nil {
			t.Errorf("barrier write: %v", err)
		}
	})
	waitStarted(t, live, n+1)
	if st := live.Stats(); st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("second engine after the first engine's late completions: %+v, want nothing completed", st)
	}
	released.Store(true)
	for len(env.Fabric.Pending()) > 0 {
		env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
	}
	drain(t, live)
	for i := range fired {
		if got := fired[i].Load(); got != 1 {
			t.Errorf("write %d completed %d times, want once", i, got)
		}
	}
}

// waitStarted waits until the engine's loop has started n operations.
func waitStarted(t *testing.T, eng *async.Engine, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); eng.Stats().Started != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("engine started %d operations, want %d", eng.Stats().Started, n)
		}
	}
}
