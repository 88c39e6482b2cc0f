package shardstore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/types"
)

// TestHitPathTakesNoShardLock pins the frontend's two paths against a Resize
// held open inside its frozen window, where the coordinator owns the shard
// lock: an op on a materialized key and client slot takes no lock — it
// returns at once (it would deadlock this goroutine otherwise), parks on the
// view stamp with every member frozen, and completes when the transition
// ends — while the first touch of a new key waits for the lock, so no
// register materializes inside the transition.
func TestHitPathTakesNoShardLock(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Keys: 8, Kind: runner.KindABDMax, Atomic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	errc := make(chan error, 1)
	st.StartWrite(0, 0, 1, func(err error) { errc <- err })
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	sh := st.shards[0]
	frozen, release := make(chan struct{}), make(chan struct{})
	sh.env.Fabric.HookTransition(func() { close(frozen); <-release }, nil)
	resized := make(chan error, 1)
	go func() {
		_, err := st.Resize(ctx, 0, ResizeSpec{Grow: 1})
		resized <- err
	}()
	<-frozen
	if sh.mu.TryLock() {
		t.Fatal("Resize does not hold the shard lock across its transition")
	}

	hit, miss, missReturned := make(chan error, 1), make(chan error, 1), make(chan struct{})
	st.StartWrite(0, 0, 2, func(err error) { hit <- err })
	go func() {
		st.StartWrite(1, 0, 3, func(err error) { miss <- err })
		close(missReturned)
	}()
	for deadline := time.Now().Add(10 * time.Second); sh.env.Fabric.ViewWaiters() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the write on the materialized key never parked on the view stamp")
		}
	}
	select {
	case err := <-hit:
		t.Fatalf("the write on the materialized key completed inside the frozen window: %v", err)
	case <-missReturned:
		t.Fatal("the first touch of a new key did not wait for the shard lock")
	default:
	}
	if st.lookup(1) != nil {
		t.Fatal("a register materialized inside the transition")
	}

	close(release)
	for what, c := range map[string]chan error{"resize": resized, "write on the materialized key": hit, "first touch": miss} {
		if err := <-c; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	st.StartRead(1, 0, func(v types.Value, err error) {
		if v != 3 {
			err = fmt.Errorf("read %d, %v; want 3", v, err)
		}
		errc <- err
	})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
