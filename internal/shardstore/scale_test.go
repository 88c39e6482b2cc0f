package shardstore

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/runner"
	"repro/internal/types"
)

// openScaleStore opens the benchmark's inproc-closed shape (2 shards, 2
// engines, atomic abd-max, no history) and materializes n balanced keys.
func openScaleStore(ctx context.Context, t *testing.T, n int) (*Store, []uint64) {
	t.Helper()
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 20,
		Kind: runner.KindABDMax, Atomic: true, Seed: 5, NoHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, st.BalancedKeys(n)
}

// sweepKeys writes and then reads every key once, 64 ops in flight at a
// time, and fails the test on any op error.
func sweepKeys(ctx context.Context, t *testing.T, st *Store, keys []uint64, v types.Value) {
	t.Helper()
	var failed atomic.Pointer[error]
	fail := func(err error) {
		if err != nil {
			failed.CompareAndSwap(nil, &err)
		}
	}
	for _, write := range []bool{true, false} {
		for i, key := range keys {
			if write {
				st.StartWrite(key, 0, v, fail)
			} else {
				st.StartRead(key, 0, func(_ types.Value, err error) { fail(err) })
			}
			if i%64 == 63 || i == len(keys)-1 {
				if err := st.Drain(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := failed.Load(); err != nil {
		t.Fatalf("sweep %d: %v", v, *err)
	}
}

// allocated returns the bytes fn allocated, process-wide (engine loops
// included): TotalAlloc only ever grows, so the delta does not depend on
// when the collector runs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestShardStoreFirstTouchIsLinear is E29's end-to-end half: building and
// first-touching 65,536 keys costs at most 1.5x the bytes per key of 8,192
// keys. When each published route copied the route table the per-key cost
// grew with the key count (8x here); an allocation count shows that without
// a timer.
func TestShardStoreFirstTouchIsLinear(t *testing.T) {
	ctx := testCtx(t)
	perKey := func(n int) float64 {
		var st *Store
		var keys []uint64
		bytes := allocated(func() {
			st, keys = openScaleStore(ctx, t, n)
			sweepKeys(ctx, t, st, keys, 1)
		})
		st.Close()
		return float64(bytes) / float64(len(keys))
	}
	small, big := perKey(8192), perKey(65536)
	t.Logf("first touch: %.0f B/key at 8,192 keys, %.0f B/key at 65,536", small, big)
	if big > 1.5*small {
		t.Fatalf("first touch costs %.0f B/key at 65,536 keys against %.0f B/key at 8,192 (> 1.5x): not linear in keys", big, small)
	}
}

// TestShardStoreSweepAfterReplaceStaysCheap: a one-for-one swap moves
// server 0's objects and bumps the epoch, so the next op on every key
// re-resolves its base objects. That sweep may allocate at most 3x what a
// warm sweep does — one fresh route per object — where a table copy per
// re-resolution made it cost seconds.
func TestShardStoreSweepAfterReplaceStaysCheap(t *testing.T) {
	ctx := testCtx(t)
	st, keys := openScaleStore(ctx, t, 8192)
	sweepKeys(ctx, t, st, keys, 1)
	warm := allocated(func() { sweepKeys(ctx, t, st, keys, 2) })
	for s := 0; s < st.NumShards(); s++ {
		if _, err := st.Resize(ctx, s, ResizeSpec{Grow: 1, Shrink: 1}); err != nil {
			t.Fatalf("shard %d: swap: %v", s, err)
		}
	}
	after := allocated(func() { sweepKeys(ctx, t, st, keys, 3) })
	t.Logf("warm sweep %d B, first sweep after the swap %d B", warm, after)
	if after > 3*warm {
		t.Fatalf("first sweep after a swap allocated %d B against %d B warm (> 3x)", after, warm)
	}
}
