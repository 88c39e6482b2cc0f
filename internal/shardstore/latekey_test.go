package shardstore

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/types"
)

// lateKey first-touches key on shard 0 after a transition, writes and reads
// it back under a 5 s deadline, and requires what a key materialized before
// the transition gets: the value, no op left parked on the view stamp, and
// every base object of the key on a member of the current view. A register
// planned over servers that have left would park its first write forever.
func lateKey(ctx context.Context, t *testing.T, st *Store, key uint64, after string) {
	t.Helper()
	env := st.Env(0)
	before := env.Cluster.AllObjects()
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v := types.Value(int64(key)*1000 + 1)
	werr := make(chan error, 1)
	st.StartWrite(key, 0, v, func(err error) { werr <- err })
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("key %d first-touched after %s: write: %v", key, after, err)
		}
	case <-ctx.Done():
		t.Fatalf("key %d first-touched after %s: its write never completed (%d ops parked on the view stamp, view %+v)",
			key, after, env.Fabric.ViewWaiters(), env.Cluster.View())
	}
	type read struct {
		v   types.Value
		err error
	}
	rc := make(chan read, 1)
	st.StartRead(key, 0, func(v types.Value, err error) { rc <- read{v, err} })
	select {
	case r := <-rc:
		if r.err != nil || r.v != v {
			t.Fatalf("key %d first-touched after %s reads %d, %v; want %d", key, after, r.v, r.err, v)
		}
	case <-ctx.Done():
		t.Fatalf("key %d first-touched after %s: its read never completed", key, after)
	}
	if n := env.Fabric.ViewWaiters(); n != 0 {
		t.Fatalf("after %s: %d ops parked on the view stamp with no transition running", after, n)
	}
	members := env.Cluster.View().Members
	placed := 0
	for _, obj := range env.Cluster.AllObjects() {
		if len(before) > 0 && obj <= before[len(before)-1] {
			continue
		}
		placed++
		if host, err := env.Cluster.Delta(obj); err != nil || !slices.Contains(members, host) {
			t.Fatalf("after %s: object %d of key %d is on server %d (%v), not a member of %v", after, obj, key, host, err, members)
		}
	}
	if placed == 0 {
		t.Fatalf("key %d placed no base object", key)
	}
}

// lateKeyStore opens a one-shard store of the kind on the lane and
// materializes key 0 before any transition.
func lateKeyStore(ctx context.Context, t *testing.T, kind runner.Kind, lane runner.Lane) *Store {
	t.Helper()
	st, err := Open(ctx, Config{Keys: 8, Kind: kind, Lane: lane, WritersPerKey: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	lateKey(ctx, t, st, 0, "Open")
	return st
}

// lateKeyCheck drains the store and requires clean histories on all keys.
func lateKeyCheck(ctx context.Context, t *testing.T, st *Store, keys int) {
	t.Helper()
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(2, 43); len(rep.Violations) > 0 || rep.Keys != keys {
		t.Fatalf("checked %d keys (want %d), violations: %v", rep.Keys, keys, rep.Violations)
	}
}

// TestLateKeyAfterTransitionReconfigure: on every construction and both
// local lanes, a key first touched after every member of its shard was
// replaced lands on the joiners. (Algorithm 2 used to plan such a key over
// the ID space, departed servers included, and hang its first write.)
func TestLateKeyAfterTransitionReconfigure(t *testing.T) {
	for _, kind := range runner.Kinds() {
		for _, lane := range []runner.Lane{runner.LaneInProc, runner.LaneLatency} {
			t.Run(fmt.Sprintf("%s/%s", kind, lane), func(t *testing.T) {
				ctx := testCtx(t)
				st := lateKeyStore(ctx, t, kind, lane)
				n := st.Env(0).Cluster.View().N()
				if err := st.Reconfigure(ctx, 0); err != nil {
					t.Fatal(err)
				}
				assertFreshView(t, st, 0, n)
				lateKey(ctx, t, st, 1, "Reconfigure")
				lateKeyCheck(ctx, t, st, 2)
			})
		}
	}
}

// TestLateKeyAfterTransitionResize: on every construction and both local
// lanes, a key first touched after a grow to f=2, and another after the
// shrink back to f=1, is built on the view's members with the view's budget.
func TestLateKeyAfterTransitionResize(t *testing.T) {
	for _, kind := range runner.Kinds() {
		for _, lane := range []runner.Lane{runner.LaneInProc, runner.LaneLatency} {
			t.Run(fmt.Sprintf("%s/%s", kind, lane), func(t *testing.T) {
				ctx := testCtx(t)
				st := lateKeyStore(ctx, t, kind, lane)
				for i, spec := range []ResizeSpec{{Grow: 2, F: 2}, {Shrink: 2, F: 1}} {
					if _, err := st.Resize(ctx, 0, spec); err != nil {
						t.Fatalf("Resize%+v: %v", spec, err)
					}
					key := uint64(1 + i)
					lateKey(ctx, t, st, key, fmt.Sprintf("Resize%+v", spec))
					kr := st.lookup(key)
					if kr == nil {
						t.Fatalf("key %d is not in the key table after its first touch", key)
					}
					if got := kr.reg.F(); got != spec.F {
						t.Fatalf("key %d built after Resize%+v tolerates f=%d, want the view's %d", key, spec, got, spec.F)
					}
				}
				lateKeyCheck(ctx, t, st, 3)
			})
		}
	}
}
