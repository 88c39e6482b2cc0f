package shardstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/types"
)

// assertFreshView fails unless shard s's view consists entirely of
// post-reconfiguration joiners (every original ID < N replaced).
func assertFreshView(t *testing.T, st *Store, s, n int) {
	t.Helper()
	view := st.Env(s).Cluster.View()
	if view.N() != n {
		t.Fatalf("shard %d view has %d members, want %d", s, view.N(), n)
	}
	for _, m := range view.Members {
		if int(m) < n {
			t.Fatalf("shard %d: original server %d still in view %v", s, m, view.Members)
		}
	}
}

// TestShardStoreReconfigure performs a live rolling replacement of every
// server of every shard while concurrent clients keep writing and reading.
// The bar is the issue's acceptance bar: zero failed client operations
// (driveStore fails the test on any op error) and zero history violations
// after the drain.
func TestShardStoreReconfigure(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 12, N: 3, F: 1,
		Kind: runner.KindABDMax, Atomic: true, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := st.BalancedKeys(6)

	var reconfWG sync.WaitGroup
	reconfErrs := make(chan error, st.NumShards())
	var once sync.Once
	hook := func(done int) {
		if done < 6 {
			return
		}
		once.Do(func() {
			for s := 0; s < st.NumShards(); s++ {
				s := s
				reconfWG.Add(1)
				go func() {
					defer reconfWG.Done()
					reconfErrs <- st.Reconfigure(ctx, s)
				}()
			}
		})
	}
	driveStore(ctx, t, st, keys, 12, hook)
	reconfWG.Wait()
	close(reconfErrs)
	for err := range reconfErrs {
		if err != nil {
			t.Fatalf("Reconfigure: %v", err)
		}
	}

	for s := 0; s < st.NumShards(); s++ {
		assertFreshView(t, st, s, 3)
		if crashes := st.Env(s).Cluster.Crashes(); crashes != 0 {
			t.Fatalf("shard %d: %d crashes after clean replacements, want 0", s, crashes)
		}
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rep := st.CheckAll(4, 23)
	if len(rep.Violations) > 0 {
		t.Fatalf("violations after reconfiguration: %v", rep.Violations)
	}
	if rep.Keys != len(keys) {
		t.Fatalf("checked %d keys, want %d", rep.Keys, len(keys))
	}
}

// TestShardStoreReconfigureOutOfRange pins the frontend validation.
func TestShardStoreReconfigureOutOfRange(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Shards: 2, Kind: runner.KindABDMax})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Reconfigure(ctx, -1); err == nil {
		t.Fatal("Reconfigure(-1) succeeded")
	}
	if err := st.Reconfigure(ctx, 2); err == nil {
		t.Fatal("Reconfigure(2) succeeded")
	}
}

// TestShardStoreResize commits a batched grow (n=5,f=1 → n=7,f=2) and then
// a shrink back (→ n=5,f=1) on every shard, mid-load: each transition is
// one epoch bump with every materialized register re-placed against the
// re-derived quorum geometry. Zero client ops may fail, histories must
// stay clean, and no clean transition may cost a crash.
func TestShardStoreResize(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 12, N: 5, F: 1,
		Kind: runner.KindABDMax, Atomic: true, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := st.BalancedKeys(6)

	var resizeWG sync.WaitGroup
	resizeErrs := make(chan error, 2*st.NumShards())
	var once sync.Once
	hook := func(done int) {
		if done < 6 {
			return
		}
		once.Do(func() {
			for s := 0; s < st.NumShards(); s++ {
				s := s
				resizeWG.Add(1)
				go func() {
					defer resizeWG.Done()
					if _, err := st.Resize(ctx, s, ResizeSpec{Grow: 2, F: 2}); err != nil {
						resizeErrs <- err
						return
					}
					view := st.Env(s).Cluster.View()
					if view.N() != 7 || view.F != 2 {
						resizeErrs <- fmt.Errorf("shard %d after grow: n=%d f=%d, want n=7 f=2", s, view.N(), view.F)
						return
					}
					if _, err := st.Resize(ctx, s, ResizeSpec{Shrink: 2, F: 1}); err != nil {
						resizeErrs <- err
					}
				}()
			}
		})
	}
	driveStore(ctx, t, st, keys, 16, hook)
	resizeWG.Wait()
	close(resizeErrs)
	for err := range resizeErrs {
		t.Fatalf("Resize: %v", err)
	}

	for s := 0; s < st.NumShards(); s++ {
		view := st.Env(s).Cluster.View()
		if view.N() != 5 || view.F != 1 {
			t.Fatalf("shard %d final view: n=%d f=%d, want n=5 f=1", s, view.N(), view.F)
		}
		if crashes := st.Env(s).Cluster.Crashes(); crashes != 0 {
			t.Fatalf("shard %d: %d crashes after clean transitions, want 0", s, crashes)
		}
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rep := st.CheckAll(4, 23)
	if len(rep.Violations) > 0 {
		t.Fatalf("violations after resizing: %v", rep.Violations)
	}
	if rep.Keys != len(keys) {
		t.Fatalf("checked %d keys, want %d", rep.Keys, len(keys))
	}
	// A key materializing after the resize pins to the live member set.
	late := uint64(0)
	for ; late < st.cfg.Keys; late++ {
		if !containsKey(keys, late) {
			break
		}
	}
	errc := make(chan error, 1)
	st.StartWrite(late, 0, 7, func(err error) { errc <- err })
	if err := <-errc; err != nil {
		t.Fatalf("write on a post-resize key: %v", err)
	}
}

func containsKey(keys []uint64, k uint64) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// TestShardStoreTCPResize runs a batched grow and then a shrink back
// through the TCP lane: the joiners dial their own connections into the
// node pool (tables namespaced by their monotone server IDs), the reshape
// seeds node-hosted state over the wire, the grown view serves with f=2,
// and the shrink retires the oldest members' connections cleanly.
func TestShardStoreTCPResize(t *testing.T) {
	ctx := testCtx(t)
	addrs, _ := startLanenodes(t, 2)
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 10, N: 5, F: 1,
		Kind: runner.KindABDMax, Atomic: true,
		Lane: runner.LaneTCP, NodeAddrs: addrs,
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := st.BalancedKeys(4)

	var resizeWG sync.WaitGroup
	resizeErrs := make(chan error, st.NumShards())
	var once sync.Once
	hook := func(done int) {
		if done < 5 {
			return
		}
		once.Do(func() {
			for s := 0; s < st.NumShards(); s++ {
				s := s
				resizeWG.Add(1)
				go func() {
					defer resizeWG.Done()
					if _, err := st.Resize(ctx, s, ResizeSpec{Grow: 2, F: 2}); err != nil {
						resizeErrs <- err
						return
					}
					view := st.Env(s).Cluster.View()
					if view.N() != 7 || view.F != 2 {
						resizeErrs <- fmt.Errorf("shard %d after grow: n=%d f=%d, want n=7 f=2", s, view.N(), view.F)
						return
					}
					if _, err := st.Resize(ctx, s, ResizeSpec{Shrink: 2, F: 1}); err != nil {
						resizeErrs <- err
					}
				}()
			}
		})
	}
	driveStore(ctx, t, st, keys, 10, hook)
	resizeWG.Wait()
	close(resizeErrs)
	for err := range resizeErrs {
		if err != nil {
			t.Fatalf("Resize: %v", err)
		}
	}
	for s := 0; s < st.NumShards(); s++ {
		view := st.Env(s).Cluster.View()
		if view.N() != 5 || view.F != 1 {
			t.Fatalf("shard %d final view: n=%d f=%d, want n=5 f=1", s, view.N(), view.F)
		}
		if crashes := st.Env(s).Cluster.Crashes(); crashes != 0 {
			t.Fatalf("shard %d: %d crashes, want 0", s, crashes)
		}
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(3, 37); len(rep.Violations) > 0 {
		t.Fatalf("violations after TCP resize: %v", rep.Violations)
	}
}

// TestShardStoreResizeValidation pins the frontend validation.
func TestShardStoreResizeValidation(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Shards: 1, Kind: runner.KindABDMax})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Resize(ctx, -1, ResizeSpec{Grow: 1}); err == nil {
		t.Fatal("Resize(-1) succeeded")
	}
	if _, err := st.Resize(ctx, 1, ResizeSpec{Grow: 1}); err == nil {
		t.Fatal("Resize(1) succeeded on a 1-shard store")
	}
	if _, err := st.Resize(ctx, 0, ResizeSpec{Grow: -1}); err == nil {
		t.Fatal("negative grow succeeded")
	}
	if _, err := st.Resize(ctx, 0, ResizeSpec{Shrink: 99}); err == nil {
		t.Fatal("shrink past the member count succeeded")
	}
}

// TestShardStoreResizeRegEmu takes a shard of Algorithm 2 keys (k=4, f=1)
// from 3 servers to 5 and 7 and back to 3 under load: every step re-plans
// every materialized key's layout, so each key places exactly
// bounds.RegisterUpper(4, 1, n) registers — 12, 8, 6, 8, 12 — and the
// shard's cluster holds no others. An f the three members cannot host
// aborts the transition: the view is untouched and old and new keys keep
// serving. Zero client ops may fail and the drained histories stay clean.
func TestShardStoreResizeRegEmu(t *testing.T) {
	const k, f = 4, 1
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Shards: 1, Keys: 64, Kind: runner.KindRegEmu, WritersPerKey: k, N: 3, F: f, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	env := st.Env(0)
	keys := st.BalancedKeys(4)
	layout := func() (perKey int, err error) {
		perKey, err = bounds.RegisterUpper(k, f, env.Cluster.View().N())
		if err != nil {
			return 0, err
		}
		for key, kr := range st.all() {
			if got := kr.reg.ResourceComplexity(); got != perKey {
				return 0, fmt.Errorf("key %d places %d registers at n=%d, want %d", key, got, env.Cluster.View().N(), perKey)
			}
		}
		return perKey, nil
	}

	// Each step runs inside a client's completion hook, every 8th write,
	// while the other clients' ops are in flight.
	specs := []ResizeSpec{{Grow: 2}, {Grow: 2}, {Shrink: 2}, {Shrink: 2}}
	steps := 0
	hook := func(done int) {
		if done%8 != 0 || steps == len(specs) {
			return
		}
		spec := specs[steps]
		steps++
		if _, err := st.Resize(ctx, 0, spec); err != nil {
			t.Errorf("Resize%+v: %v", spec, err)
		} else if _, err := layout(); err != nil {
			t.Errorf("after Resize%+v: %v", spec, err)
		}
	}
	driveStore(ctx, t, st, keys, 16, hook)
	if steps != len(specs) {
		t.Fatalf("%d of %d resize steps ran", steps, len(specs))
	}
	perKey, err := layout()
	if err != nil {
		t.Fatal(err)
	}
	if n := env.Cluster.View().N(); n != 3 || perKey != 12 {
		t.Fatalf("back at n=%d with %d registers per key, want n=3 and 12", n, perKey)
	}
	if got, want := env.Cluster.ResourceComplexity(), perKey*len(keys); got != want {
		t.Fatalf("the shard's cluster holds %d registers, want %d keys × %d", got, len(keys), perKey)
	}

	epoch := env.Cluster.Epoch()
	_, err = st.Resize(ctx, 0, ResizeSpec{F: 2})
	if !fabric.IsResizeAborted(err) || !errors.Is(err, bounds.ErrTooFewServers) {
		t.Fatalf("Resize to f=2 on 3 servers: %v, want an abort for too few servers", err)
	}
	if view := env.Cluster.View(); view.Epoch != epoch || view.N() != 3 || view.F != f {
		t.Fatalf("the aborted resize left epoch %d n=%d f=%d, want epoch %d n=3 f=%d", view.Epoch, view.N(), view.F, epoch, f)
	}
	late := uint64(0)
	for st.ShardOf(late) != 0 || containsKey(keys, late) {
		late++
	}
	lateKey(ctx, t, st, late, "an aborted resize")
	driveStore(ctx, t, st, keys, 2, nil)
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(4, 47); len(rep.Violations) > 0 || rep.Keys != len(keys)+1 {
		t.Fatalf("after resizing: %d keys checked, violations %v", rep.Keys, rep.Violations)
	}
}

// TestShardStoreTCPReconfigure rolls every server of both shards onto
// fresh connections into the same node-process pool, mid-load: each joiner
// dials its own connection bound to a server-scoped table (the new session
// identity is the join), state rides the stateful place frames, and the
// drained histories must stay clean.
func TestShardStoreTCPReconfigure(t *testing.T) {
	ctx := testCtx(t)
	addrs, _ := startLanenodes(t, 2)
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 10, N: 3, F: 1,
		Kind: runner.KindABDMax, Atomic: true,
		Lane: runner.LaneTCP, NodeAddrs: addrs,
		Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := st.BalancedKeys(4)

	var reconfWG sync.WaitGroup
	reconfErrs := make(chan error, st.NumShards())
	var once sync.Once
	hook := func(done int) {
		if done < 5 {
			return
		}
		once.Do(func() {
			for s := 0; s < st.NumShards(); s++ {
				s := s
				reconfWG.Add(1)
				go func() {
					defer reconfWG.Done()
					reconfErrs <- st.Reconfigure(ctx, s)
				}()
			}
		})
	}
	driveStore(ctx, t, st, keys, 10, hook)
	reconfWG.Wait()
	close(reconfErrs)
	for err := range reconfErrs {
		if err != nil {
			t.Fatalf("Reconfigure: %v", err)
		}
	}
	for s := 0; s < st.NumShards(); s++ {
		assertFreshView(t, st, s, 3)
	}
	// A key of shard 0 first touched only now lands on the joiners'
	// connections (TestLateKeyAfterTransitionReconfigure, over the wire).
	late := uint64(0)
	for st.ShardOf(late) != 0 || containsKey(keys, late) {
		late++
	}
	lateKey(ctx, t, st, late, "Reconfigure")
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(3, 31); len(rep.Violations) > 0 {
		t.Fatalf("violations after TCP reconfiguration: %v", rep.Violations)
	}
}

// TestShardStoreViewRetryOutlastsTheOldBudget holds a quorum-reshaping resize
// (n=3,f=1 → n=5,f=2: every member frozen) open for longer than the 187 ms
// the retired retry ladder covered, under 32 closed-loop clients driving
// their engine handles directly, as the load generators do. Every client's
// next op bounces off the freeze and parks on the view stamp; while the
// window is open nothing triggers, and once it closes every op completes in
// the new view: zero failed client ops, where the ladder failed all 32 with
// the internal view-change error after thousands of wasted triggers; clean
// histories.
func TestShardStoreViewRetryOutlastsTheOldBudget(t *testing.T) {
	const clients = 32
	ctx := testCtx(t)
	st, err := Open(ctx, Config{
		Shards: 1, Engines: 2, Keys: 1 << 12, N: 3, F: 1,
		Kind: runner.KindABDMax, Atomic: true, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fab := st.Env(0).Fabric
	frozen, release := make(chan struct{}), make(chan struct{})
	fab.HookTransition(func() {
		close(frozen)
		<-release
	}, nil)

	var warm, wg sync.WaitGroup
	stop := make(chan struct{})
	for _, key := range st.BalancedKeys(clients) {
		w, err := st.Writer(key, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := st.Reader(key, 0)
		if err != nil {
			t.Fatal(err)
		}
		warm.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc := make(chan error, 1)
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w.StartWrite(types.Value(int64(key)*1000+int64(i)), func(err error) { errc <- err })
				if err := <-errc; err != nil {
					t.Errorf("key %d write %d: %v", key, i, err)
				}
				r.StartRead(func(_ types.Value, err error) { errc <- err })
				if err := <-errc; err != nil {
					t.Errorf("key %d read %d: %v", key, i, err)
				}
				if i == 1 {
					warm.Done() // every client is mid-run when the resize starts
				}
			}
		}()
	}
	warm.Wait()
	resized := make(chan error, 1)
	go func() {
		_, err := st.Resize(ctx, 0, ResizeSpec{Grow: 2, F: 2})
		resized <- err
	}()
	<-frozen
	// Closed loop: each client has one op out, and it parks.
	for fab.ViewWaiters() < clients {
		if ctx.Err() != nil {
			t.Fatalf("%d of %d clients parked on the view stamp: %v", fab.ViewWaiters(), clients, ctx.Err())
		}
		runtime.Gosched()
	}
	parkedAt := fab.Triggers()
	// The wall-clock length is the point here: the window must outlast what
	// the old backoff budget could sit out.
	<-time.After(250 * time.Millisecond)
	if burned := fab.Triggers() - parkedAt; burned != 0 || fab.ViewWaiters() != clients {
		t.Errorf("inside the held window: %d triggers burned, %d ops parked; want 0 and %d", burned, fab.ViewWaiters(), clients)
	}
	close(release)
	if err := <-resized; err != nil {
		t.Fatalf("Resize: %v", err)
	}
	close(stop) // each client's parked op, and the pair it belongs to, still complete
	wg.Wait()
	if view := st.Env(0).Cluster.View(); view.N() != 5 || view.F != 2 {
		t.Fatalf("view after the resize: n=%d f=%d, want n=5 f=2", view.N(), view.F)
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(4, 41); len(rep.Violations) > 0 || rep.Keys != clients {
		t.Fatalf("after the held resize: %d keys checked, violations %v", rep.Keys, rep.Violations)
	}
}
