package fabric

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/types"
)

// routeEnv builds a 3-server in-process fabric with objects max-registers
// placed round-robin, IDs 0..objects-1.
func routeEnv(t *testing.T, objects int) (*Fabric, []types.ObjectID) {
	t.Helper()
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, objects)
	for i := range objs {
		if objs[i], err = c.PlaceMaxRegister(types.ServerID(i % 3)); err != nil {
			t.Fatal(err)
		}
	}
	return New(c), objs
}

// resolveAll resolves every object once and returns the bytes the sweep
// allocated (TotalAlloc is monotone and counts every heap allocation, so
// the delta is exact for a single-goroutine test, whatever the collector
// does meanwhile).
func resolveAll(t *testing.T, fab *Fabric, objs []types.ObjectID) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, obj := range objs {
		if _, err := fab.ServerFor(obj); err != nil {
			t.Fatalf("ServerFor(%d): %v", obj, err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRouteTableLinearFirstTouchAndReresolve pins the cost model of route
// publication by allocation counts, not timers: first-touching 4N objects
// allocates at most 4.5x the bytes of first-touching N, and so does the
// re-resolution sweep after an epoch bump invalidated every route. A table
// that copies itself per published route fails both at 16x.
func TestRouteTableLinearFirstTouchAndReresolve(t *testing.T) {
	const n = 4096
	sweeps := func(objects int) (firstTouch, reresolve uint64) {
		fab, objs := routeEnv(t, objects)
		firstTouch = resolveAll(t, fab, objs)
		if warm := resolveAll(t, fab, objs); warm != 0 {
			t.Fatalf("%d objects: a warm sweep allocated %d bytes, want 0", objects, warm)
		}
		epoch := fab.Cluster().Epoch()
		if _, err := fab.AddServer(nil); err != nil {
			t.Fatal(err)
		}
		if fab.Cluster().Epoch() == epoch {
			t.Fatal("AddServer did not bump the epoch")
		}
		return firstTouch, resolveAll(t, fab, objs)
	}
	smallTouch, smallRe := sweeps(n)
	bigTouch, bigRe := sweeps(4 * n)
	if smallTouch == 0 || smallRe == 0 {
		t.Fatalf("sweeps over %d objects allocated %d / %d bytes: nothing was resolved", n, smallTouch, smallRe)
	}
	if limit := smallTouch * 9 / 2; bigTouch > limit {
		t.Errorf("first touch: %d objects allocated %d B, %d objects %d B (> 4.5x = %d)", n, smallTouch, 4*n, bigTouch, limit)
	}
	if limit := smallRe * 9 / 2; bigRe > limit {
		t.Errorf("re-resolution after an epoch bump: %d objects allocated %d B, %d objects %d B (> 4.5x = %d)", n, smallRe, 4*n, bigRe, limit)
	}
}

// TestRouteTableChunkBoundaries round-trips the IDs around a chunk edge
// and a sparse high ID through the bare table, and checks the resolver-race
// rules slot by slot: a same-or-newer entry wins, a stale one is replaced
// and hands over its used latch.
func TestRouteTableChunkBoundaries(t *testing.T) {
	const sparse = types.ObjectID(1<<20 + 7)
	ids := []types.ObjectID{513, 0, sparse, routeChunkSize - 1, routeChunkSize, 2*routeChunkSize + 1}
	var tab routeTable
	if tab.get(0) != nil || tab.get(sparse) != nil || tab.get(-1) != nil {
		t.Fatal("empty table returned a route")
	}
	routes := make(map[types.ObjectID]*route)
	for _, id := range ids {
		rt := &route{epoch: 1, server: types.ServerID(id % 3)}
		routes[id] = rt
		tab.put(id, rt)
	}
	for _, id := range ids {
		if got := tab.get(id); got != routes[id] {
			t.Errorf("get(%d) = %p, want %p", id, got, routes[id])
		}
	}
	for _, id := range []types.ObjectID{-1, 1, routeChunkSize + 2, 3 * routeChunkSize, sparse - 1, sparse + routeChunkSize} {
		if got := tab.get(id); got != nil {
			t.Errorf("get(%d) = %+v for an ID never put", id, got)
		}
	}
	var visited []types.ObjectID
	tab.each(func(obj types.ObjectID, rt *route) {
		if rt != routes[obj] {
			t.Errorf("each(%d) visited %p, want %p", obj, rt, routes[obj])
		}
		visited = append(visited, obj)
	})
	want := slices.Clone(ids)
	slices.Sort(want)
	if !slices.Equal(visited, want) {
		t.Errorf("each visited %v, want ascending %v", visited, want)
	}

	routes[routeChunkSize].markUsed()
	tab.put(routeChunkSize, &route{epoch: 1})
	if tab.get(routeChunkSize) != routes[routeChunkSize] {
		t.Error("a same-epoch put displaced the cached route")
	}
	tab.put(routeChunkSize, &route{epoch: 0})
	if tab.get(routeChunkSize) != routes[routeChunkSize] {
		t.Error("a stale-epoch put resurrected over a newer route")
	}
	newer := &route{epoch: 2}
	tab.put(routeChunkSize, newer)
	if tab.get(routeChunkSize) != newer {
		t.Error("a newer-epoch put did not replace the stale route")
	}
	if !newer.used.Load() {
		t.Error("the replaced route's used latch was not handed to its successor")
	}
	fresh := &route{epoch: 2}
	tab.put(routeChunkSize-1, fresh)
	if fresh.used.Load() {
		t.Error("a route inherited a used latch its predecessor never had")
	}
}

// TestRouteTableUsedObjectsAscendingAcrossChunks triggers on objects either
// side of two chunk edges, out of order, and reads the paper's resource
// accounting back through the ordered visit.
func TestRouteTableUsedObjectsAscendingAcrossChunks(t *testing.T) {
	fab, objs := routeEnv(t, 2*routeChunkSize+2)
	touched := []types.ObjectID{objs[513], objs[2*routeChunkSize], objs[511], objs[0], objs[512], objs[2*routeChunkSize+1]}
	for _, obj := range touched {
		if o := mustOutcome(t, fab.Trigger(0, obj, readMaxInv())); o.Err != nil {
			t.Fatalf("read %d: %v", obj, o.Err)
		}
	}
	// Resolved but never triggered: must not count as used.
	if _, err := fab.ServerFor(objs[700]); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(touched)
	slices.Sort(want)
	if got := fab.UsedObjects(); !slices.Equal(got, want) {
		t.Fatalf("UsedObjects = %v, want %v", got, want)
	}
}

// TestRouteTableConcurrentResolveDuringReplace has 8 goroutines resolve and
// trigger on overlapping object windows while two rolling Replaces bump the
// epoch once per moved object. Run under -race. It pins: route() never
// hands out a route stamped older than the epoch the caller had already
// seen (a stale route is never returned as current), an object's cached
// epoch never moves backwards (never resurrected), every route resolved
// after the dust settles carries the final mapping, and the used latch and
// the resource accounting come through both migrations intact.
func TestRouteTableConcurrentResolveDuringReplace(t *testing.T) {
	const (
		objects   = 2*routeChunkSize + 100
		resolvers = 8
		window    = objects / 2
	)
	fab, objs := routeEnv(t, objects)
	c := fab.Cluster()
	for _, obj := range objs {
		if o := mustOutcome(t, fab.Trigger(0, obj, writeMaxInv(1, 1))); o.Err != nil {
			t.Fatalf("seed write %d: %v", obj, o.Err)
		}
	}
	// The coordinator yields before every move and the resolvers after every
	// op, so even at GOMAXPROCS=1 resolutions interleave with consecutive
	// epoch bumps instead of running after the whole transition.
	fab.HookTransition(nil, func(types.ObjectID, types.ServerID) { runtime.Gosched() })
	ctx := context.Background()
	stop := make(chan struct{})
	var wg, warm sync.WaitGroup
	var reresolved atomic.Int64 // routes seen at a newer epoch than last time
	for g := 0; g < resolvers; g++ {
		wg.Add(1)
		warm.Add(1)
		go func(g int) {
			defer wg.Done()
			lastEpoch := make([]uint64, objects)
			start := g * (objects - window) / (resolvers - 1)
			for ts := uint64(2); ; ts++ {
				if ts == 3 {
					warm.Done() // one full pass done: the transitions may start
				}
				select {
				case <-stop:
					return
				default:
				}
				for _, obj := range objs[start : start+window] {
					seen := c.Epoch()
					rt, err := fab.route(obj)
					if err != nil {
						t.Errorf("route(%d): %v", obj, err)
						return
					}
					if rt.epoch < seen {
						t.Errorf("route(%d) stamped epoch %d after the caller saw epoch %d", obj, rt.epoch, seen)
						return
					}
					if rt.epoch < lastEpoch[obj] {
						t.Errorf("route(%d) went back from epoch %d to %d", obj, lastEpoch[obj], rt.epoch)
						return
					}
					if rt.epoch > lastEpoch[obj] {
						reresolved.Add(1)
					}
					lastEpoch[obj] = rt.epoch
					if !rt.used.Load() {
						t.Errorf("route(%d) at epoch %d lost its used latch", obj, rt.epoch)
						return
					}
					// Retry through the freeze by yielding, not retryView: parked
					// on the view stamp a resolver would sit the transition out,
					// and resolving between its epoch bumps is the test.
					inv := writeMaxInv(ts, types.Value(g))
					for {
						// The in-process lane completes inside Trigger.
						o, _ := fab.Trigger(types.ClientID(g), obj, inv).Outcome()
						if o.Err == nil {
							break
						}
						if !IsViewChange(o.Err) {
							t.Errorf("write %d: %v", obj, o.Err)
							return
						}
						runtime.Gosched()
					}
					runtime.Gosched()
				}
			}
		}(g)
	}
	warm.Wait()
	for _, leaver := range []types.ServerID{0, 1} {
		if _, err := fab.Replace(ctx, leaver, nil); err != nil {
			t.Errorf("Replace(%d): %v", leaver, err)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d epochs, %d concurrent re-resolutions", c.Epoch(), reresolved.Load())
	if reresolved.Load() == 0 {
		t.Error("the resolvers never re-resolved a route: the transitions did not overlap them")
	}

	final := c.Epoch()
	for _, obj := range objs {
		rt, err := fab.route(obj)
		if err != nil {
			t.Fatalf("route(%d) after the transitions: %v", obj, err)
		}
		server, err := c.Delta(obj)
		if err != nil {
			t.Fatal(err)
		}
		if rt.epoch != final || rt.server != server {
			t.Fatalf("route(%d) = server %d @ epoch %d, want server %d @ epoch %d", obj, rt.server, rt.epoch, server, final)
		}
	}
	if got := fab.UsedObjects(); !slices.Equal(got, objs) {
		t.Errorf("UsedObjects lists %d objects after two migrations, want all %d in ascending order", len(got), objects)
	}
	if got := c.ResourceComplexity(); got != objects {
		t.Errorf("ResourceComplexity = %d, want %d", got, objects)
	}
}
