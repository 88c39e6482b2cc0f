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

// tableEnv builds a 3-server in-process fabric with objects max-registers
// placed round-robin, IDs 0..objects-1.
func tableEnv(t *testing.T, objects int) (*Fabric, []types.ObjectID) {
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

// lookupAll looks every object up once through the fabric, a third of them
// at a time, and returns the least number of bytes the process allocated
// during one third. TotalAlloc is monotone and counts every heap allocation —
// the whole process's, so now and then a sweep catches a few KB that are a
// neighbouring test's or the runtime's; an allocation of the fabric's own
// would show in all three thirds. Every object is still looked up exactly
// once, so a first touch stays a first touch.
func lookupAll(t *testing.T, fab *Fabric, objs []types.ObjectID) uint64 {
	t.Helper()
	least := ^uint64(0)
	for third := 0; third < 3; third++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, obj := range objs[third*len(objs)/3 : (third+1)*len(objs)/3] {
			if _, err := fab.ServerFor(obj); err != nil {
				t.Fatalf("ServerFor(%d): %v", obj, err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestObjectTableSweepsAllocateNothing: the fabric keeps no placement of its
// own, so an object's first touch allocates nothing in it, and neither does
// the first sweep after a view change — a membership change, a failure-budget
// change, or a swap that moved a third of the objects: there is no route
// to build and none to rebuild. "Nothing" is read as less than one byte per
// object in the quietest third of the sweep: the runtime's own goroutines
// allocate a few dozen bytes now and then (more often under the race
// detector), and the smallest thing a fabric could keep per object is a
// pointer.
func TestObjectTableSweepsAllocateNothing(t *testing.T) {
	fab, objs := tableEnv(t, 4*cluster.TableChunkSize)
	if got := lookupAll(t, fab, objs); got >= uint64(len(objs)/3) {
		t.Errorf("first touch of %d objects allocated %d B per third in the fabric, want none per object", len(objs), got)
	}
	epoch, moving := fab.Cluster().Epoch(), len(fab.Cluster().ObjectsOn(0))
	if _, err := fab.addServer(nil); err != nil {
		t.Fatal(err)
	}
	fab.Cluster().SetF(1)
	if _, err := swap(context.Background(), fab, 0); err != nil {
		t.Fatal(err)
	}
	bumps := fab.Cluster().Epoch() - epoch
	if want := uint64(2 + 1 + moving + 1); bumps != want {
		t.Errorf("the transitions bumped the epoch %d times, want %d (join, f, join + one per moved object + commit)", bumps, want)
	}
	if got := lookupAll(t, fab, objs); got >= uint64(len(objs)/3) {
		t.Errorf("the sweep after %d epoch bumps allocated %d B in the fabric, want none per object", bumps, got)
	}
}

// TestObjectTableUsedObjectsAscendingAcrossChunks triggers on objects either
// side of two chunk edges, out of order, and reads the paper's resource
// accounting back through the ordered scan.
func TestObjectTableUsedObjectsAscendingAcrossChunks(t *testing.T) {
	const chunk = cluster.TableChunkSize
	fab, objs := tableEnv(t, 2*chunk+2)
	touched := []types.ObjectID{objs[513], objs[2*chunk], objs[511], objs[0], objs[512], objs[2*chunk+1]}
	for _, obj := range touched {
		if o := mustOutcome(t, trigger(fab, 0, obj, readMaxInv())); o.Err != nil {
			t.Fatalf("read %d: %v", obj, o.Err)
		}
	}
	// Looked up but never triggered: must not count as used.
	if _, err := fab.ServerFor(objs[700]); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(touched)
	slices.Sort(want)
	if got := fab.UsedObjects(); !slices.Equal(got, want) {
		t.Fatalf("UsedObjects = %v, want %v", got, want)
	}
}

// TestObjectTableConcurrentLookupDuringReplace has 8 goroutines look up and
// trigger on overlapping object windows while two rolling swaps store one
// fresh entry per moved object. Run under -race. It pins: a lookup never
// fails and never yields an object's older copy after a newer one (per
// object, the hosting server only ever moves forward along its one move),
// an op bounced by the freeze lands once retried, the table after the dust
// settles equals each object's last move, and the used latch and the
// resource accounting come through both migrations intact.
func TestObjectTableConcurrentLookupDuringReplace(t *testing.T) {
	const (
		objects = 2*cluster.TableChunkSize + 100
		readers = 8
		window  = objects / 2
	)
	fab, objs := tableEnv(t, objects)
	c := fab.Cluster()
	for _, obj := range objs {
		if o := mustOutcome(t, trigger(fab, 0, obj, writeMaxInv(1, 1))); o.Err != nil {
			t.Fatalf("seed write %d: %v", obj, o.Err)
		}
	}
	// The coordinator yields before every move and the readers after every
	// op, so even at GOMAXPROCS=1 lookups interleave with consecutive slot
	// stores instead of running after the whole transition.
	fab.HookTransition(nil, func(types.ObjectID, types.ServerID) { runtime.Gosched() })
	ctx := context.Background()
	stop := make(chan struct{})
	var wg, warm sync.WaitGroup
	var moved atomic.Int64 // lookups that found an object on a newer server than last time
	for g := 0; g < readers; g++ {
		wg.Add(1)
		warm.Add(1)
		go func(g int) {
			defer wg.Done()
			last := make([]types.ServerID, objects)
			start := g * (objects - window) / (readers - 1)
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
					e, _, err := fab.lookup(obj)
					if err != nil {
						t.Errorf("lookup(%d): %v", obj, err)
						return
					}
					// Joiners get fresh, larger IDs, so a copy older than one
					// already seen would show as a smaller server ID.
					switch server := e.Server().ID(); {
					case server < last[obj]:
						t.Errorf("lookup(%d) went back from server %d to %d", obj, last[obj], server)
						return
					case server > last[obj] && ts > 2:
						moved.Add(1)
					}
					last[obj] = e.Server().ID()
					// Retry through the freeze by yielding, not by parking on
					// the view stamp: parked, a reader would sit the transition
					// out, and looking up between its slot stores is the test.
					inv := writeMaxInv(ts, types.Value(g))
					for {
						// The in-process lane completes inside TriggerBatch.
						o, _ := trigger(fab, types.ClientID(g), obj, inv).Outcome()
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
	joiner := make(map[types.ServerID]types.ServerID)
	for _, leaver := range []types.ServerID{0, 1} {
		id, err := swap(ctx, fab, leaver)
		if err != nil {
			t.Errorf("swap(%d): %v", leaver, err)
		}
		joiner[leaver] = id
	}
	close(stop)
	wg.Wait()
	t.Logf("%d epochs, %d lookups saw an object on its new server", c.Epoch(), moved.Load())
	if moved.Load() == 0 {
		t.Error("no reader ever saw a moved object: the transitions did not overlap them")
	}

	for i, obj := range objs {
		want := types.ServerID(i % 3)
		if j, left := joiner[want]; left {
			want = j
		}
		e, l, err := fab.lookup(obj)
		if err != nil {
			t.Fatalf("lookup(%d) after the transitions: %v", obj, err)
		}
		if e.Server().ID() != want || l.server != want {
			t.Fatalf("object %d on server %d behind lane %d, want %d: the table is not its last move", obj, e.Server().ID(), l.server, want)
		}
	}
	if got := fab.UsedObjects(); !slices.Equal(got, objs) {
		t.Errorf("UsedObjects lists %d objects after two migrations, want all %d in ascending order", len(got), objects)
	}
	if got := c.ResourceComplexity(); got != objects {
		t.Errorf("ResourceComplexity = %d, want %d", got, objects)
	}
}
