package cluster

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// tableEnv places objects max-registers round-robin on a 3-server cluster,
// IDs 0..objects-1.
func tableEnv(t *testing.T, objects int) (*Cluster, []types.ObjectID) {
	t.Helper()
	c := mustCluster(t, 3)
	objs := make([]types.ObjectID, objects)
	for i := range objs {
		var err error
		if objs[i], err = c.PlaceMaxRegister(types.ServerID(i % 3)); err != nil {
			t.Fatal(err)
		}
		if objs[i] != types.ObjectID(i) {
			t.Fatalf("object %d got ID %d: IDs are not dense", i, objs[i])
		}
	}
	return c, objs
}

// TestObjectTableChunkEdges round-trips the IDs either side of two chunk
// edges, checks that IDs never handed out — negative, one past the end, a
// chunk past the end — are unknown rather than retired, and that retiring an
// ID at an edge turns exactly that slot into a tombstone the ascending scans
// skip.
func TestObjectTableChunkEdges(t *testing.T) {
	const n = 2*TableChunkSize + 2
	c, _ := tableEnv(t, n)
	edges := []types.ObjectID{0, TableChunkSize - 1, TableChunkSize, TableChunkSize + 1, 2*TableChunkSize - 1, 2 * TableChunkSize, n - 1}
	for _, id := range edges {
		e, err := c.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", id, err)
		}
		if e.Object().ID() != id || e.Server().ID() != types.ServerID(id%3) {
			t.Errorf("Lookup(%d) = object %d on server %d, want object %d on server %d", id, e.Object().ID(), e.Server().ID(), id, id%3)
		}
	}
	for _, id := range []types.ObjectID{-1, n, n + TableChunkSize, 1<<20 + 7} {
		if _, err := c.Lookup(id); !errors.Is(err, ErrNoSuchObject) {
			t.Errorf("Lookup(%d) of an ID never handed out: %v, want ErrNoSuchObject", id, err)
		}
	}

	const gone = types.ObjectID(TableChunkSize)
	if err := c.RemoveObject(gone); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(gone); !errors.Is(err, ErrObjectRetired) {
		t.Errorf("Lookup of a retired ID: %v, want ErrObjectRetired", err)
	}
	if err := c.RemoveObject(gone); !errors.Is(err, ErrObjectRetired) {
		t.Errorf("retiring an ID twice: %v, want ErrObjectRetired", err)
	}
	for _, id := range []types.ObjectID{gone - 1, gone + 1} {
		if _, err := c.Lookup(id); err != nil {
			t.Errorf("Lookup(%d) next to the tombstone: %v", id, err)
		}
	}
	all := c.AllObjects()
	if len(all) != n-1 || !slices.IsSorted(all) || slices.Contains(all, gone) {
		t.Errorf("AllObjects lists %d objects (sorted=%v, tombstone listed=%v), want %d ascending without the tombstone",
			len(all), slices.IsSorted(all), slices.Contains(all, gone), n-1)
	}
	if got := c.ResourceComplexity(); got != n-1 {
		t.Errorf("ResourceComplexity = %d, want %d", got, n-1)
	}
	const host = types.ServerID(gone % 3)
	if on, want := c.ObjectsOn(host), n/3-1; len(on) != want || !slices.IsSorted(on) {
		t.Errorf("ObjectsOn(%d) lists %d objects, want %d ascending", host, len(on), want)
	}
	if got, want := c.PerServerCounts(), []int{n / 3, n / 3, n/3 - 1}; !slices.Equal(got, want) {
		t.Errorf("PerServerCounts = %v, want %v", got, want)
	}
	// A retired slot is never handed out again.
	if id, err := c.PlaceMaxRegister(0); err != nil || id != n {
		t.Errorf("placement after a retirement got ID %d, %v; want %d", id, err, n)
	}
}

// TestObjectTableUsedLatchSurvivesMove marks objects either side of the
// chunk edges used, out of order, reads the paper's resource accounting back
// through the ascending scan, and moves / rolls back two of them: the fresh
// entry keeps the used latch (accounting is about the object) and drops the
// mirrored one (the new copy lives behind another lane).
func TestObjectTableUsedLatchSurvivesMove(t *testing.T) {
	c, objs := tableEnv(t, 2*TableChunkSize+2)
	touched := []types.ObjectID{objs[513], objs[2*TableChunkSize], objs[511], objs[0], objs[512], objs[2*TableChunkSize+1]}
	for _, obj := range touched {
		e, err := c.Lookup(obj)
		if err != nil {
			t.Fatal(err)
		}
		e.MarkUsed()
		e.SetMirrored()
	}
	want := slices.Clone(touched)
	slices.Sort(want)
	if got := c.UsedObjects(); !slices.Equal(got, want) {
		t.Fatalf("UsedObjects = %v, want %v", got, want)
	}

	joiner := c.AddServer().ID()
	state := baseobj.State{Val: types.TSValue{TS: 3, Val: 9}}
	if err := c.MoveObject(objs[512], joiner, state); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceObject(objs[511], state); err != nil {
		t.Fatal(err)
	}
	if err := c.MoveObject(objs[1], joiner, state); err != nil { // never used
		t.Fatal(err)
	}
	for _, obj := range []types.ObjectID{objs[512], objs[511]} {
		e, err := c.Lookup(obj)
		if err != nil {
			t.Fatal(err)
		}
		if e.Mirrored() {
			t.Errorf("object %d: the fresh copy inherited the mirrored latch", obj)
		}
		if resp, err := c.Apply(obj, 0, baseobj.Invocation{Op: baseobj.OpReadMax}); err != nil || resp.Val != state.Val {
			t.Errorf("object %d after the move reads %v, %v; want the transferred %v", obj, resp.Val, err, state.Val)
		}
	}
	if s, _ := c.Delta(objs[512]); s != joiner {
		t.Errorf("moved object on server %d, want %d", s, joiner)
	}
	if s, _ := c.Delta(objs[511]); s != types.ServerID(511%3) {
		t.Errorf("rolled-back object on server %d, want it to stay on %d", s, 511%3)
	}
	if got := c.UsedObjects(); !slices.Equal(got, want) {
		t.Errorf("UsedObjects after the moves = %v, want %v unchanged", got, want)
	}
}

// TestObjectTableLinearPlacement pins the cost model of the table by
// allocation counts, not timers: placing 4N objects allocates at most 4.5x
// the bytes of placing N. A table that copies itself per placement fails
// at 16x.
func TestObjectTableLinearPlacement(t *testing.T) {
	const n = 4096
	placed := func(objects int) uint64 {
		c := mustCluster(t, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < objects; i++ {
			if _, err := c.PlaceMaxRegister(types.ServerID(i % 3)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, big := placed(n), placed(4*n)
	if small == 0 {
		t.Fatalf("placing %d objects allocated nothing", n)
	}
	if limit := small * 9 / 2; big > limit {
		t.Errorf("%d objects allocated %d B, %d objects %d B (> 4.5x = %d)", n, small, 4*n, big, limit)
	}
	t.Logf("%d B/object at %d objects, %d B/object at %d", small/n, n, big/(4*n), 4*n)
}
