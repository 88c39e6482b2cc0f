package cluster

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/types"
)

func mustCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(n)
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded, want error", n)
		}
	}
	c := mustCluster(t, 3)
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3", c.N())
	}
}

func TestPlacementAndDelta(t *testing.T) {
	c := mustCluster(t, 3)
	r, err := c.PlaceRegister(0, baseobj.WriterRange{})
	if err != nil {
		t.Fatalf("PlaceRegister: %v", err)
	}
	m, err := c.PlaceMaxRegister(1)
	if err != nil {
		t.Fatalf("PlaceMaxRegister: %v", err)
	}
	x, err := c.PlaceCASCell(1)
	if err != nil {
		t.Fatalf("PlaceCASCell: %v", err)
	}
	for obj, want := range map[types.ObjectID]types.ServerID{r: 0, m: 1, x: 1} {
		got, err := c.Delta(obj)
		if err != nil {
			t.Fatalf("Delta(%d): %v", obj, err)
		}
		if got != want {
			t.Errorf("Delta(%d) = %d, want %d", obj, got, want)
		}
	}
	if got := c.ResourceComplexity(); got != 3 {
		t.Errorf("ResourceComplexity = %d, want 3", got)
	}
	wantCounts := []int{1, 2, 0}
	for i, got := range c.PerServerCounts() {
		if got != wantCounts[i] {
			t.Errorf("PerServerCounts[%d] = %d, want %d", i, got, wantCounts[i])
		}
	}
	if got := c.ObjectsOn(1); len(got) != 2 || got[0] > got[1] {
		t.Errorf("ObjectsOn(1) = %v, want 2 ascending ids", got)
	}
	if got := c.AllObjects(); len(got) != 3 {
		t.Errorf("AllObjects = %v, want 3 ids", got)
	}
}

func TestPlacementErrors(t *testing.T) {
	c := mustCluster(t, 2)
	if _, err := c.PlaceRegister(5, baseobj.WriterRange{}); !errors.Is(err, ErrNoSuchServer) {
		t.Errorf("place on missing server err = %v, want ErrNoSuchServer", err)
	}
	if _, err := c.Delta(42); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Delta on missing object err = %v, want ErrNoSuchObject", err)
	}
	if _, err := c.Object(42); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Object on missing object err = %v, want ErrNoSuchObject", err)
	}
	if _, err := c.Server(-1); !errors.Is(err, ErrNoSuchServer) {
		t.Errorf("Server(-1) err = %v, want ErrNoSuchServer", err)
	}
}

func TestApplyRoutes(t *testing.T) {
	c := mustCluster(t, 2)
	obj, err := c.PlaceRegister(1, baseobj.WriterRange{})
	if err != nil {
		t.Fatal(err)
	}
	v := types.TSValue{TS: 1, Val: 5}
	if _, err := c.Apply(obj, 0, baseobj.Invocation{Op: baseobj.OpWrite, Arg: v}); err != nil {
		t.Fatalf("Apply write: %v", err)
	}
	resp, err := c.Apply(obj, 0, baseobj.Invocation{Op: baseobj.OpRead})
	if err != nil {
		t.Fatalf("Apply read: %v", err)
	}
	if resp.Val != v {
		t.Fatalf("read %v, want %v", resp.Val, v)
	}
}

func TestCrashSemantics(t *testing.T) {
	c := mustCluster(t, 3)
	onCrashed, err := c.PlaceRegister(0, baseobj.WriterRange{})
	if err != nil {
		t.Fatal(err)
	}
	onAlive, err := c.PlaceRegister(1, baseobj.WriterRange{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if c.Crashes() != 1 {
		t.Fatalf("Crashes = %d, want 1", c.Crashes())
	}
	// Idempotent crash.
	if err := c.Crash(0); err != nil {
		t.Fatalf("second Crash: %v", err)
	}
	if c.Crashes() != 1 {
		t.Fatalf("Crashes after re-crash = %d, want 1", c.Crashes())
	}
	// All objects on the crashed server fail; others are unaffected.
	if _, err := c.Apply(onCrashed, 0, baseobj.Invocation{Op: baseobj.OpRead}); !errors.Is(err, ErrServerCrashed) {
		t.Errorf("apply on crashed server err = %v, want ErrServerCrashed", err)
	}
	if _, err := c.Apply(onAlive, 0, baseobj.Invocation{Op: baseobj.OpRead}); err != nil {
		t.Errorf("apply on live server: %v", err)
	}
	s, err := c.Server(0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Crashed() {
		t.Error("server 0 not marked crashed")
	}
	if err := c.Crash(9); !errors.Is(err, ErrNoSuchServer) {
		t.Errorf("crash missing server err = %v, want ErrNoSuchServer", err)
	}
}

func TestServerAccessors(t *testing.T) {
	c := mustCluster(t, 2)
	if _, err := c.PlaceRegister(0, baseobj.WriterRange{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceRegister(0, baseobj.WriterRange{}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Server(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 0 {
		t.Errorf("ID = %d, want 0", s.ID())
	}
	if s.NumObjects() != 2 {
		t.Errorf("NumObjects = %d, want 2", s.NumObjects())
	}
}

func TestObjectIDsAreUniqueAcrossServers(t *testing.T) {
	c := mustCluster(t, 4)
	seen := make(map[types.ObjectID]bool)
	for s := 0; s < 4; s++ {
		for i := 0; i < 5; i++ {
			id, err := c.PlaceRegister(types.ServerID(s), baseobj.WriterRange{})
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("duplicate object id %d", id)
			}
			seen[id] = true
		}
	}
}

// TestPlacementRefusesDepartedServer: a server that left the view takes no
// new objects — not a fresh placement, not a moved one — while its ID stays
// in the ID space; a refused placement hands out no ID and moves no count.
func TestPlacementRefusesDepartedServer(t *testing.T) {
	c := mustCluster(t, 3)
	kept, err := c.PlaceMaxRegister(1)
	if err != nil {
		t.Fatal(err)
	}
	joiner := c.AddServer().ID()
	if err := c.CommitView([]types.ServerID{0}, 1); err != nil {
		t.Fatal(err)
	}
	epoch := c.Epoch()
	for name, place := range map[string]func() (types.ObjectID, error){
		"register":     func() (types.ObjectID, error) { return c.PlaceRegister(0, baseobj.WriterRange{}) },
		"max-register": func() (types.ObjectID, error) { return c.PlaceMaxRegister(0) },
		"cas":          func() (types.ObjectID, error) { return c.PlaceCASCell(0) },
		"frag-store":   func() (types.ObjectID, error) { return c.PlaceFragStore(0) },
	} {
		if _, err := place(); !errors.Is(err, ErrNotMember) {
			t.Errorf("placing a %s on the departed server: %v, want ErrNotMember", name, err)
		}
	}
	if err := c.MoveObject(kept, 0, baseobj.State{}); !errors.Is(err, ErrNotMember) {
		t.Errorf("moving an object onto the departed server: %v, want ErrNotMember", err)
	}
	if _, err := c.PlaceMaxRegister(9); !errors.Is(err, ErrNoSuchServer) {
		t.Errorf("placing on an ID never issued: %v, want ErrNoSuchServer", err)
	}
	if got := c.ResourceComplexity(); got != 1 {
		t.Errorf("ResourceComplexity = %d after refused placements, want 1", got)
	}
	if got, want := c.PerServerCounts(), []int{0, 1, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("PerServerCounts = %v, want %v", got, want)
	}
	if got := c.AllObjects(); len(got) != 1 || got[0] != kept {
		t.Errorf("AllObjects = %v, want only %d", got, kept)
	}
	if c.Epoch() != epoch {
		t.Errorf("refused placements moved the epoch %d -> %d", epoch, c.Epoch())
	}
	// The next accepted placement gets the next ID: the refusals consumed none.
	if id, err := c.PlaceMaxRegister(joiner); err != nil || id != kept+1 {
		t.Errorf("placement on the joiner = %d, %v; want ID %d", id, err, kept+1)
	}
}
