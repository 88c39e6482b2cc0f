package abdcore

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

func newTestRegister(t *testing.T, k, f int) *Register {
	t.Helper()
	c, err := cluster.New(2*f + 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetF(f)
	fab := fabric.New(c)
	r, err := New(Config{
		Name:   "test-reg",
		K:      k,
		Place:  placeMax,
		Fabric: fab,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestMetadata(t *testing.T) {
	r := newTestRegister(t, 3, 1)
	if r.Name() != "test-reg" || r.K() != 3 || r.F() != 1 || r.ResourceComplexity() != 3 {
		t.Fatalf("metadata = %s/%d/%d/%d", r.Name(), r.K(), r.F(), r.ResourceComplexity())
	}
	if r.History() == nil {
		t.Fatal("the register records no history")
	}
}

func TestConfigValidation(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	for _, tc := range []struct {
		name string
		k, f int // f is the view's
	}{
		{"k=0", 0, 1},
		{"f=0", 1, 0},
		{"f=2 on a 3-member view", 1, 2},
	} {
		c.SetF(tc.f)
		if _, err := New(Config{Name: tc.name, K: tc.k, Fabric: fab, Place: placeMax}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if got := c.ResourceComplexity(); got != 0 {
		t.Errorf("rejected configurations placed %d base objects", got)
	}
	// A failing recipe fails the build with its cause, naming the server.
	noRoom := errors.New("no room")
	c.SetF(1)
	_, err = New(Config{Name: "failing", K: 1, Fabric: fab, Chain: newTestChain(fab), Place: func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
		if server == 1 {
			return objs, noRoom
		}
		return placeMax(c, server, objs)
	}})
	if !errors.Is(err, noRoom) {
		t.Errorf("failing Place: err = %v, want it to wrap the recipe's error", err)
	}
}

// TestResizeAbortsOnPlaceError: when the store recipe fails for the second
// joiner of a grow, Reshape reports it, the fabric rolls the transition
// back, and the register still runs on its old placement — same stores,
// same failure budget, same resource count — and still serves.
func TestResizeAbortsOnPlaceError(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	c.SetF(1)
	fab := fabric.New(c)
	noRoom := errors.New("no room")
	failOn := types.ServerID(-1)
	r, err := New(Config{Name: "test-reg", K: 1, Fabric: fab, Chain: newTestChain(fab), Place: func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
		if server == failOn {
			return objs, noRoom
		}
		return placeMax(c, server, objs)
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := r.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ctx, 11); err != nil {
		t.Fatal(err)
	}
	before := r.p.Load()

	failOn = 4 // servers 3 and 4 join; the recipe fails on the second
	_, err = fab.Resize(ctx, fabric.ResizeSpec{Join: make([]fabric.LaneMaker, 2), F: 2}, r.Reshape)
	if !fabric.IsResizeAborted(err) || !errors.Is(err, noRoom) {
		t.Fatalf("Resize err = %v, want an aborted transition wrapping the recipe's error", err)
	}
	after := r.p.Load()
	if after.f != before.f || !slices.Equal(after.reads, before.reads) {
		t.Fatalf("placement is f=%d over objects %v after the abort, want the old f=%d over %v", after.f, after.reads, before.f, before.reads)
	}
	if r.F() != 1 || r.ResourceComplexity() != 3 {
		t.Errorf("f=%d resources=%d after the abort, want 1 and 3", r.F(), r.ResourceComplexity())
	}
	if err := w.Write(ctx, 12); err != nil {
		t.Fatalf("write after the abort: %v", err)
	}
	if v, err := r.NewReader().Read(ctx); err != nil || v != 12 {
		t.Fatalf("read after the abort = %d, %v, want 12", v, err)
	}
}

func TestWriterRange(t *testing.T) {
	r := newTestRegister(t, 2, 1)
	for _, i := range []int{-1, 2, 99} {
		if _, err := r.Writer(i); err == nil {
			t.Errorf("Writer(%d) accepted", i)
		}
	}
	w, err := r.Writer(1)
	if err != nil {
		t.Fatalf("Writer(1): %v", err)
	}
	if w.Client() != 1 {
		t.Errorf("Client = %d, want 1", w.Client())
	}
}

func TestReaderIDsFreshAndDisjoint(t *testing.T) {
	r := newTestRegister(t, 2, 1)
	r1, r2 := r.NewReader(), r.NewReader()
	if r1.Client() == r2.Client() {
		t.Error("two readers share a client ID")
	}
	if r1.Client() < emulation.ReaderIDBase || r2.Client() < emulation.ReaderIDBase {
		t.Error("reader IDs collide with writer space")
	}
}

func TestHistoryRecording(t *testing.T) {
	r := newTestRegister(t, 2, 1)
	hist := r.History()
	ctx := context.Background()
	w, err := r.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ctx, 11); err != nil {
		t.Fatal(err)
	}
	v, err := r.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 11 {
		t.Fatalf("Read = %d, want 11", v)
	}
	ops := hist.Snapshot()
	if len(ops) != 2 {
		t.Fatalf("recorded %d ops, want 2", len(ops))
	}
	if ops[0].Kind != spec.KindWrite || !ops[0].Complete || ops[0].Arg != 11 {
		t.Errorf("write op = %+v", ops[0])
	}
	if ops[1].Kind != spec.KindRead || !ops[1].Complete || ops[1].Out != 11 {
		t.Errorf("read op = %+v", ops[1])
	}
	if err := spec.CheckWSSafety(ops, types.InitialValue); err != nil {
		t.Errorf("WS-Safety: %v", err)
	}
}

func TestFailedOpsStayPendingInHistory(t *testing.T) {
	r := newTestRegister(t, 1, 1)
	hist := r.History()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // everything fails immediately
	w, err := r.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ctx, 5); err == nil {
		t.Fatal("write with cancelled ctx succeeded")
	}
	if _, err := r.NewReader().Read(ctx); err == nil {
		t.Fatal("read with cancelled ctx succeeded")
	}
	ops := hist.Snapshot()
	if len(ops) != 2 {
		t.Fatalf("recorded %d ops, want 2", len(ops))
	}
	for _, op := range ops {
		if op.Complete {
			t.Errorf("failed op recorded as complete: %+v", op)
		}
	}
}
