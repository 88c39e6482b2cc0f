package quorumreg

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// memStore is a minimal in-memory max-store whose both sides are started.
type memStore struct {
	server types.ServerID

	mu  sync.Mutex
	val types.TSValue
}

var (
	_ abdcore.ReadStarter  = (*memStore)(nil)
	_ abdcore.WriteStarter = (*memStore)(nil)
)

func (s *memStore) Server() types.ServerID { return s.server }

func (s *memStore) StartWriteMax(_ context.Context, _ types.ClientID, v types.TSValue, report func(types.TSValue, error)) {
	s.mu.Lock()
	s.val = types.MaxTSValue(s.val, v)
	got := s.val
	s.mu.Unlock()
	report(got, nil)
}

func (s *memStore) StartReadMax(_ context.Context, _ types.ClientID, report func(types.TSValue, error)) {
	s.mu.Lock()
	got := s.val
	s.mu.Unlock()
	report(got, nil)
}

func newTestRegister(t *testing.T, k, f int, hist *spec.History) *Register {
	t.Helper()
	stores := make([]abdcore.MaxStore, 2*f+1)
	for i := range stores {
		stores[i] = &memStore{server: types.ServerID(i)}
	}
	c, err := cluster.New(len(stores))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Name:      "test-reg",
		K:         k,
		F:         f,
		Stores:    stores,
		Fabric:    fabric.New(c),
		Resources: len(stores),
		History:   hist,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestMetadata(t *testing.T) {
	r := newTestRegister(t, 3, 1, nil)
	if r.Name() != "test-reg" || r.K() != 3 || r.F() != 1 || r.ResourceComplexity() != 3 {
		t.Fatalf("metadata = %s/%d/%d/%d", r.Name(), r.K(), r.F(), r.ResourceComplexity())
	}
	if r.History() == nil {
		t.Fatal("nil history not replaced")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{K: 0, F: 1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(Config{K: 1, F: 1, Stores: nil}); err == nil {
		t.Error("no stores accepted")
	}
}

func TestWriterRange(t *testing.T) {
	r := newTestRegister(t, 2, 1, nil)
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
	r := newTestRegister(t, 2, 1, nil)
	r1, r2 := r.NewReader(), r.NewReader()
	if r1.Client() == r2.Client() {
		t.Error("two readers share a client ID")
	}
	if r1.Client() < emulation.ReaderIDBase || r2.Client() < emulation.ReaderIDBase {
		t.Error("reader IDs collide with writer space")
	}
}

func TestHistoryRecording(t *testing.T) {
	hist := &spec.History{}
	r := newTestRegister(t, 2, 1, hist)
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
	hist := &spec.History{}
	r := newTestRegister(t, 1, 1, hist)
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
