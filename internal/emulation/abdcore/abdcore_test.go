package abdcore

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/types"
)

// fakeStore is an in-memory started max-store with controllable delivery:
// silent stores never report (like crashed or held base objects), failing
// stores report an error. It reports inline, so a chain over fake stores
// has completed — or is pending forever — by the time its Start returns.
type fakeStore struct {
	server types.ServerID

	mu      sync.Mutex
	val     types.TSValue
	silent  bool
	failErr error

	writeMaxCalls int
	readMaxCalls  int
}

var (
	_ ReadStarter  = (*fakeStore)(nil)
	_ WriteStarter = (*fakeStore)(nil)
)

func (s *fakeStore) Server() types.ServerID { return s.server }

// Fake stores own no base objects and are never resized.
func (s *fakeStore) Objects() []types.ObjectID                  { return nil }
func (s *fakeStore) Seed(*fabric.Reshaper, types.TSValue) error { return nil }

func (s *fakeStore) StartWriteMax(_ context.Context, _ types.ClientID, v types.TSValue, report func(types.TSValue, error)) {
	s.mu.Lock()
	s.writeMaxCalls++
	if s.silent {
		s.mu.Unlock()
		return
	}
	if s.failErr != nil {
		err := s.failErr
		s.mu.Unlock()
		report(types.ZeroTSValue, err)
		return
	}
	s.val = types.MaxTSValue(s.val, v)
	got := s.val
	s.mu.Unlock()
	report(got, nil)
}

func (s *fakeStore) StartReadMax(_ context.Context, _ types.ClientID, report func(types.TSValue, error)) {
	s.mu.Lock()
	s.readMaxCalls++
	if s.silent {
		s.mu.Unlock()
		return
	}
	if s.failErr != nil {
		err := s.failErr
		s.mu.Unlock()
		report(types.ZeroTSValue, err)
		return
	}
	got := s.val
	s.mu.Unlock()
	report(got, nil)
}

// newFakes builds n fake stores.
func newFakes(n int) ([]*fakeStore, []MaxStore) {
	fakes := make([]*fakeStore, n)
	stores := make([]MaxStore, n)
	for i := range fakes {
		fakes[i] = &fakeStore{server: types.ServerID(i)}
		stores[i] = fakes[i]
	}
	return fakes, stores
}

// newEngine builds an engine over the stores; fake stores never touch the
// fabric, which only carries direct rounds.
func newEngine(t *testing.T, stores []MaxStore, f int, opts ...Option) *Engine {
	t.Helper()
	c, err := cluster.New(len(stores))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(fabric.New(c), stores, 2, f, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// errPending marks a chain that did not complete inline: over fake stores,
// one that never will.
var errPending = errors.New("operation pending")

func write(ctx context.Context, e *Engine, client types.ClientID, v types.Value) error {
	err := errPending
	e.StartWrite(ctx, client, v, func(got error) { err = got })
	return err
}

func read(ctx context.Context, e *Engine, client types.ClientID) (types.Value, error) {
	v, err := types.InitialValue, errPending
	e.StartRead(ctx, client, func(got types.Value, gotErr error) { v, err = got, gotErr })
	return v, err
}

func TestEngineValidation(t *testing.T) {
	_, stores := newFakes(3)
	if _, err := New(nil, stores, 1, 0); err == nil {
		t.Error("f=0 accepted")
	}
	if _, err := New(nil, stores[:2], 1, 1); !errors.Is(err, ErrTooFewStores) {
		t.Errorf("2 stores for f=1 err = %v, want ErrTooFewStores", err)
	}
	type bare struct{ MaxStore }
	if _, err := New(nil, []MaxStore{stores[0], stores[1], bare{stores[2]}}, 1, 1); err == nil {
		t.Error("a store with neither a direct nor a started read-max was accepted")
	}
	if e := newEngine(t, stores, 1); e.Quorum() != 2 {
		t.Errorf("Quorum = %d, want 2", e.Quorum())
	}
}

// TestWriteThenRead drives the chain over synchronous stores: the whole
// collect/push chain completes inline, so done has fired by the time
// StartWrite returns.
func TestWriteThenRead(t *testing.T) {
	_, stores := newFakes(3)
	e := newEngine(t, stores, 1)
	ctx := context.Background()
	if err := write(ctx, e, 0, 42); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got, err := read(ctx, e, 100); err != nil || got != 42 {
		t.Fatalf("read = %d, %v; want 42", got, err)
	}
}

func TestTimestampsIncrease(t *testing.T) {
	fakes, stores := newFakes(3)
	e := newEngine(t, stores, 1)
	for i := 1; i <= 5; i++ {
		if err := write(context.Background(), e, types.ClientID(i%2), types.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range fakes {
		if s.val.TS != 5 || s.val.Val != 5 {
			t.Errorf("store %d holds %v, want ts 5 val 5", i, s.val)
		}
	}
}

func TestToleratesFSilentStores(t *testing.T) {
	fakes, stores := newFakes(5)
	fakes[0].silent = true
	fakes[3].silent = true // f = 2 silent stores
	e := newEngine(t, stores, 2)
	ctx := context.Background()
	if err := write(ctx, e, 0, 7); err != nil {
		t.Fatalf("write with f silent stores: %v", err)
	}
	if got, err := read(ctx, e, 100); err != nil || got != 7 {
		t.Fatalf("read with f silent stores = %d, %v; want 7", got, err)
	}
}

// TestPendingBeyondFSilentStores checks the pending-op semantics: with f+1
// silent stores done must never fire.
func TestPendingBeyondFSilentStores(t *testing.T) {
	fakes, stores := newFakes(3)
	fakes[0].silent = true
	fakes[1].silent = true // more than f = 1
	e := newEngine(t, stores, 1)
	if err := write(context.Background(), e, 0, 7); err != errPending {
		t.Fatalf("write with f+1 silent stores completed (%v), want pending forever", err)
	}
	if _, err := read(context.Background(), e, 100); err != errPending {
		t.Fatalf("read with f+1 silent stores completed (%v), want pending forever", err)
	}
}

// TestStoreErrorFailsFast: stores report inline in order, so a failing
// store's error is seen before the quorum and fails the operation at once.
func TestStoreErrorFailsFast(t *testing.T) {
	fakes, stores := newFakes(3)
	boom := errors.New("boom")
	fakes[0].failErr = boom
	e := newEngine(t, stores, 1)
	if err := write(context.Background(), e, 0, 7); !errors.Is(err, boom) {
		t.Fatalf("write err = %v, want boom", err)
	}
	if _, err := read(context.Background(), e, 100); !errors.Is(err, boom) {
		t.Fatalf("read err = %v, want boom", err)
	}
}

func TestReadWriteBack(t *testing.T) {
	fakes, stores := newFakes(3)
	e := newEngine(t, stores, 1, WithReadWriteBack())
	ctx := context.Background()
	if err := write(ctx, e, 0, 9); err != nil {
		t.Fatal(err)
	}
	before := fakes[0].writeMaxCalls
	if _, err := read(ctx, e, 100); err != nil {
		t.Fatal(err)
	}
	if fakes[0].writeMaxCalls <= before {
		t.Error("read with write-back did not write")
	}

	// Without write-back, reads never write.
	fakes2, stores2 := newFakes(3)
	if _, err := read(ctx, newEngine(t, stores2, 1), 100); err != nil {
		t.Fatal(err)
	}
	for i, s := range fakes2 {
		if s.writeMaxCalls != 0 {
			t.Errorf("store %d: reader wrote without write-back", i)
		}
	}
}

func TestCollectReturnsMaximum(t *testing.T) {
	fakes, stores := newFakes(3)
	fakes[0].val = types.TSValue{TS: 3, Writer: 0, Val: 30}
	fakes[1].val = types.TSValue{TS: 7, Writer: 1, Val: 70}
	fakes[2].val = types.TSValue{TS: 5, Writer: 2, Val: 50}
	e := newEngine(t, stores, 1)
	// The collect completes on the quorum'th (2nd) report; stores report
	// inline in order, so it folds stores 0 and 1.
	var got types.TSValue
	c := e.newChain(context.Background(), 0)
	c.onCollect = func(v types.TSValue, err error) {
		if err != nil {
			t.Errorf("collect: %v", err)
		}
		got = v
	}
	c.collect()
	if got.TS != 7 {
		t.Fatalf("collect ts = %d, want 7", got.TS)
	}
}

// TestCancelledContextStartsNoRound: an operation whose context is done
// reports the context's error without starting a store, and one cancelled
// between its collect and its push never pushes.
func TestCancelledContextStartsNoRound(t *testing.T) {
	fakes, stores := newFakes(3)
	e := newEngine(t, stores, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := write(ctx, e, 0, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("write on a cancelled context: %v", err)
	}
	if _, err := read(ctx, e, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("read on a cancelled context: %v", err)
	}
	for i, s := range fakes {
		if s.readMaxCalls != 0 || s.writeMaxCalls != 0 {
			t.Fatalf("store %d was started on a cancelled context", i)
		}
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var err error
	c := e.newChain(ctx, 0)
	c.onCollect = func(cur types.TSValue, _ error) {
		cancel() // the caller gives up while the collect completes
		c.v = types.TSValue{TS: cur.TS + 1, Val: 7}
		c.push()
	}
	c.onPush = func(_ types.TSValue, pushErr error) { err = pushErr }
	c.collect()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("push after cancel: %v", err)
	}
	for i, s := range fakes {
		if s.writeMaxCalls != 0 {
			t.Fatalf("store %d: push started after its context was cancelled", i)
		}
	}
}
