package abdcore

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/types"
)

// testStore is one max-register base object. On a register with a WriteOp
// its write-max is that one op; otherwise it is a Chain whose write-max is
// one triggered write-max, and it counts the chains it started. On the
// in-process lane everything completes inline, so an operation has
// completed — or, with more than f servers crashed, is pending forever — by
// the time its Start returns.
type testStore struct {
	Store[ReadsMaxRegister]
	fab *fabric.Fabric

	failErr error // a chain write-max reports it instead of writing
	starts  atomic.Int64
}

func (s *testStore) StartWriteMax(_ context.Context, client types.ClientID, v types.TSValue, report func(types.TSValue, error)) {
	s.starts.Add(1)
	if s.failErr != nil {
		report(types.ZeroTSValue, s.failErr)
		return
	}
	s.fab.TriggerFn(client, s.Obj, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v}, func(o fabric.Outcome) {
		report(o.Resp.Val, o.Err)
	})
}

func (s *testStore) Seed(rs *fabric.Reshaper, m types.TSValue) error {
	_, err := rs.Apply(s.Obj, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: m})
	return err
}

// newTestStore places a testStore on server.
func newTestStore(fab *fabric.Fabric, server types.ServerID) (*testStore, error) {
	obj, err := fab.Cluster().PlaceMaxRegister(server)
	if err != nil {
		return nil, err
	}
	return &testStore{Store: Store[ReadsMaxRegister]{Obj: obj, Host: server}, fab: fab}, nil
}

// placeTest is the testStore recipe on fab; placed collects the stores in
// placement order.
func placeTest(fab *fabric.Fabric, placed *[]*testStore) func(types.ServerID) (MaxStore, error) {
	return func(server types.ServerID) (MaxStore, error) {
		s, err := newTestStore(fab, server)
		if err != nil {
			return nil, err
		}
		*placed = append(*placed, s)
		return s, nil
	}
}

// shape selects the write-max of a test register: one op, or a chain.
type shape bool

const (
	oneOp   shape = false
	chained shape = true
)

// newTestReg builds a 2-writer register at f over a fresh in-process cluster
// of 2f+1 servers and returns it with its fabric and its stores.
func newTestReg(t *testing.T, f int, sh shape, atomicReads bool) (*Register, *fabric.Fabric, []*testStore) {
	t.Helper()
	c, err := cluster.New(2*f + 1)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	var stores []*testStore
	cfg := Config{Name: "test-reg", K: 2, F: f, Fabric: fab, Options: emulation.Options{Atomic: atomicReads}, Place: placeTest(fab, &stores)}
	if sh == oneOp {
		cfg.WriteOp = baseobj.OpWriteMax
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, fab, stores
}

// errPending marks an operation that did not complete inline: on the
// in-process lane, one that never will.
var errPending = errors.New("operation pending")

func write(ctx context.Context, r *Register, client types.ClientID, v types.Value) error {
	err := errPending
	r.StartWrite(ctx, client, v, func(got error) { err = got })
	return err
}

func read(ctx context.Context, r *Register, client types.ClientID) (types.Value, error) {
	v, err := types.InitialValue, errPending
	r.StartRead(ctx, client, func(got types.Value, gotErr error) { v, err = got, gotErr })
	return v, err
}

// stateOf reads a test store's object directly.
func stateOf(t *testing.T, fab *fabric.Fabric, s *testStore) types.TSValue {
	t.Helper()
	resp, err := fab.Cluster().Apply(s.Obj, 0, baseobj.Invocation{Op: baseobj.OpReadMax})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Val
}

// TestEngineValidation: the register's thresholds come from the placement,
// and a recipe whose stores fit neither write shape is rejected.
func TestEngineValidation(t *testing.T) {
	r, _, _ := newTestReg(t, 1, oneOp, false)
	if p := r.p.Load(); p.quorum() != 2 || r.F() != 1 || r.scan {
		t.Errorf("quorum=%d f=%d scan=%v, want 2, 1, false", p.quorum(), r.F(), r.scan)
	}
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	type bare struct{ MaxStore } // no write-max of its own
	if _, err := New(Config{Name: "bare", K: 1, F: 1, Fabric: fab, Place: func(server types.ServerID) (MaxStore, error) {
		s, err := newTestStore(fab, server)
		return bare{s}, err
	}}); err == nil {
		t.Error("a chain register over stores without a write-max was accepted")
	}
	if _, err := New(Config{Name: "two objects", K: 1, F: 1, Fabric: fab, WriteOp: baseobj.OpWriteMax, Place: func(server types.ServerID) (MaxStore, error) {
		a, err := newTestStore(fab, server)
		if err != nil {
			return nil, err
		}
		b, err := newTestStore(fab, server)
		return twoStores{a, b}, err
	}}); err == nil {
		t.Error("a one-op write-max over stores of two objects was accepted")
	}
}

// twoStores reads two objects: no one-op write-max can cover it.
type twoStores [2]*testStore

func (s twoStores) Server() types.ServerID    { return s[0].Host }
func (s twoStores) Objects() []types.ObjectID { return []types.ObjectID{s[0].Obj, s[1].Obj} }
func (s twoStores) ReadMax(buf []rounds.Target) []rounds.Target {
	return s[1].ReadMax(s[0].ReadMax(buf))
}

// TestWriteThenRead drives the chain on the in-process lane: the whole
// collect/push chain completes inline, so done has fired by the time
// StartWrite returns — for both write shapes.
func TestWriteThenRead(t *testing.T) {
	for _, sh := range []shape{oneOp, chained} {
		r, _, _ := newTestReg(t, 1, sh, false)
		ctx := context.Background()
		if err := write(ctx, r, 0, 42); err != nil {
			t.Fatalf("chained=%v: write: %v", sh, err)
		}
		if got, err := read(ctx, r, 100); err != nil || got != 42 {
			t.Fatalf("chained=%v: read = %d, %v; want 42", sh, got, err)
		}
	}
}

func TestTimestampsIncrease(t *testing.T) {
	r, fab, stores := newTestReg(t, 1, oneOp, false)
	for i := 1; i <= 5; i++ {
		if err := write(context.Background(), r, types.ClientID(i%2), types.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range stores {
		if v := stateOf(t, fab, s); v.TS != 5 || v.Val != 5 {
			t.Errorf("store %d holds %v, want ts 5 val 5", i, v)
		}
	}
}

func TestToleratesFSilentStores(t *testing.T) {
	for _, sh := range []shape{oneOp, chained} {
		r, fab, _ := newTestReg(t, 2, sh, false)
		for _, s := range []types.ServerID{0, 3} { // f = 2 silent servers
			if err := fab.Crash(s); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		if err := write(ctx, r, 0, 7); err != nil {
			t.Fatalf("chained=%v: write with f silent stores: %v", sh, err)
		}
		if got, err := read(ctx, r, 100); err != nil || got != 7 {
			t.Fatalf("chained=%v: read with f silent stores = %d, %v; want 7", sh, got, err)
		}
	}
}

// TestPendingBeyondFSilentStores checks the pending-op semantics: with f+1
// silent stores done must never fire.
func TestPendingBeyondFSilentStores(t *testing.T) {
	r, fab, _ := newTestReg(t, 1, oneOp, false)
	for _, s := range []types.ServerID{0, 1} { // more than f = 1
		if err := fab.Crash(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := write(context.Background(), r, 0, 7); err != errPending {
		t.Fatalf("write with f+1 silent stores completed (%v), want pending forever", err)
	}
	if _, err := read(context.Background(), r, 100); err != errPending {
		t.Fatalf("read with f+1 silent stores completed (%v), want pending forever", err)
	}
}

// TestStoreErrorFailsFast: stores answer inline in order, so a failing
// store's error is seen before the quorum and fails the operation at once —
// a read-max the object rejects fails the collect, a failing chain the push.
func TestStoreErrorFailsFast(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	r, err := New(Config{Name: "failing read", K: 1, F: 1, Fabric: fab, WriteOp: baseobj.OpWriteMax, Place: func(server types.ServerID) (MaxStore, error) {
		s, err := newTestStore(fab, server)
		if err == nil && server == 0 {
			// A store reading its max-register with a CAS, which the object rejects.
			return &Store[ReadsCAS]{Obj: s.Obj, Host: server}, nil
		}
		return s, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := write(context.Background(), r, 0, 7); err == nil || err == errPending {
		t.Fatalf("write over a failing read-max: %v, want its error at once", err)
	}
	if _, err := read(context.Background(), r, 100); err == nil || err == errPending {
		t.Fatalf("read over a failing read-max: %v, want its error at once", err)
	}

	r, _, stores := newTestReg(t, 1, chained, false)
	boom := errors.New("boom")
	stores[0].failErr = boom
	if err := write(context.Background(), r, 0, 7); !errors.Is(err, boom) {
		t.Fatalf("write over a failing chain: %v, want boom", err)
	}
}

func TestReadWriteBack(t *testing.T) {
	r, _, stores := newTestReg(t, 1, chained, true)
	ctx := context.Background()
	if err := write(ctx, r, 0, 9); err != nil {
		t.Fatal(err)
	}
	before := stores[0].starts.Load()
	if _, err := read(ctx, r, 100); err != nil {
		t.Fatal(err)
	}
	if stores[0].starts.Load() <= before {
		t.Error("read with write-back did not write")
	}

	// Without write-back, reads never write.
	r, _, stores = newTestReg(t, 1, chained, false)
	if _, err := read(ctx, r, 100); err != nil {
		t.Fatal(err)
	}
	for i, s := range stores {
		if s.starts.Load() != 0 {
			t.Errorf("store %d: reader wrote without write-back", i)
		}
	}
}

func TestCollectReturnsMaximum(t *testing.T) {
	r, fab, stores := newTestReg(t, 1, oneOp, false)
	for i, v := range []types.TSValue{{TS: 3, Writer: 0, Val: 30}, {TS: 7, Writer: 1, Val: 70}, {TS: 5, Writer: 2, Val: 50}} {
		if _, err := fab.Cluster().Apply(stores[i].Obj, v.Writer, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v}); err != nil {
			t.Fatal(err)
		}
	}
	// The collect completes on the quorum'th (2nd) response; the in-process
	// lane answers inline in order, so it folds stores 0 and 1.
	var got types.TSValue
	c := r.newChain(context.Background(), 0)
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
// reports the context's error without triggering anything, and one cancelled
// between its collect and its push never pushes.
func TestCancelledContextStartsNoRound(t *testing.T) {
	r, fab, stores := newTestReg(t, 1, chained, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := write(ctx, r, 0, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("write on a cancelled context: %v", err)
	}
	if _, err := read(ctx, r, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("read on a cancelled context: %v", err)
	}
	if n := fab.Triggers(); n != 0 {
		t.Fatalf("%d low-level ops triggered on a cancelled context", n)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var err error
	c := r.newChain(ctx, 0)
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
	for i, s := range stores {
		if s.starts.Load() != 0 {
			t.Fatalf("store %d: push started after its context was cancelled", i)
		}
	}
}
