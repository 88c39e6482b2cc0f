package abdcore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/types"
)

// testChain is a test register's write-max when it is a chain: one
// triggered write-max on the store's one max-register. It counts the chains
// it started on each object and fails those on an object it is told to. On
// the in-process lane everything completes inline, so an operation has
// completed — or, with more than f servers crashed, is pending forever — by
// the time its Start returns.
type testChain struct {
	fab *fabric.Fabric

	mu     sync.Mutex
	starts map[types.ObjectID]int
	fail   map[types.ObjectID]error // a write-max on the object reports it instead of writing
}

func newTestChain(fab *fabric.Fabric) *testChain {
	return &testChain{fab: fab, starts: make(map[types.ObjectID]int), fail: make(map[types.ObjectID]error)}
}

func (c *testChain) StartWriteMax(_ context.Context, client types.ClientID, objs []types.ObjectID, v, _ types.TSValue, report func(types.TSValue, error)) {
	c.mu.Lock()
	c.starts[objs[0]]++
	err := c.fail[objs[0]]
	c.mu.Unlock()
	if err != nil {
		report(types.ZeroTSValue, err)
		return
	}
	c.fab.TriggerBatch(client, &fabric.Group{
		Ops:  []fabric.BatchOp{{Object: objs[0], Inv: baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v}}},
		Done: func(_ int, o *fabric.Outcome) { report(o.Resp.Val, o.Err) },
	})
}

func (c *testChain) Seed(rs *fabric.Reshaper, objs []types.ObjectID, m types.TSValue) error {
	_, err := rs.Apply(objs[0], baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: m})
	return err
}

// startsOn returns how many write-max chains started on obj.
func (c *testChain) startsOn(obj types.ObjectID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.starts[obj]
}

// placeMax is the test recipe: one max-register per store.
func placeMax(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
	obj, err := c.PlaceMaxRegister(server)
	if err != nil {
		return objs, err
	}
	return append(objs, obj), nil
}

// shape selects the write-max of a test register: one op, or a chain.
type shape bool

const (
	oneOp   shape = false
	chained shape = true
)

// newTestReg builds a 2-writer register at f over a fresh in-process cluster
// of 2f+1 servers and returns it with its fabric, its chain (nil for a
// one-op register) and its stores' objects in placement order.
func newTestReg(t *testing.T, f int, sh shape, atomicReads bool) (*Register, *fabric.Fabric, *testChain, []types.ObjectID) {
	t.Helper()
	c, err := cluster.New(2*f + 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetF(f)
	fab := fabric.New(c)
	cfg := Config{Name: "test-reg", K: 2, Fabric: fab, Options: emulation.Options{Atomic: atomicReads}, Place: placeMax}
	var ch *testChain
	if sh == chained {
		ch = newTestChain(fab)
		cfg.Chain = ch
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, fab, ch, slices.Clone(r.p.Load().reads)
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
func stateOf(t *testing.T, fab *fabric.Fabric, obj types.ObjectID) types.TSValue {
	t.Helper()
	resp, err := fab.Cluster().Apply(obj, 0, baseobj.Invocation{Op: baseobj.OpReadMax})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Val
}

// TestEngineValidation: the register's thresholds come from the placement,
// and a config is rejected when it names no recipe, or when its stores'
// objects have no one-op write-max and it has no chain, or when its recipe
// fails, or when its stores differ in size or a one-op write-max would have
// to cover stores of two objects — and a rejected config leaves no base
// object behind.
func TestEngineValidation(t *testing.T) {
	r, _, _, _ := newTestReg(t, 1, oneOp, false)
	if p := r.p.Load(); p.quorum(r.per) != 2 || r.F() != 1 || r.per != 1 {
		t.Errorf("quorum=%d f=%d objects per store=%d, want 2, 1, 1", p.quorum(r.per), r.F(), r.per)
	}
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	c.SetF(1)
	fab := fabric.New(c)
	placeCAS := func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
		obj, err := c.PlaceCASCell(server)
		if err != nil {
			return objs, err
		}
		return append(objs, obj), nil
	}
	failOn1 := func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
		if server == 1 {
			return objs, errors.New("server 1 refuses")
		}
		return placeMax(c, server, objs)
	}
	placeTwo := func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
		objs, err := placeMax(c, server, objs)
		if err != nil {
			return objs, err
		}
		return placeMax(c, server, objs)
	}
	uneven := func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
		if server == 1 {
			return placeTwo(c, server, objs)
		}
		return placeMax(c, server, objs)
	}
	for _, cfg := range []Config{
		{Name: "no recipe"},
		{Name: "CAS cells without a chain", Place: placeCAS},
		{Name: "a recipe that fails on server 1", Place: failOn1},
		{Name: "a one-op write-max over stores of two objects", Place: placeTwo},
		{Name: "stores of one and two objects", Chain: newTestChain(fab), Place: uneven},
	} {
		cfg.K, cfg.Fabric = 1, fab
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", cfg.Name)
		}
		if got := c.ResourceComplexity(); got != 0 {
			t.Fatalf("%s: the rejected config left %d base objects", cfg.Name, got)
		}
	}
}

// TestWriteThenRead drives the chain on the in-process lane: the whole
// collect/push chain completes inline, so done has fired by the time
// StartWrite returns — for both write shapes.
func TestWriteThenRead(t *testing.T) {
	for _, sh := range []shape{oneOp, chained} {
		r, _, _, _ := newTestReg(t, 1, sh, false)
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
	r, fab, _, objs := newTestReg(t, 1, oneOp, false)
	for i := 1; i <= 5; i++ {
		if err := write(context.Background(), r, types.ClientID(i%2), types.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, obj := range objs {
		if v := stateOf(t, fab, obj); v.TS != 5 || v.Val != 5 {
			t.Errorf("store %d holds %v, want ts 5 val 5", i, v)
		}
	}
}

func TestToleratesFSilentStores(t *testing.T) {
	for _, sh := range []shape{oneOp, chained} {
		r, fab, _, _ := newTestReg(t, 2, sh, false)
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
	r, fab, _, _ := newTestReg(t, 1, oneOp, false)
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
	c.SetF(1)
	fab := fabric.New(c)
	r, err := New(Config{Name: "failing read", K: 1, Fabric: fab, Place: func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
		if server == 1 {
			// A store whose object is a CAS cell, which rejects the read-max
			// of the first store's max-register. It answers second, before
			// the quorum.
			obj, err := c.PlaceCASCell(server)
			return append(objs, obj), err
		}
		return placeMax(c, server, objs)
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

	r, _, ch, objs := newTestReg(t, 1, chained, false)
	boom := errors.New("boom")
	ch.fail[objs[0]] = boom
	if err := write(context.Background(), r, 0, 7); !errors.Is(err, boom) {
		t.Fatalf("write over a failing chain: %v, want boom", err)
	}
}

// TestReadWriteBack: an atomic read writes back only to the stores outside
// its collect's agreement set, at n = 3, f = 1 on chain stores. A read of a
// settled register starts no chain. After a write that reached store 0 only,
// a read whose collect folds stores 0 and 1 (the in-process lane answers in
// order) agrees on store 0 alone and starts chains on stores 1 and 2, never
// on store 0; with store 0's server crashed, a later read still sees the
// value. A regular read never writes.
func TestReadWriteBack(t *testing.T) {
	r, fab, ch, objs := newTestReg(t, 1, chained, true)
	ctx := context.Background()
	starts := func() []int {
		var n []int
		for _, obj := range objs {
			n = append(n, ch.startsOn(obj))
		}
		return n
	}
	if err := write(ctx, r, 0, 9); err != nil {
		t.Fatal(err)
	}
	before := starts()
	if got, err := read(ctx, r, 100); err != nil || got != 9 {
		t.Fatalf("settled read = %d, %v; want 9", got, err)
	}
	if after := starts(); !slices.Equal(after, before) {
		t.Errorf("a read of a settled register started chains: %v -> %v", before, after)
	}

	v := types.TSValue{TS: 50, Writer: 1, Val: 11}
	if _, err := fab.Cluster().Apply(objs[0], v.Writer, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v}); err != nil {
		t.Fatal(err)
	}
	before = starts()
	if got, err := read(ctx, r, 100); err != nil || got != 11 {
		t.Fatalf("read after a write on store 0 only = %d, %v; want 11", got, err)
	}
	after := starts()
	for i, want := range []int{0, 1, 1} {
		if got := after[i] - before[i]; got != want {
			t.Errorf("store %d: the write-back started %d chains, want %d", i, got, want)
		}
	}
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	if got, err := read(ctx, r, 100); err != nil || got != 11 {
		t.Fatalf("read without store 0 = %d, %v; want 11", got, err)
	}

	r, _, ch, objs = newTestReg(t, 1, chained, false)
	if _, err := read(ctx, r, 100); err != nil {
		t.Fatal(err)
	}
	for i, obj := range objs {
		if ch.startsOn(obj) != 0 {
			t.Errorf("store %d: reader wrote without write-back", i)
		}
	}
}

// TestWriteBackAfterReshapeRunsEveryChain: an atomic read's agreement set
// names stores by their index in the placement its collect planned against,
// so once a reshape published another placement — here a grow by one
// member, which keeps all three stores — the write-back ignores the set and
// runs every store's chain, where the same read without the reshape runs
// none.
func TestWriteBackAfterReshapeRunsEveryChain(t *testing.T) {
	r, fab, ch, objs := newTestReg(t, 1, chained, true)
	ctx := context.Background()
	if err := write(ctx, r, 0, 9); err != nil {
		t.Fatal(err)
	}
	var before []int
	for _, obj := range objs {
		before = append(before, ch.startsOn(obj))
	}
	got, readErr := types.InitialValue, errPending
	c := r.newChain(ctx, 100)
	c.onRead = func(v types.Value, err error) { got, readErr = v, err }
	c.onCollect = func(cur types.TSValue, agree uint64, err error) {
		c.onCollect = c.collected // the record goes back to the pool
		if agree != 0b11 {
			t.Errorf("agreement set %b, want stores 0 and 1", agree)
		}
		resized := make(chan error, 1)
		go func() {
			_, err := fab.Resize(ctx, fabric.ResizeSpec{Join: make([]fabric.LaneMaker, 1)}, r.Reshape)
			resized <- err
		}()
		select {
		case err := <-resized:
			if err != nil {
				t.Fatalf("grow: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("grow did not finish")
		}
		if r.p.Load() == c.planned {
			t.Fatal("the grow kept the collect's placement")
		}
		c.collected(cur, agree, err)
	}
	c.collect()
	if readErr != nil || got != 9 {
		t.Fatalf("read = %d, %v; want 9", got, readErr)
	}
	for i, obj := range objs {
		if n := ch.startsOn(obj) - before[i]; n != 1 {
			t.Errorf("store %d: the write-back started %d chains, want 1", i, n)
		}
	}
}

// TestWriteStartsEveryChainAfterAnAtomicRead: an operation record comes
// from a pool shared by every register, and an atomic read's agreement set
// must not outlive its read. A one-op register's atomic read of a settled
// value agrees on its collect's stores and pushes without consuming the set;
// a chain register's next write — on the record the read just returned,
// wherever the pool keeps it — still starts a chain on every store and lands
// on all of them.
func TestWriteStartsEveryChainAfterAnAtomicRead(t *testing.T) {
	oneOpReg, _, _, _ := newTestReg(t, 1, oneOp, true)
	r, fab, ch, objs := newTestReg(t, 1, chained, false)
	ctx := context.Background()
	if err := write(ctx, oneOpReg, 0, 5); err != nil {
		t.Fatal(err)
	}
	for v := types.Value(1); v <= 3; v++ {
		if got, err := read(ctx, oneOpReg, 100); err != nil || got != 5 {
			t.Fatalf("atomic read = %d, %v; want 5", got, err)
		}
		if err := write(ctx, r, 0, v); err != nil {
			t.Fatal(err)
		}
		for i, obj := range objs {
			if n := ch.startsOn(obj); n != int(v) {
				t.Errorf("write %d: %d chains on store %d, want %d", v, n, i, v)
			}
			if st := stateOf(t, fab, obj); st.Val != v {
				t.Errorf("write %d: store %d holds %v", v, i, st)
			}
		}
	}
}

func TestCollectReturnsMaximum(t *testing.T) {
	r, fab, _, objs := newTestReg(t, 1, oneOp, false)
	for i, v := range []types.TSValue{{TS: 3, Writer: 0, Val: 30}, {TS: 7, Writer: 1, Val: 70}, {TS: 5, Writer: 2, Val: 50}} {
		if _, err := fab.Cluster().Apply(objs[i], v.Writer, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v}); err != nil {
			t.Fatal(err)
		}
	}
	// The collect completes on the quorum'th (2nd) response; the in-process
	// lane answers inline in order, so it folds stores 0 and 1.
	var got types.TSValue
	c := r.newChain(context.Background(), 0)
	c.onCollect = func(v types.TSValue, _ uint64, err error) {
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
	r, fab, ch, objs := newTestReg(t, 1, chained, false)
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
	c.onCollect = func(cur types.TSValue, _ uint64, _ error) {
		cancel() // the caller gives up while the collect completes
		c.v = types.TSValue{TS: cur.TS + 1, Val: 7}
		c.push()
	}
	c.onPush = func(_ types.TSValue, _ uint64, pushErr error) { err = pushErr }
	c.collect()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("push after cancel: %v", err)
	}
	for i, obj := range objs {
		if ch.startsOn(obj) != 0 {
			t.Fatalf("store %d: push started after its context was cancelled", i)
		}
	}
}

// heldChain is a chain whose store write-maxes the test reports by hand: it
// records each start's report and signals it.
type heldChain struct {
	mu      sync.Mutex
	reports []func(types.TSValue, error)
	started chan struct{}
}

func (c *heldChain) StartWriteMax(_ context.Context, _ types.ClientID, _ []types.ObjectID, _, _ types.TSValue, report func(types.TSValue, error)) {
	c.mu.Lock()
	c.reports = append(c.reports, report)
	c.mu.Unlock()
	c.started <- struct{}{}
}

func (c *heldChain) Seed(rs *fabric.Reshaper, objs []types.ObjectID, m types.TSValue) error {
	_, err := rs.Apply(objs[0], baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: m})
	return err
}

// report runs start i's report.
func (c *heldChain) report(i int, v types.TSValue, err error) {
	c.mu.Lock()
	report := c.reports[i]
	c.mu.Unlock()
	report(v, err)
}

// TestChainPushRetryIgnoresBouncedStragglers: a push over chain stores that
// a view change bounced restarts every store, and the stores of the bounced
// attempt that report afterwards — successes against the old placement —
// must not count toward the retry's quorum: the write completes only once
// the retry's own stores reported.
func TestChainPushRetryIgnoresBouncedStragglers(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	c.SetF(1)
	fab := fabric.New(c)
	ch := &heldChain{started: make(chan struct{}, 16)}
	r, err := New(Config{Name: "held", K: 1, Fabric: fab, Place: placeMax, Chain: ch})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	awaitStarts := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-ch.started:
			case <-ctx.Done():
				t.Fatalf("%d of %d store write-maxes started", i, n)
			}
		}
	}
	done := make(chan error, 1)
	r.StartWrite(ctx, 0, 9, func(err error) { done <- err })
	awaitStarts(3)
	v := types.TSValue{TS: 1, Writer: 0, Val: 9}
	ch.report(0, types.ZeroTSValue, fmt.Errorf("%w: store 0", fabric.ErrViewChanged))
	// The bounced push parks on the view stamp; a grow by one member ends a
	// transition and lets it restart every store.
	if _, err := fab.Resize(ctx, fabric.ResizeSpec{Join: make([]fabric.LaneMaker, 1)}, r.Reshape); err != nil {
		t.Fatalf("grow: %v", err)
	}
	awaitStarts(3)
	ch.report(1, v, nil) // the bounced attempt's stragglers
	ch.report(2, v, nil)
	select {
	case err := <-done:
		t.Fatalf("the write completed (%v) on the bounced attempt's reports", err)
	default:
	}
	ch.report(3, v, nil)
	ch.report(4, v, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("the write did not complete on the retry's quorum")
	}
}
