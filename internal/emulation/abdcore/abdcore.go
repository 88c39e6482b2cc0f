// Package abdcore is the quorum register shared by the max-register, CAS,
// aac-max and baseline emulations: the multi-writer ABD pattern [Attiya,
// Bar-Noy, Dolev 1995; Gilbert, Lynch, Shvartsman 2010] in which a write
// first collects the highest timestamp from a quorum, picks a larger one,
// and then pushes the timestamped value to a quorum; a read collects from a
// quorum and returns the value with the highest timestamp.
//
// The paper observes (Section 1, "Results") that the per-server code of
// multi-writer ABD is exactly the write-max / read-max interface of a
// max-register, so the register is parameterized by a MaxStore: one store
// per server, placed by the construction's recipe. Plugging in different
// stores yields the different quorum rows of Table 1; everything else —
// which 2f+1 servers host a store, the collect and the push, the writers'
// timestamp floor (emulation.Floor, shared with the coded register), the
// handles and the history, how a view resize re-places the stores — is this
// package's Register. Store is the one-object store three of the four
// recipes place: abd-max's max-register, naive's plain register, and
// abd-cas's CAS cell under its Algorithm 1 chain.
//
// The round mechanics (scatter, quorum threshold, crash adaptivity,
// view-change retry) live in the shared internal/emulation/rounds engine;
// this package is the collect/push chain on top of it.
package abdcore

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/emulation"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// MaxStore is one server's share of the register: a max-register over base
// objects of that server. A store whose server crashed simply never
// answers, like any faulty base object.
type MaxStore interface {
	// Server returns the hosting server.
	Server() types.ServerID
	// Objects returns the base objects backing the store — its share of
	// the construction's resource complexity, read when a view resize folds
	// the old placement's state and retired with a store the new one drops.
	Objects() []types.ObjectID
	// ReadMax appends the store's read-max to buf: one read of each of its
	// base objects. The collect scatters every store's reads as one round,
	// which completes once all but f stores answered all of theirs.
	ReadMax(buf []rounds.Target) []rounds.Target
}

// Store is a one-object store: base object Obj on server Host, read with
// R's invocation. The read is a type, not a field, so a store stays two
// pointer-free words that the allocator packs two to a block — three per
// abd-max key, and shardstore.TestKeyFootprintAllocCeiling counts them. A
// register built with a Config.WriteOp writes the object with one op too.
type Store[R StoreRead] struct {
	Obj  types.ObjectID
	Host types.ServerID
}

// StoreRead is a one-object store's read: ReadsMaxRegister, ReadsRegister or
// ReadsCAS.
type StoreRead interface{ Inv() baseobj.Invocation }

// The three one-object reads.
type (
	// ReadsMaxRegister reads a max-register (abd-max).
	ReadsMaxRegister struct{}
	// ReadsRegister reads a plain register (naive).
	ReadsRegister struct{}
	// ReadsCAS reads a CAS cell with Algorithm 1's no-op CAS(v0, v0)
	// (abd-cas).
	ReadsCAS struct{}
)

// Inv implements StoreRead.
func (ReadsMaxRegister) Inv() baseobj.Invocation { return baseobj.Invocation{Op: baseobj.OpReadMax} }

// Inv implements StoreRead.
func (ReadsRegister) Inv() baseobj.Invocation { return baseobj.Invocation{Op: baseobj.OpRead} }

// Inv implements StoreRead.
func (ReadsCAS) Inv() baseobj.Invocation {
	return baseobj.Invocation{Op: baseobj.OpCAS, Exp: types.ZeroTSValue, New: types.ZeroTSValue}
}

// Server implements MaxStore.
func (s *Store[R]) Server() types.ServerID { return s.Host }

// Objects implements MaxStore.
func (s *Store[R]) Objects() []types.ObjectID { return []types.ObjectID{s.Obj} }

// ReadInv is the store's read invocation.
func (s *Store[R]) ReadInv() baseobj.Invocation {
	var r R
	return r.Inv()
}

// ReadMax implements MaxStore: the one read.
func (s *Store[R]) ReadMax(buf []rounds.Target) []rounds.Target {
	return append(buf, rounds.Target{Object: s.Obj, Inv: s.ReadInv()})
}

// Chain is a store whose write-max is a chain of low-level operations it
// runs itself (casmax's Algorithm 1 loop, aacmax's one-write-in-flight
// cell), on a register built without a Config.WriteOp.
type Chain interface {
	MaxStore
	// StartWriteMax must not block and must start nothing once ctx is done;
	// report must be invoked at most once, when (and if) the write-max
	// completes.
	StartWriteMax(ctx context.Context, client types.ClientID, v types.TSValue, report func(types.TSValue, error))
	// Seed folds m, the non-zero maximum over the old placement, into the
	// store, so that every member of a resized placement holds at least
	// the last committed value. It runs only inside a fabric transition's
	// frozen window, where applying directly through rs cannot race client
	// operations.
	Seed(rs *fabric.Reshaper, m types.TSValue) error
}

// Config assembles a quorum register: the construction's options and its
// store recipe. The register records its own history (Register.History).
type Config struct {
	// Name identifies the construction.
	Name string
	// K is the number of writers; F the failure threshold.
	K, F int
	// Fabric is the fabric the stores trigger on.
	Fabric *fabric.Fabric
	// Options are the construction's: Atomic makes reads write the
	// collected maximum back to a quorum before returning; ValueSize, when
	// positive, sizes the payload a one-op write-max (WriteOp) carries.
	emulation.Options
	// Place is the construction's store recipe: it creates one server's
	// store together with its base objects. New calls it for each of the
	// 2f+1 hosts, Reshape for every server a view resize adds.
	Place func(server types.ServerID) (MaxStore, error)
	// WriteOp, when set, makes a write-max one low-level operation — WriteOp
	// of the value on the store's one base object (a max-register's
	// write-max, a plain register's overwrite), carrying a payload of
	// ValueSize bytes when ValueSize is positive — and the push one round
	// over every store. When it is zero every store is a Chain.
	WriteOp baseobj.OpCode
}

// placement is one epoch's worth of quorum geometry: the store set, the
// failure budget, and the read-max ops of every store. It is immutable once
// published — a resize installs a whole new placement — so every round
// derives its targets and its threshold from ONE snapshot and can never
// pair the new store set with the old budget or vice versa.
type placement struct {
	stores []MaxStore
	f      int
	reads  []rounds.Target
	chains []Chain // the stores again, when a write-max is a chain
}

func (p *placement) quorum() int { return len(p.stores) - p.f }

// Register implements emulation.Register over 2f+1 max-stores. It is safe
// for concurrent use by multiple clients; Reshape swaps the placement
// atomically while operations are in flight.
type Register struct {
	name      string
	k         int
	atomic    bool
	scan      bool // a store reads more than one object: the collect is a server scan
	writeOp   baseobj.OpCode
	valueSize int
	fab       *fabric.Fabric
	hist      *spec.History
	readers   emulation.ReaderIDs
	place     func(server types.ServerID) (MaxStore, error)
	p         atomic.Pointer[placement]
	floor     emulation.Floor
}

// Compile-time interface compliance checks.
var (
	_ emulation.Register      = (*Register)(nil)
	_ emulation.ViewResizable = (*Register)(nil)
)

// New places one store on each of the first 2f+1 members of the cluster's
// current view — servers 0..2f on an initial view, live members by
// construction after any transition — and builds the register over them.
func New(cfg Config) (*Register, error) {
	if err := emulation.ValidateWriters(cfg.K); err != nil {
		return nil, fmt.Errorf("abdcore: %s: %w", cfg.Name, err)
	}
	r := &Register{
		name:      cfg.Name,
		k:         cfg.K,
		atomic:    cfg.Atomic,
		writeOp:   cfg.WriteOp,
		valueSize: cfg.ValueSize,
		fab:       cfg.Fabric,
		hist:      &spec.History{},
		place:     cfg.Place,
		floor:     emulation.NewFloor(cfg.K),
	}
	p, _, err := r.arrange(cfg.Fabric.Cluster().Members(), cfg.F, nil)
	if err != nil {
		return nil, err
	}
	r.scan = len(p.reads) > len(p.stores)
	r.p.Store(p)
	// Record the failure budget on the view: resize coordinators default
	// their new threshold to it, and churn drivers guard shrinks with it.
	cfg.Fabric.Cluster().SetF(cfg.F)
	return r, nil
}

// arrange is the one place a placement is built and checked: it keeps the
// stores of old hosted on members (in order, up to 2f+1), places fresh
// stores on the next members hosting none, and returns the placement with
// the old stores it dropped.
func (r *Register) arrange(members []types.ServerID, f int, old []MaxStore) (*placement, []MaxStore, error) {
	need := 2*f + 1
	if f <= 0 {
		return nil, nil, fmt.Errorf("abdcore: %s: f must be positive, got %d", r.name, f)
	}
	if len(members) < need {
		return nil, nil, fmt.Errorf("abdcore: %s: %d members cannot host 2f+1=%d stores", r.name, len(members), need)
	}
	p := &placement{stores: make([]MaxStore, 0, need), f: f}
	var dropped []MaxStore
	for _, s := range old {
		if slices.Contains(members, s.Server()) && len(p.stores) < need {
			p.stores = append(p.stores, s)
		} else {
			dropped = append(dropped, s)
		}
	}
	for _, sid := range members {
		if len(p.stores) == need {
			break
		}
		if slices.ContainsFunc(old, func(s MaxStore) bool { return s.Server() == sid }) {
			continue
		}
		st, err := r.place(sid)
		if err != nil {
			return nil, nil, fmt.Errorf("abdcore: %s: placing store on server %d: %w", r.name, sid, err)
		}
		p.stores = append(p.stores, st)
	}
	if len(p.stores) < need {
		return nil, nil, fmt.Errorf("abdcore: %s: only %d of %d stores placeable on members %v", r.name, len(p.stores), need, members)
	}
	p.reads = make([]rounds.Target, 0, need)
	for _, s := range p.stores {
		p.reads = s.ReadMax(p.reads)
		if r.writeOp != 0 {
			continue
		}
		c, ok := s.(Chain)
		if !ok {
			return nil, nil, fmt.Errorf("abdcore: %s: the store on server %d has no write-max", r.name, s.Server())
		}
		p.chains = append(p.chains, c)
	}
	if r.writeOp != 0 && len(p.reads) != len(p.stores) {
		return nil, nil, fmt.Errorf("abdcore: %s: a one-op write-max needs one base object per store, have %d over %d stores", r.name, len(p.reads), len(p.stores))
	}
	return p, dropped, nil
}

// Name implements emulation.Register.
func (r *Register) Name() string { return r.name }

// K implements emulation.Register.
func (r *Register) K() int { return r.k }

// F implements emulation.Register: the live placement's failure budget.
func (r *Register) F() int { return r.p.Load().f }

// ResourceComplexity implements emulation.Register: the base objects of
// the live placement's stores.
func (r *Register) ResourceComplexity() int {
	total := 0
	for _, s := range r.p.Load().stores {
		total += len(s.Objects())
	}
	return total
}

// History implements emulation.Register.
func (r *Register) History() *spec.History { return r.hist }

// Writer implements emulation.Register: the collect/push chain behind the
// shared handle.
func (r *Register) Writer(i int) (emulation.Writer, error) {
	if i < 0 || i >= r.k {
		return nil, fmt.Errorf("abdcore: writer %d out of range (k=%d)", i, r.k)
	}
	return emulation.NewWriter(types.ClientID(i), r.hist, r), nil
}

// NewReader implements emulation.Register. It is safe for concurrent
// callers: reader IDs come from a shared atomic allocator.
func (r *Register) NewReader() emulation.Reader {
	return emulation.NewReader(r.readers.Next(), r.hist, r)
}

// Reshape implements emulation.ViewResizable: it re-places the register's
// 2f+1 stores on the post-resize member set and swaps the placement
// atomically. It runs inside the transition's frozen window, in a fixed
// order whose every step keeps the register recoverable:
//
//  1. Fold the maximum timestamped value over every old store's
//     authoritative state — the last committed write is ≤ m, and m is a
//     committed or in-flight write, so seeding m is always linearizable.
//  2. Arrange the new placement: surviving stores stay, the recipe that
//     built the register places stores on new servers.
//  3. Seed every store of it with m (a shrink can drop the very servers
//     that held m).
//  4. Swap the placement — from here every round uses the new targets and
//     the new n−f threshold together.
//  5. Retire dropped stores' objects LAST: retiring before the swap would
//     expose in-window retries to a non-retryable missing-object error.
func (r *Register) Reshape(rs *fabric.Reshaper) error {
	old := r.p.Load().stores
	var m types.TSValue
	for _, s := range old {
		for _, obj := range s.Objects() {
			st, err := rs.State(obj)
			if err != nil {
				return fmt.Errorf("abdcore: %s: reading state on server %d: %w", r.name, s.Server(), err)
			}
			if m.Less(st.Val) {
				m = st.Val
			}
		}
	}
	p, dropped, err := r.arrange(rs.Members(), rs.F(), old)
	if err != nil {
		return err
	}
	// No write ever committed: there is nothing to seed.
	if types.ZeroTSValue.Less(m) {
		for i, s := range p.stores {
			if p.chains != nil {
				err = p.chains[i].Seed(rs, m)
			} else {
				_, err = rs.Apply(p.reads[i].Object, r.writeInv(m))
			}
			if err != nil {
				return fmt.Errorf("abdcore: %s: seeding server %d: %w", r.name, s.Server(), err)
			}
		}
	}
	r.p.Store(p)
	for _, s := range dropped {
		for _, obj := range s.Objects() {
			if err := rs.Retire(obj); err != nil {
				return fmt.Errorf("abdcore: %s: retiring object %d: %w", r.name, obj, err)
			}
		}
	}
	return nil
}

// writeInv is the one-op write-max of v (Config.WriteOp).
func (r *Register) writeInv(v types.TSValue) baseobj.Invocation {
	inv := baseobj.Invocation{Op: r.writeOp, Arg: v}
	if r.valueSize > 0 {
		inv.Data = types.PayloadFor(v.Val, r.valueSize)
	}
	return inv
}

// chain is one high-level operation above its rounds — collect, push, done
// as methods on one pooled record, reducers and plans bound once, so an
// operation allocates nothing of its own. The record returns to the pool in
// one place, finish; a chain whose quorum never forms keeps its record, which
// becomes ordinary garbage (ROADMAP, Op storage lifetime).
type chain struct {
	r       *Register
	ctx     context.Context
	client  types.ClientID
	v       types.TSValue // what the push carries; until the collect, a write's value
	onWrite func(error)
	onRead  func(types.Value, error)

	onCollect, onPush     func(types.TSValue, error) // c.collected, c.pushed
	collectPlan, pushPlan rounds.Plan                // c.planCollect, c.planPush
}

// chains has no New: it would close an initialization cycle through finish.
var chains sync.Pool

func (r *Register) newChain(ctx context.Context, client types.ClientID) *chain {
	c, _ := chains.Get().(*chain)
	if c == nil {
		c = new(chain)
		c.onCollect, c.onPush, c.collectPlan, c.pushPlan = c.collected, c.pushed, c.planCollect, c.planPush
	}
	c.r, c.ctx, c.client = r, ctx, client
	return c
}

// collect reads the highest timestamped value from a quorum of stores: one
// round over every store's read-max. onCollect fires exactly once, on the
// completing response, the first error, or ctx's end before an attempt —
// possibly inline. If fewer than a quorum of stores ever answer, it never
// fires: a pending op. A store of one object answers with its one response,
// so the round counts n−f of them; a store of several (aac-max's k
// registers) answers once all of its reads did, so the round is a server
// scan that waits for all but f of the hosting servers — regemu's collect.
// Each attempt — including view-change retries — plans from the placement
// afresh, so a retry that crosses a resize gathers against the new targets
// at the new threshold, never a mixed view.
func (c *chain) collect() {
	scan := c.r.scan
	rounds.Scatter(c.ctx, c.r.fab, c.client, rounds.Round{Max: c.onCollect, Plan: c.collectPlan, Scan: scan, Servers: scan})
}

// planCollect is the collect's plan: the live placement's read-max ops, at
// its quorum (or, for a server scan, its f).
func (c *chain) planCollect(buf []rounds.Target) ([]rounds.Target, int) {
	p := c.r.p.Load()
	if c.r.scan {
		return append(buf, p.reads...), p.f
	}
	return append(buf, p.reads...), p.quorum()
}

// push writes c.v to a quorum of stores, with collect's contract. Write-max
// is idempotent, so on a view-change retry the already-acknowledged members
// absorb the replay.
func (c *chain) push() {
	if c.r.writeOp == 0 {
		c.startChains()
		return
	}
	rounds.Scatter(c.ctx, c.r.fab, c.client, rounds.Round{Max: c.onPush, Plan: c.pushPlan})
}

// planPush is the one-op push's plan: the write-max of c.v on every store's
// object, at the quorum.
func (c *chain) planPush(buf []rounds.Target) ([]rounds.Target, int) {
	p := c.r.p.Load()
	for i := range p.reads {
		buf = append(buf, rounds.Target{Object: p.reads[i].Object, Inv: c.r.writeInv(c.v)})
	}
	return buf, p.quorum()
}

// startChains is the push over chain stores: every store of the live
// placement runs its own write-max of c.v, the quorum'th report completes
// the push, and a view-change completion re-starts every store once the
// transition ended, through rounds.Retry — the view stamp is read before
// the placement, so it is older than every table lookup the chains make.
func (c *chain) startChains() {
	// The quorum'th store may report inline and recycle c while the loop
	// below still has stores to start: they run on copies.
	report, ctx, fab, client, v := c.onPush, c.ctx, c.r.fab, c.client, c.v
	if err := types.CtxErr(ctx); err != nil {
		report(types.ZeroTSValue, err)
		return
	}
	seen := fab.ViewStamp()
	p := c.r.p.Load()
	j := rounds.NewFold(p.quorum(), func(v types.TSValue, err error) {
		if err != nil && rounds.Retry(ctx, fab, seen, err,
			c.startChains,
			func(err error) { report(types.ZeroTSValue, err) }) {
			return
		}
		report(v, err)
	})
	for _, s := range p.chains {
		s.StartWriteMax(ctx, client, v, j.Complete)
	}
}

// collected is the collect's reducer: a write stamps its value above the
// collected maximum and above everything its writer ever proposed, and
// pushes; a read returns the maximum, written back first on an atomic build.
func (c *chain) collected(cur types.TSValue, err error) {
	switch {
	case err != nil:
		c.finish("collect", err)
	case c.onWrite != nil:
		c.v.TS, c.v.Writer = c.r.floor.Propose(c.client, cur.TS), c.client
		c.push()
	case c.r.atomic:
		c.v = cur
		c.push()
	default:
		c.v = cur
		c.finish("", nil)
	}
}

// pushed is the push's reducer.
func (c *chain) pushed(_ types.TSValue, err error) { c.finish("push", err) }

// finish fires the operation's one completion (a read returns c.v's value)
// and is the one place a record returns to the pool: copy out what the
// completion needs, clear the rest, put, then call.
func (c *chain) finish(phase string, err error) {
	onWrite, onRead, v := c.onWrite, c.onRead, c.v.Val
	c.r, c.ctx, c.onWrite, c.onRead = nil, nil, nil, nil
	chains.Put(c)
	if err != nil {
		err, v = fmt.Errorf("abdcore: %s: %w", phase, err), types.InitialValue
	}
	if onWrite != nil {
		onWrite(err)
	} else {
		onRead(v, err)
	}
}

// StartWrite is the high-level write (emulation.WriteChain): collect, bump
// the timestamp, push. The phases run as a callback chain on whatever
// goroutines complete the low-level operations, so nothing ever blocks — one
// caller goroutine can keep thousands of writes in flight. done fires
// exactly once, when the push quorum acknowledged (or on the first protocol
// error, or when ctx ended before a round); it never fires if the failure
// assumption is violated, like any pending op.
func (r *Register) StartWrite(ctx context.Context, client types.ClientID, v types.Value, done func(error)) {
	c := r.newChain(ctx, client)
	c.v, c.onWrite = types.TSValue{Val: v}, done
	c.collect()
}

// StartRead is the high-level read (emulation.ReadChain): collect,
// optionally write back (on an Atomic register the push chains in before
// done fires), return the freshest value.
func (r *Register) StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error)) {
	c := r.newChain(ctx, client)
	c.onRead = done
	c.collect()
}
