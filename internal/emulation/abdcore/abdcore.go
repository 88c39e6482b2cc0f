// Package abdcore is the quorum register shared by the max-register, CAS,
// aac-max and baseline emulations: the multi-writer ABD pattern [Attiya,
// Bar-Noy, Dolev 1995; Gilbert, Lynch, Shvartsman 2010] in which a write
// first collects the highest timestamp from a quorum, picks a larger one,
// and then pushes the timestamped value to a quorum; a read collects from a
// quorum and returns the value with the highest timestamp.
//
// The paper observes (Section 1, "Results") that the per-server code of
// multi-writer ABD is exactly the write-max / read-max interface of a
// max-register, so the register is parameterized by a store: one per server,
// its base objects placed by the construction's recipe (Config.Place). The
// base-object kind fixes the rest: the collect reads every object with its
// kind's state read (baseobj.Kind.StateRead: read-max, read, or Algorithm
// 1's no-op CAS), and the write-max is one op where the kind has one (a
// max-register's write-max, naive's plain-register overwrite) or else a
// chain the construction runs (Config.Chain: abd-cas's Algorithm 1 loop on a
// CAS cell, aac-max's k single-writer registers). Plugging in different
// stores yields the different quorum rows of Table 1; everything else —
// which 2f+1 servers host a store (f is the view's), the collect and the
// push, how a view resize re-places the stores — is this package's Register,
// which embeds the handles, the history and the writers' timestamp floor
// every register shares (emulation.Handles). A store is its base objects,
// kept inside the placement — which server hosts them is the object table's
// to say, so a store a swap moves onto a joiner stays the same store — and
// the register's first placement is part of the register: a register of
// three one-object stores is one heap object.
//
// A chain's write-max starts from the collect's maximum (Chain's hint): a
// store that holds it — every store of a settled register — takes one CAS
// on abd-cas. An atomic read writes its maximum back before it returns, and
// on chain stores skips the stores that answered its collect with that
// maximum (the round's agreement set): a store's cells only grow, so each
// still holds at least it. The set names stores by their index in the
// placement the collect planned against, so it counts only while that
// placement is live, and a view-change retry of the write-back pushes to
// every store. When the set alone is a quorum, the read is its collect. The
// one-op push writes back to every store. Abd-cas's loop checks the
// context before each CAS, so an abandoned write takes at most one CAS per
// store, ≤ ResourceComplexity() triggers, after its caller returned.
//
// The round mechanics (scatter, quorum threshold, crash adaptivity,
// view-change retry) live in the shared internal/emulation/rounds engine;
// this package is the collect/push chain on top of it.
package abdcore

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/types"
)

// Place is a store recipe: it places the base objects of one server's store
// on server — one for abd-max, naive and abd-cas, k for aac-max — appending
// their IDs to objs, also when it fails part-way, so that a refused
// placement can remove them. Every store of a register has the same number
// of objects. A store whose server crashed simply never answers, like any
// faulty base object.
type Place func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error)

// Chain is a write-max that is a chain of low-level operations the
// construction runs itself on a store (casmax's Algorithm 1 loop, aacmax's
// one-write-in-flight cell): a register built with one writes through it,
// one built without writes with its objects' one-op write-max. A register
// has one; the store is named by its base objects, so the chain
// keeps whatever state it needs per object.
type Chain interface {
	// StartWriteMax runs the write-max of v on the store of objs. hint is
	// the collect's maximum, never above v: a guess at the store's content
	// that the chain may start from (casmax's first expected value) but
	// must not trust. It must not block and must start nothing once ctx is
	// done; report must be invoked at most once, when (and if) the
	// write-max completes.
	StartWriteMax(ctx context.Context, client types.ClientID, objs []types.ObjectID, v, hint types.TSValue, report func(types.TSValue, error))
	// Seed folds m, the non-zero maximum over the old placement, into the
	// store of objs, so that every member of a resized placement holds at
	// least the last committed value. It runs only inside a fabric
	// transition's frozen window, where applying directly through rs cannot
	// race client operations.
	Seed(rs *fabric.Reshaper, objs []types.ObjectID, m types.TSValue) error
}

// Config assembles a quorum register: the construction's options, its store
// recipe and, when the stores' base objects have no one-op write-max, its
// Chain. The failure budget is the fabric's view's. The register records its
// own history (Register.History).
type Config struct {
	// Name identifies the construction.
	Name string
	// K is the number of writers.
	K int
	// Fabric is the fabric the stores trigger on.
	Fabric *fabric.Fabric
	// Options are the construction's: Atomic makes reads write the
	// collected maximum back to a quorum before returning; ValueSize, when
	// positive, sizes the payload a one-op write-max carries.
	emulation.Options
	// Place is the store recipe. New calls it for each of the 2f+1 hosts,
	// Reshape for every server a view resize adds. The register keeps only
	// the stores' servers and objects, and a plain function as recipe —
	// abd-max's, abd-cas's, naive's — costs a register nothing.
	Place Place
	// Chain is the write-max, when set. Without one, a write-max is one
	// low-level operation on the store's one base object, by the kind of
	// the first object placed — a max-register's write-max, a plain
	// register's overwrite — carrying a payload of ValueSize bytes when
	// ValueSize is positive, and the push is one round over every store.
	Chain Chain
}

// placement is one epoch's worth of quorum geometry: the stores' base
// objects and the failure budget. It is immutable once published — a resize
// installs a whole new placement — so every round derives its targets and
// its threshold from ONE snapshot and can never pair the new store set with
// the old budget or vice versa. A placement of up to three one-object stores
// (f = 1) needs no storage beyond its own: its slice starts on the inline
// array — and the register's first placement is part of the register.
type placement struct {
	f     int
	reads []types.ObjectID // every store's base objects, store by store: what the collect reads

	inlineReads [3]types.ObjectID
}

// stores returns the number of stores, of per base objects each.
func (p *placement) stores(per int) int { return len(p.reads) / per }

// quorum returns the push's and a one-object collect's threshold: all
// stores but f.
func (p *placement) quorum(per int) int { return p.stores(per) - p.f }

// objects returns store i's base objects.
func (p *placement) objects(i, per int) []types.ObjectID {
	return p.reads[i*per : (i+1)*per : (i+1)*per]
}

// Register implements emulation.Register over 2f+1 max-stores. It is safe
// for concurrent use by multiple clients; Reshape swaps the placement
// atomically while operations are in flight.
type Register struct {
	emulation.Handles
	per       int // base objects per store
	atomic    bool
	read      baseobj.OpCode // the objects' state read (Kind.StateRead)
	writeOp   baseobj.OpCode // the one-op write-max (Kind.WriteMax); 0 with a chain
	valueSize int
	fab       *fabric.Fabric
	place     Place
	chain     Chain
	p         atomic.Pointer[placement]
	// first is New's placement. A resize publishes a heap one and leaves
	// this one as it was: a round that loaded it may still read it.
	first placement
}

// Compile-time interface compliance check.
var _ emulation.Register = (*Register)(nil)

// New places one store on each of the first 2f+1 members of the cluster's
// current view, f being the view's — servers 0..2f on an initial view, live
// members by construction after any transition — and builds the register
// over them.
func New(cfg Config) (*Register, error) {
	r := &Register{
		atomic:    cfg.Atomic,
		valueSize: cfg.ValueSize,
		fab:       cfg.Fabric,
		place:     cfg.Place,
		chain:     cfg.Chain,
	}
	if err := r.Init(cfg.Name, cfg.K, r); err != nil {
		return nil, fmt.Errorf("abdcore: %w", err)
	}
	if cfg.Place == nil {
		return nil, fmt.Errorf("abdcore: %s: no store recipe", cfg.Name)
	}
	p := &r.first
	view := cfg.Fabric.Cluster().View()
	if _, err := r.arrange(p, view.Members, view.F, nil); err != nil {
		return nil, err
	}
	r.p.Store(p)
	return r, nil
}

// arrange is the one place a placement is built and checked: it fills p —
// a zero placement — keeping the stores of old whose server (the object
// table's, read off each store's first object) is among members, in order,
// up to 2f+1, and placing fresh stores on the next members hosting none,
// and returns the base objects of the old stores it dropped. The first
// store New places fixes the register's objects per store and, by its first
// object's kind, the collect's read and the one-op write-max. A refused
// placement leaves no object behind: it removes the stores it placed.
func (r *Register) arrange(p *placement, members []types.ServerID, f int, old *placement) (dropped []types.ObjectID, err error) {
	need := 2*f + 1
	if f <= 0 {
		return nil, fmt.Errorf("abdcore: %s: f must be positive, got %d", r.Name(), f)
	}
	if len(members) < need {
		return nil, fmt.Errorf("abdcore: %s: %d members cannot host 2f+1=%d stores", r.Name(), len(members), need)
	}
	p.f = f
	p.reads = p.inlineReads[:0]
	var inline [3]types.ServerID
	hosts := inline[:0] // the kept and placed stores' servers
	if old != nil {
		for i := range old.stores(r.per) {
			objs := old.objects(i, r.per)
			host, err := r.fab.Cluster().Delta(objs[0])
			if err != nil {
				return nil, fmt.Errorf("abdcore: %s: locating store %d: %w", r.Name(), i, err)
			}
			if !slices.Contains(members, host) || len(hosts) == need {
				dropped = append(dropped, objs...)
				continue
			}
			hosts, p.reads = append(hosts, host), append(p.reads, objs...)
		}
	}
	kept := len(p.reads)
	defer func() {
		if err != nil {
			for _, obj := range p.reads[kept:] {
				r.fab.Cluster().RemoveObject(obj)
			}
		}
	}()
	for _, sid := range members {
		if len(hosts) == need {
			break
		}
		if slices.Contains(hosts, sid) {
			continue
		}
		before := len(p.reads)
		if p.reads, err = r.place(r.fab.Cluster(), sid, p.reads); err != nil {
			return nil, fmt.Errorf("abdcore: %s: placing store on server %d: %w", r.Name(), sid, err)
		}
		if r.per == 0 {
			r.per = len(p.reads) - before
			if err = r.ops(p.reads[0]); err != nil {
				return nil, err
			}
		}
		if n := len(p.reads) - before; n == 0 || n != r.per {
			return nil, fmt.Errorf("abdcore: %s: the store on server %d has %d base objects, want %d per store", r.Name(), sid, n, max(r.per, 1))
		}
		hosts = append(hosts, sid)
	}
	if len(hosts) < need {
		return nil, fmt.Errorf("abdcore: %s: only %d of %d stores placeable on members %v", r.Name(), len(hosts), need, members)
	}
	if r.chain == nil && r.per != 1 {
		return nil, fmt.Errorf("abdcore: %s: a one-op write-max needs one base object per store, have %d", r.Name(), r.per)
	}
	return dropped, nil
}

// ops derives the register's low-level ops from the kind of obj, the first
// object placed: the collect's state read and, without a chain, the one-op
// write-max.
func (r *Register) ops(obj types.ObjectID) error {
	o, err := r.fab.Cluster().Object(obj)
	if err != nil {
		return fmt.Errorf("abdcore: %s: %w", r.Name(), err)
	}
	r.read = o.Kind().StateRead()
	if r.chain == nil {
		if r.writeOp = o.Kind().WriteMax(); r.writeOp == 0 {
			return fmt.Errorf("abdcore: %s: a %v has no one-op write-max: the register needs a Chain", r.Name(), o.Kind())
		}
	}
	return nil
}

// F implements emulation.Register: the live placement's failure budget.
func (r *Register) F() int { return r.p.Load().f }

// ResourceComplexity implements emulation.Register: the base objects of
// the live placement's stores.
func (r *Register) ResourceComplexity() int { return len(r.p.Load().reads) }

// Reshape implements emulation.Register: it re-places the register's
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
	old := r.p.Load()
	var m types.TSValue
	for _, obj := range old.reads {
		st, err := rs.State(obj)
		if err != nil {
			return fmt.Errorf("abdcore: %s: reading state of object %d: %w", r.Name(), obj, err)
		}
		if m.Less(st.Val) {
			m = st.Val
		}
	}
	p := new(placement)
	dropped, err := r.arrange(p, rs.Members(), rs.F(), old)
	if err != nil {
		return err
	}
	// No write ever committed: there is nothing to seed.
	if types.ZeroTSValue.Less(m) {
		inv := baseobj.Invocation{Op: r.writeOp, Arg: m, Body: r.body(m)} // without a chain
		for i := range p.stores(r.per) {
			if r.chain != nil {
				err = r.chain.Seed(rs, p.objects(i, r.per), m)
			} else {
				_, err = rs.Apply(p.reads[i], inv)
			}
			if err != nil {
				return fmt.Errorf("abdcore: %s: seeding store %d: %w", r.Name(), i, err)
			}
		}
	}
	r.p.Store(p)
	for _, obj := range dropped {
		if err := rs.Retire(obj); err != nil {
			return fmt.Errorf("abdcore: %s: retiring object %d: %w", r.Name(), obj, err)
		}
	}
	return nil
}

// body is what the one-op write-max of v carries besides v: its payload of
// ValueSize bytes, or nil without one. It is built once per push and shared
// by every store's op — nobody mutates it, and each cell keeps the bytes —
// and never recycled: a late op still carries it after the push reported.
func (r *Register) body(v types.TSValue) *baseobj.Fragment {
	if r.valueSize <= 0 {
		return nil
	}
	return &baseobj.Fragment{Data: types.PayloadFor(v.Val, r.valueSize)}
}

// chain is one high-level operation above its rounds — collect, push, done
// as methods on one pooled record, reducers, plans and the push's fold over
// chain stores bound once, so an operation allocates nothing of its own. The
// record returns to the pool with its last reference: the operation's,
// dropped in finish, and one per chain store still to report — a store may
// report after the push did. A chain whose quorum never forms keeps its
// record, which becomes ordinary garbage (ROADMAP, Op storage lifetime).
type chain struct {
	r       *Register
	ctx     context.Context
	client  types.ClientID
	v       types.TSValue     // what the push carries; until the collect, a write's value
	body    *baseobj.Fragment // the one-op push's payload, when it carries one (Register.body)
	hint    types.TSValue     // the collect's maximum: where a chain store's write-max starts
	agree   uint64            // an atomic read's write-back: the stores whose collect response was v
	planned *placement        // the placement the collect's last attempt planned against
	onWrite func(error)
	onRead  func(types.Value, error)

	onCollect, onPush     func(types.TSValue, uint64, error) // c.collected, c.pushed
	collectPlan, pushPlan rounds.Plan                        // c.planCollect, c.planPush

	stores   rounds.Fold // the push over chain stores
	seen     uint64      // fab.ViewStamp() before that push read the placement (rounds.Retry)
	refs     atomic.Int32
	onStore  func(types.TSValue, error)         // c.stored
	onStores func(types.TSValue, uint64, error) // c.storesDone
}

// chains has no New: it would close an initialization cycle through finish.
var chains sync.Pool

// unref drops one reference; the last one recycles the record.
func (c *chain) unref() {
	if c.refs.Add(-1) == 0 {
		chains.Put(c)
	}
}

func (r *Register) newChain(ctx context.Context, client types.ClientID) *chain {
	c, _ := chains.Get().(*chain)
	if c == nil {
		c = new(chain)
		c.onCollect, c.onPush, c.collectPlan, c.pushPlan = c.collected, c.pushed, c.planCollect, c.planPush
		c.onStore, c.onStores = c.stored, c.storesDone
	}
	c.r, c.ctx, c.client = r, ctx, client
	c.refs.Store(1)
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
	scan := c.r.per > 1
	rounds.Scatter(c.ctx, c.r.fab, c.client, rounds.Round{Max: c.onCollect, Plan: c.collectPlan, Scan: scan})
}

// planCollect is the collect's plan: the live placement's state reads, at
// its quorum (or, for a server scan, its f). It notes the placement, which
// the agreement set the collect reports indexes.
func (c *chain) planCollect(buf []rounds.Target) ([]rounds.Target, int) {
	p, inv := c.r.p.Load(), baseobj.Invocation{Op: c.r.read}
	c.planned = p
	for _, obj := range p.reads {
		buf = append(buf, rounds.Target{Object: obj, Inv: inv})
	}
	if c.r.per > 1 {
		return buf, p.f
	}
	return buf, p.quorum(c.r.per)
}

// push writes c.v to a quorum of stores, with collect's contract. Write-max
// is idempotent, so on a view-change retry the already-acknowledged members
// absorb the replay.
func (c *chain) push() {
	if c.r.chain != nil {
		c.startChains()
		return
	}
	c.body = c.r.body(c.v)
	rounds.Scatter(c.ctx, c.r.fab, c.client, rounds.Round{Max: c.onPush, Plan: c.pushPlan})
}

// planPush is the one-op push's plan: the write-max of c.v on every store's
// object, at the quorum, every op carrying the push's one body.
func (c *chain) planPush(buf []rounds.Target) ([]rounds.Target, int) {
	p, inv := c.r.p.Load(), baseobj.Invocation{Op: c.r.writeOp, Arg: c.v, Body: c.body}
	for _, obj := range p.reads {
		buf = append(buf, rounds.Target{Object: obj, Inv: inv})
	}
	return buf, p.quorum(c.r.per)
}

// startChains is the push over chain stores: every store of the live
// placement runs its own write-max of c.v from the collect's maximum, the
// quorum'th report completes the push, and a view-change completion
// re-starts every store once the transition ended, through rounds.Retry —
// the view stamp is read before the placement, so it is older than every
// table lookup the chains make.
//
// An atomic read's write-back skips the stores of its agreement set: each
// answered the collect with v itself, and a store's cells only grow, so it
// holds at least v already and counts toward the quorum without a chain.
// Store i is the collect's target i only under the placement the collect
// planned against, so the set counts only while that placement is live, and
// only on the first push: a view-change retry pushes in full. When the set
// alone is a quorum, the read returns after its collect.
func (c *chain) startChains() {
	// The quorum'th store may report inline and finish the operation while
	// the loop below still has stores to start: they run on copies.
	ctx, client, v, hint, store := c.ctx, c.client, c.v, c.hint, c.r.chain
	if err := types.CtxErr(ctx); err != nil {
		c.onPush(types.ZeroTSValue, 0, err)
		return
	}
	c.seen = c.r.fab.ViewStamp()
	p := c.r.p.Load()
	per := c.r.per
	var agree uint64
	if p == c.planned && per == 1 {
		agree = c.agree
	}
	need := p.quorum(per) - bits.OnesCount64(agree)
	if need <= 0 {
		c.onPush(v, 0, nil)
		return
	}
	c.stores.Init(need, c.onStores)
	c.refs.Add(1) // the loop's own
	for i := range p.stores(per) {
		if agree>>i&1 == 0 {
			c.refs.Add(1)
			store.StartWriteMax(ctx, client, p.objects(i, per), v, hint, c.onStore)
		}
	}
	c.unref()
}

// stored is a chain store's report: into the push's fold, then the store's
// reference on the record goes.
func (c *chain) stored(v types.TSValue, err error) {
	c.stores.Complete(v, err)
	c.unref()
}

// storesDone is the fold's one report: the push's, unless a view change
// bounced it.
func (c *chain) storesDone(v types.TSValue, _ uint64, err error) {
	if err != nil && rounds.Retry(c.ctx, c.r.fab, c.seen, err,
		c.retryChains,
		func(err error) { c.onPush(types.ZeroTSValue, 0, err) }) {
		return
	}
	c.onPush(v, 0, err)
}

// retryChains restarts every store of a push a view change bounced, on a
// fresh record: this attempt's stores may still report into this record's
// fold, which is never reused — the operation's reference moves with it, so
// this record is never recycled, and the collector takes it.
func (c *chain) retryChains() {
	next := c.r.newChain(c.ctx, c.client)
	next.v, next.hint, next.onWrite, next.onRead = c.v, c.hint, c.onWrite, c.onRead
	next.startChains()
}

// collected is the collect's reducer: a write stamps its value above the
// collected maximum and above everything its writer ever proposed, and
// pushes; a read returns the maximum, written back first on an atomic build
// — to the stores outside the collect's agreement set, on chain stores.
func (c *chain) collected(cur types.TSValue, agree uint64, err error) {
	switch {
	case err != nil:
		c.finish("collect", err)
	case c.onWrite != nil:
		c.v.TS, c.v.Writer = c.r.Propose(c.client, cur.TS), c.client
		c.hint = cur
		c.push()
	case c.r.atomic:
		c.v, c.hint, c.agree = cur, cur, agree
		c.push()
	default:
		c.v = cur
		c.finish("", nil)
	}
}

// pushed is the push's reducer.
func (c *chain) pushed(_ types.TSValue, _ uint64, err error) { c.finish("push", err) }

// finish fires the operation's one completion (a read returns c.v's value)
// and drops the operation's reference: copy out what the completion needs,
// clear the rest, unref, then call.
func (c *chain) finish(phase string, err error) {
	onWrite, onRead, v := c.onWrite, c.onRead, c.v.Val
	c.r, c.ctx, c.planned, c.agree, c.body, c.onWrite, c.onRead = nil, nil, nil, 0, nil, nil, nil
	c.unref()
	if err != nil {
		err, v = fmt.Errorf("abdcore: %s: %w", phase, err), types.InitialValue
	}
	if onWrite != nil {
		onWrite(err)
	} else {
		onRead(v, err)
	}
}

// StartWrite is the high-level write (emulation.Protocol): collect, bump
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

// StartRead is the high-level read (emulation.Protocol): collect,
// optionally write back (on an Atomic register the push chains in before
// done fires), return the freshest value.
func (r *Register) StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error)) {
	c := r.newChain(ctx, client)
	c.onRead = done
	c.collect()
}
