// Package fabric implements the asynchronous shared-memory fabric between
// clients and the base objects hosted on fault-prone servers.
//
// The paper's model (Section 2) decouples a low-level operation's trigger
// from its response: "clients can trigger several low-level operations
// without waiting for the previously triggered operations to respond", and
// the environment "is allowed to prevent a pending low-level write from
// taking effect for arbitrarily long" [Aguilera, Englert, Gafni 2003]. The
// fabric realizes both powers:
//
//   - TriggerBatch returns at once; each op's response arrives later (or
//     never) at the one callback of the caller-owned, recyclable Group the op
//     is a slot of (Group.Done) — the one way to trigger an op and to hear it
//     complete. A quorum round is a group scattered in one dispatch pass, a
//     lone op a one-op group.
//   - A Gate — the environment — may Hold any operation either before it
//     takes effect (phase apply: the op has NOT linearized; releasing it
//     later applies it then, possibly erasing a newer value) or before its
//     response is delivered (phase respond: the op HAS linearized but the
//     client does not know).
//   - Crashing a server silently drops every pending and future operation
//     on its objects: they remain pending forever.
//
// # Architecture: per-server dispatch lanes, pluggable backends
//
// Servers are independent fault domains, and the fabric is sharded along
// exactly that boundary. There is no global fabric lock. Each server gets a
// dispatch lane owning the server's held-op, in-flight, and crash-drop
// indexes; token allocation and the trigger counter are lock-free atomics;
// and where an object lives is read from the cluster's object table on
// every trigger (cluster.Lookup: two dependent loads, no lock) — the fabric
// keeps no copy of it, so a move needs no invalidation. Operations on
// different servers therefore never contend inside the fabric — throughput
// scales with the number of servers, not with the number of clients. Aggregate views (Pending,
// CoveredObjects, UsedObjects) are merge-over-lane reads; the global token
// order makes the merged snapshots deterministic.
//
// The lane is also the transport seam: each lane delegates the actual
// carriage of an operation to a Lane backend (WithLanes). InProcLane (the
// default) applies synchronously; LatencyLane injects seeded per-op
// delay/jitter/straggler distributions, so quorum protocols face genuinely
// reordered asynchrony; and the network
// lane (internal/lanenet) speaks a length-prefixed protocol to a
// per-server TCP storage node, with transport failure mapped onto the
// fail-stop model via CrashReporter (reconnect-as-crash). The Gate
// adversary, held/release/drop accounting, and everything above the fabric
// compose with any backend.
//
// A triggered operation is one record — its call — with one lifecycle on
// every lane: listed in flight (admit), both gates asked while it is listed,
// filed by its verdict in the critical section that unlists it (lane.settle),
// so Pending reports it at every moment from trigger to completion. The one
// exception is an in-process op under the benign gate, which nothing can
// hold, reorder or observe half-way: it applies inline, unrecorded.
//
// Membership is dynamic: the fabric serves the cluster's current View
// (epoch + ordered server set), and Resize (see view.go for the protocol) —
// the one way to change it — commits any membership delta without stopping
// clients: it admits each joiner as a brand-new never-reused server identity
// (on the TCP lane, a fresh session is the join), and a swap migrates a
// departing server's objects, state included, onto its joiner. An operation
// caught in a view change completes with ErrViewChanged, which guarantees it
// never applied in the old view, so retrying it is exactly-once safe even
// for CAS; the retry (rounds.Retry)
// waits on the view stamp — the count of ended transitions — never on a
// clock, so it costs one re-scatter however long the transition takes and
// ends only with the transition or with the op's own context. A server
// that leaves through Resize is a leave, not a crash: it never shows up
// in crash accounting, and the paper's f budget is spent only on real
// fail-stops.
//
// Pending write operations are exactly the paper's covering writes; the
// fabric exposes them via Pending and CoveredObjects for the covering
// experiments of Lemma 1.
package fabric

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// Decision is a gate verdict for a single operation phase.
type Decision int

const (
	// Pass lets the operation proceed.
	Pass Decision = iota + 1
	// Hold parks the operation until Release (or forever).
	Hold
)

// Phase identifies where in its lifecycle a pending operation is parked.
type Phase int

const (
	// PhaseApply means the op was held before taking effect: it has not
	// linearized. Releasing it applies it at release time.
	PhaseApply Phase = iota + 1
	// PhaseRespond means the op took effect but its response is held.
	PhaseRespond
	// PhaseDropped means the op's server crashed: it will never respond.
	PhaseDropped
	// PhaseInFlight means the op was handed to an asynchronous lane
	// backend (latency or network) and its response has not arrived. The
	// op has been triggered but has not linearized from the client's point
	// of view; a pending in-flight write covers its register like any
	// other pending write.
	PhaseInFlight
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseApply:
		return "held-apply"
	case PhaseRespond:
		return "held-respond"
	case PhaseDropped:
		return "dropped"
	case PhaseInFlight:
		return "in-flight"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// TriggerEvent describes a triggered low-level operation. Gates receive it
// to make identity-based (deterministic) decisions.
type TriggerEvent struct {
	// Token uniquely identifies the low-level operation. Tokens are
	// allocated from one global monotone counter, so they totally order
	// triggers across all lanes.
	Token uint64
	// Client is the triggering client.
	Client types.ClientID
	// Object is the target base object and Server = delta(Object).
	Object types.ObjectID
	Server types.ServerID
	// Inv is the invocation.
	Inv baseobj.Invocation
}

// Gate is the environment: it decides, per operation and phase, whether the
// fabric may proceed. Implementations must be safe for concurrent use and
// must not call back into the Fabric from within a decision.
type Gate interface {
	// BeforeApply is consulted before the operation takes effect.
	BeforeApply(ev TriggerEvent) Decision
	// BeforeRespond is consulted after the operation took effect and
	// before its response is delivered.
	BeforeRespond(ev TriggerEvent, resp baseobj.Response) Decision
}

// PassGate is the benign environment: every operation proceeds immediately.
type PassGate struct{}

// BeforeApply implements Gate.
func (PassGate) BeforeApply(TriggerEvent) Decision { return Pass }

// BeforeRespond implements Gate.
func (PassGate) BeforeRespond(TriggerEvent, baseobj.Response) Decision { return Pass }

// GateFuncs adapts two plain functions into a Gate. A nil function passes.
type GateFuncs struct {
	Apply   func(ev TriggerEvent) Decision
	Respond func(ev TriggerEvent, resp baseobj.Response) Decision
}

// BeforeApply implements Gate.
func (g GateFuncs) BeforeApply(ev TriggerEvent) Decision {
	if g.Apply == nil {
		return Pass
	}
	return g.Apply(ev)
}

// BeforeRespond implements Gate.
func (g GateFuncs) BeforeRespond(ev TriggerEvent, resp baseobj.Response) Decision {
	if g.Respond == nil {
		return Pass
	}
	return g.Respond(ev, resp)
}

// Compile-time interface compliance checks.
var (
	_ Gate = PassGate{}
	_ Gate = GateFuncs{}
)

// Outcome is the result of a completed low-level operation.
type Outcome struct {
	Resp baseobj.Response
	Err  error
}

// call is a triggered low-level operation: from trigger to completion, the
// fabric's one record of it — what Pending reports, what a gate parks, what a
// lane's hand-off calls back into. It is never allocated per op: op i's call
// is slot i of its group's slab.
//
// Completion is one atomic claim, so completing calls never serializes
// concurrent quorum rounds. A call lives exactly as long as its group: listed
// in flight, parked by a gate or unlisted by a crash drain, its op has not
// completed, so the op's reference pins the group and nobody reuses the slot.
// Completion drops that reference, so nothing touches a call after complete
// returned.
type call struct {
	ev TriggerEvent
	// out is the op's outcome, written once by whoever owns the op at its
	// completion — the in-process apply, the completer that won settle, the
	// releaser of a respond-held op (whose response waits here) — and lent to
	// Done by pointer.
	out Outcome

	// g and idx are where the op completes: g.Done at index idx. Both are
	// written before the op is handed to any lane and read by the completer
	// after the hand-off's happens-before edge, so they need no atomics.
	g   *Group
	idx int32

	claimed atomic.Bool

	// Where the op runs: the table entry it was triggered through and that
	// entry's lane, never a copy of either. f is set once the op is recorded
	// (admit), for the lane callbacks.
	e    *cluster.Entry
	lane *lane
	f    *Fabric
	// phase is guarded by lane.mu once the op is listed.
	phase Phase
	// prev and next thread the op through its lane's in-flight index
	// (lane.inflight); both are nil whenever the op is not in it.
	prev, next *call
	// applyFn and completeFn are c.applyOp and c.completeOp as func values —
	// what a lane is handed. They are bound once per slot, at the slot's first
	// admission (the only allocations a recorded op ever causes), and outlive
	// the ops the slot carries.
	applyFn    ApplyFunc
	completeFn CompleteFunc
}

// complete delivers the outcome — c.out's response and err — firing the
// group's Done at most once. Its caller owns the op — it won settle, took it
// from the held index, or never listed it — so a response it wrote into
// c.out first races nobody.
func (c *call) complete(err error) {
	if c.claimed.CompareAndSwap(false, true) {
		c.completeUnshared(err)
	}
}

// completeUnshared delivers the outcome of a call no other completer can
// race: one still inside its dispatch pass (the synchronous in-process fast
// path completes it there), or one whose claim complete just won. The op's
// reference is dropped only after Done returned, and the call — recycled with
// its group — must not be touched past that point.
func (c *call) completeUnshared(err error) {
	g := c.g
	c.out.Err = err
	if g.Done != nil {
		g.Done(int(c.idx), &c.out)
	}
	g.unref()
}

// PendingOp describes a low-level operation that was triggered but has not
// responded: the paper's "pending" ops, whose write instances cover their
// target registers.
type PendingOp struct {
	Event TriggerEvent
	Phase Phase
}

// applyOp is the op's ApplyFunc: linearize against the server's base object
// unless the server crashed while the op was on its way.
func (c *call) applyOp() (baseobj.Response, error) {
	if c.e.Server().Crashed() {
		return baseobj.Response{}, errCrashedDrop
	}
	return c.e.Object().Apply(c.ev.Client, &c.ev.Inv)
}

// completeOp is the op's CompleteFunc. The respond gate is asked while the op
// is still listed in flight, and its verdict is carried out in the critical
// section that unlists the op (lane.settle), so Pending never loses an op
// between the two lists. The crash drain races that claim; exactly one side
// wins, and an op the drain took is dropped whatever the gate said. Once
// parked the op is its releaser's — and, recycled with its group, anyone's —
// so a held op is traced before it is settled, and nothing of c is touched
// after complete returned.
func (c *call) completeOp(resp baseobj.Response, err error) {
	f, l, ev := c.f, c.lane, &c.ev
	switch {
	case errors.Is(err, errCrashedDrop) || c.e.Server().Crashed():
		if l.settle(c, PhaseDropped) {
			f.emit(TraceDrop, ev, ev.Server)
		}
	case err != nil:
		if l.settle(c, PhaseInFlight) {
			c.complete(err)
		}
	case !f.benign && f.gate.BeforeRespond(*ev, resp) == Hold:
		f.emit(TraceApply, ev, ev.Server)
		f.emit(TraceHoldRespond, ev, ev.Server)
		c.out.Resp = resp
		l.settle(c, PhaseRespond)
	case l.settle(c, PhaseInFlight):
		f.emit(TraceApply, ev, ev.Server)
		f.emit(TraceRespond, ev, ev.Server)
		c.out.Resp = resp
		c.complete(nil)
	}
}

// Errors reported by fabric operations.
var (
	// ErrNotHeld is returned by Release for unknown or already released
	// tokens.
	ErrNotHeld = errors.New("fabric: token not held")
	// ErrViewChanged is the retryable completion of an operation that
	// raced a view change: it reached a departing server before taking
	// effect. The invariant clients rely on is strict — an operation that
	// completes with a view-change error NEVER applied and never will, so
	// re-triggering it in the new view is exactly-once safe even for
	// non-idempotent ops (CAS).
	ErrViewChanged = errors.New("fabric: view changed")
)

// IsViewChange reports whether err is a retryable view-change completion:
// the op never took effect and should re-trigger against the new placement.
// baseobj.ErrSealed counts — a sealed object rejected the write before it
// applied, the synchronous-lane face of the same freeze.
func IsViewChange(err error) bool {
	return errors.Is(err, ErrViewChanged) || errors.Is(err, baseobj.ErrSealed)
}

// viewChangedErr builds the per-server retryable completion error.
func viewChangedErr(server types.ServerID) error {
	return fmt.Errorf("%w: server %d departing", ErrViewChanged, server)
}

// errCrashedDrop is the internal sentinel an ApplyFunc returns when the
// op's server crashed before delivery: the fabric maps it to the dropped
// (pending forever) state instead of completing the call with an error.
var errCrashedDrop = errors.New("fabric: server crashed before delivery")

// Fabric routes low-level operations from clients to base objects through
// the gate.
type Fabric struct {
	cluster *cluster.Cluster
	gate    Gate
	tracer  Tracer

	// benign short-circuits gate consultation when the gate is the
	// default PassGate: the benign environment never holds, so the hot
	// path skips two interface calls (and two event copies) per op.
	benign bool

	// nextToken allocates operation tokens; it doubles as the trigger
	// counter, since every routed trigger allocates exactly one token.
	nextToken atomic.Uint64

	laneMaker LaneMaker
	// lanes is the dispatch lane list, indexed by ServerID and published
	// copy-on-write: addServer appends under laneMu while the dispatch hot
	// path reads the published snapshot lock-free.
	lanes  atomic.Pointer[[]*lane]
	laneMu sync.Mutex

	// reconfMu serializes view changes (Resize).
	reconfMu sync.Mutex

	// viewStamp counts ended transitions (ViewStamp); viewMu orders its
	// advance against the ops parking on it (AwaitView).
	viewStamp   atomic.Uint64
	viewMu      sync.Mutex
	viewWaiters map[*viewWaiter]struct{}

	// Transition test hooks (nil outside tests): crash-injection points at
	// the two windows where real systems lose data. See HookTransition.
	testAfterFreeze func()
	testBeforeMove  func(obj types.ObjectID, to types.ServerID)
}

// HookTransition installs test-only callbacks at the edges of a
// transition's transfer window: afterFreeze fires once per Resize after
// every departing lane froze and drained (before the quiesce wait);
// beforeMove fires after an object's state was fetched and sealed, right
// before its MoveObject. Tests use them to crash servers inside the
// sealed-but-not-activated window; production code must leave them nil.
// Install hooks before starting any transition — the fields are read
// without synchronization by the coordinator.
func (f *Fabric) HookTransition(afterFreeze func(), beforeMove func(obj types.ObjectID, to types.ServerID)) {
	f.testAfterFreeze = afterFreeze
	f.testBeforeMove = beforeMove
}

// laneList returns the published lane list.
func (f *Fabric) laneList() []*lane { return *f.lanes.Load() }

// laneFor returns server's dispatch lane, or nil for an unknown server.
func (f *Fabric) laneFor(server types.ServerID) *lane {
	lanes := f.laneList()
	if int(server) < 0 || int(server) >= len(lanes) {
		return nil
	}
	return lanes[server]
}

// Option configures a Fabric.
type Option func(*Fabric)

// WithGate installs the environment gate; the default is PassGate.
func WithGate(g Gate) Option {
	return func(f *Fabric) {
		if g != nil {
			f.gate = g
		}
	}
}

// New creates a fabric over the given cluster, with one dispatch lane per
// server. The lane backend defaults to InProcLane; WithLanes swaps in a
// latency-injecting or network backend per server.
func New(c *cluster.Cluster, opts ...Option) *Fabric {
	f := &Fabric{
		cluster:   c,
		gate:      PassGate{},
		laneMaker: func(types.ServerID) Lane { return InProcLane{} },
	}
	for _, opt := range opts {
		opt(f)
	}
	_, f.benign = f.gate.(PassGate)
	lanes := make([]*lane, c.N())
	for i := range lanes {
		lanes[i] = newLane(types.ServerID(i), f.laneMaker(types.ServerID(i)))
	}
	// Publish the lane list before installing crash hooks: a backend whose
	// transport is already dead fires the hook synchronously from inside
	// SetCrashHook, and Crash needs the list.
	f.lanes.Store(&lanes)
	for _, l := range lanes {
		if cr, ok := l.backend.(CrashReporter); ok {
			// A failed transport is a crashed server: reconnect-as-crash.
			server := l.server
			cr.SetCrashHook(func() { _ = f.Crash(server) })
		}
	}
	return f
}

// addServer grows the cluster by one server and wires its dispatch lane,
// activating a new view epoch: Resize's admission of a joiner. maker builds
// the lane backend (nil uses the fabric's default maker — the one New ran,
// so latency-lane fabrics give the joiner its own seeded delay sub-stream).
// The joiner starts empty; the transition fills it.
func (f *Fabric) addServer(maker LaneMaker) (types.ServerID, error) {
	f.laneMu.Lock()
	defer f.laneMu.Unlock()
	if maker == nil {
		maker = f.laneMaker
	}
	srv := f.cluster.AddServer()
	id := srv.ID()
	lanes := f.laneList()
	if int(id) != len(lanes) {
		// Lanes and cluster must grow in lockstep; a divergence means the
		// cluster was grown behind the fabric's back.
		return 0, fmt.Errorf("fabric: lane/cluster divergence: new server %d, %d lanes", id, len(lanes))
	}
	backend := maker(id)
	grown := make([]*lane, len(lanes)+1)
	copy(grown, lanes)
	grown[len(lanes)] = newLane(id, backend)
	f.lanes.Store(&grown)
	if cr, ok := backend.(CrashReporter); ok {
		cr.SetCrashHook(func() { _ = f.Crash(id) })
	}
	return id, nil
}

// Close closes every lane backend. The in-process and latency lanes have no
// resources; network lanes close their connections.
func (f *Fabric) Close() error {
	var first error
	for _, l := range f.laneList() {
		if err := l.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Cluster returns the underlying cluster.
func (f *Fabric) Cluster() *cluster.Cluster { return f.cluster }

// ServerFor reads the server hosting an object without dispatching
// anything. Round engines use it to build per-server accounting before a
// scatter, so completion callbacks registered at trigger time (Group.Done)
// find it ready even when the in-process lane completes inside the
// TriggerBatch call itself.
func (f *Fabric) ServerFor(obj types.ObjectID) (types.ServerID, error) {
	e, _, err := f.lookup(obj)
	if err != nil {
		return 0, err
	}
	return e.Server().ID(), nil
}

// lookup reads where an object lives — its table entry and that server's
// lane — from the cluster, on every call: the fabric remembers no placement,
// so there is nothing a view change could leave stale here. The one thing
// done on an entry's first use is hosting the object on an external-store
// lane (ObjectMirror), before any operation on it is delivered; the entry
// carries that latch per copy, and the benign double mirror of two racing
// first users is absorbed by idempotent placement on the store side. For a
// migrated object the mirrored state is the copy's current (transferred)
// value — see lanenet's stateful place frames.
func (f *Fabric) lookup(obj types.ObjectID) (*cluster.Entry, *lane, error) {
	e, err := f.cluster.Lookup(obj)
	if err != nil {
		if errors.Is(err, cluster.ErrObjectRetired) {
			// An object a transition retired: the op never applied, so it may
			// retry against the construction's new placement like any other
			// view-change completion.
			err = fmt.Errorf("%w: %v", ErrViewChanged, err)
		}
		return nil, nil, err
	}
	l := f.laneFor(e.Server().ID())
	if l == nil {
		return nil, nil, fmt.Errorf("fabric: no dispatch lane for server %d (cluster grown behind the fabric's back?)", e.Server().ID())
	}
	if l.mirror != nil && !e.Mirrored() {
		l.mirror.MirrorObject(e.Object())
		e.SetMirrored()
	}
	return e, l, nil
}

// BatchOp is one operation of a Group.
type BatchOp struct {
	// Object is the target base object.
	Object types.ObjectID
	// Inv is the invocation.
	Inv baseobj.Invocation
}

// Group is the caller-owned storage of one TriggerBatch / TriggerScan
// scatter: the operations, their one completion callback and — unexported —
// the dispatch pass's storage: one slab of calls (call i is op i's only
// record) and, made at the group's first op bound for an asynchronous lane,
// the []LaneOp the lanes are handed — laid out lane by lane, each lane's ops
// contiguous — and each lane's window of it. A zero Group works; owning the
// storage is what lets a round engine recycle it, and recycled, a scatter
// allocates nothing on any lane.
//
// Lifetime is a reference count held by the fabric: one per op, dropped after
// the op's Done returned, plus one for the dispatch pass, dropped when it
// stopped walking the slab. The last one out zeroes the storage (a pooled
// group pins no payload) and fires Released, after which the group may be
// refilled and triggered again; until then only Done may touch it. A late
// response therefore always finds its group alive, and a group with an op
// that never completes — held forever, or dropped with a crashed server — is
// never released: it is ordinary garbage, like any Group without a Released.
// That one rule covers the staging too: a lane reads the window it was handed
// only until its last op completed (GroupLane).
type Group struct {
	// Ops are the round's operations, filled by the caller.
	Ops []BatchOp
	// Done, when non-nil, hears op i's completion exactly once — with its
	// response, its protocol error, or a view-change error when its server is
	// departing — and never while the op stays pending (held, or dropped with
	// a crashed server). It must not block: it runs on whatever goroutine
	// completes the op (a lane's, a releaser's), or inline, on the in-process
	// lane, at the op's position in the batch, before the ops after it are
	// dispatched. o points into the op's record, where the response was
	// written once: Done reads it, and copies what it keeps, before it
	// returns.
	Done func(i int, o *Outcome)
	// Released, when non-nil, fires once when the last reference is gone.
	Released func()

	calls   []call
	staging []LaneOp     // asynchronous rounds only, like windows
	windows []laneWindow // indexed by server
	// A scan's in-process members, in input order (scan), and one server's
	// members in object order with the objects they lock (byObj, locked):
	// the pass's scratch, kept like staging.
	scan   []*call
	byObj  []*call
	locked []baseobj.Object
	refs   atomic.Int32
}

// laneWindow is one lane's share of a group's staging: staging[start:end].
type laneWindow struct{ start, end int32 }

// unref drops one reference; the last one zeroes and releases the group.
func (g *Group) unref() {
	if g.refs.Add(-1) != 0 {
		return
	}
	clear(g.Ops)
	for i := range g.calls {
		c := &g.calls[i]
		*c = call{applyFn: c.applyFn, completeFn: c.completeFn}
	}
	clear(g.staging)
	g.staging = g.staging[:0]
	clear(g.scan[:cap(g.scan)])
	clear(g.byObj[:cap(g.byObj)])
	clear(g.locked[:cap(g.locked)])
	g.scan, g.byObj, g.locked = g.scan[:0], g.byObj[:0], g.locked[:0]
	if g.Released != nil {
		g.Released()
	}
}

// TriggerBatch scatters a whole round of low-level operations in one
// dispatch pass. Each op gets its own token, gate decisions (consulted in
// input order) and lifecycle, exactly as a loop of one-op groups would give
// it, but the batch shape lets the fabric amortize the machinery: one
// token-block allocation instead of n atomic increments, and one hand-off per
// lane to backends that accept groups (GroupLane), so an event-loop lane sees
// a whole round in one mailbox message. In-process operations apply
// synchronously at their input position — the exhaustive sweeps depend on
// that order.
func (f *Fabric) TriggerBatch(client types.ClientID, g *Group) {
	f.triggerGroup(client, g, false)
}

// TriggerScan scatters an all-read batch whose per-server groups are each
// answered from one consistent snapshot: on the in-process lane the fabric
// locks every target object of a server (in ascending object order) and
// reads them under the locks; event-loop and network backends that
// implement ScanLane apply the group back-to-back with nothing interleaved.
// A scan is still semantically a set of independent low-level reads — the
// snapshot only *restricts* the interleavings to ones where each server's
// reads happen at a single point — so every caller of TriggerBatch over
// reads may use it; Algorithm 2's collects (a rounds.Round with Scan set)
// are the intended user. Non-read invocations complete with an
// error. Under a holding gate, held members degrade to individually
// released reads and only the gate-passed remainder is snapshotted.
func (f *Fabric) TriggerScan(client types.ClientID, g *Group) {
	f.triggerGroup(client, g, true)
}

// triggerGroup is the shared TriggerBatch/TriggerScan dispatch pass.
func (f *Fabric) triggerGroup(client types.ClientID, g *Group, scan bool) {
	n := len(g.Ops)
	if cap(g.calls) < n {
		g.calls = make([]call, n)
	}
	calls := g.calls[:n]
	g.calls = calls
	// The pass's own reference outlives ops that complete inline below.
	g.refs.Store(int32(n) + 1)
	defer g.unref()
	found, async := 0, false
	for i := range calls {
		op, c := &g.Ops[i], &calls[i]
		c.g, c.idx = g, int32(i)
		e, l, err := f.lookup(op.Object)
		if err == nil && scan && !op.Inv.Op.IsRead() {
			err = fmt.Errorf("fabric: scan op %v on object %d is not a read", op.Inv.Op, op.Object)
		}
		if err != nil {
			c.ev.Client, c.ev.Object, c.ev.Inv = client, op.Object, op.Inv
			c.completeUnshared(err)
			continue
		}
		c.e, c.lane = e, l
		found++
		async = async || !l.inproc
	}
	if found == 0 {
		return
	}
	// One token-block allocation orders the whole batch: the tokens are
	// consecutive in input order — the exact sequence a loop of per-op
	// Add(1) calls produces — for one atomic RMW instead of `found`.
	token := f.nextToken.Add(uint64(found)) - uint64(found)

	// An in-process op is handed to its backend at its position in the batch;
	// ops for asynchronous backends are staged in the group's own storage, each
	// lane's in one window, and handed off after the pass — the all-in-process
	// batch (the sweep hot path) stages nothing. The lane snapshot is taken
	// after the lookups: lanes grow append-only, so every looked-up server's
	// index is within it.
	lanes := f.laneList()
	var windows []laneWindow
	if async {
		windows = g.stage(lanes)
	}
	for i := range calls {
		c := &calls[i]
		if c.e == nil {
			continue
		}
		token++
		l, op := c.lane, &g.Ops[i]
		// Field by field: the 64-byte invocation is the only wide copy.
		ev := &c.ev
		ev.Token, ev.Client, ev.Object, ev.Server = token, client, op.Object, l.server
		ev.Inv = op.Inv
		c.e.MarkUsed()
		f.emit(TraceTrigger, &c.ev, l.server)
		// Only a benign in-process op runs unrecorded: the gate never holds
		// and the apply is the linearization point, so it runs to completion
		// here (a scan's, under its server's snapshot) with no record, no lock
		// and, since its call is still the pass's alone, no claim CAS. Every
		// other op is recorded from here to its completion (admit).
		switch srv := c.e.Server(); {
		case srv.Crashed():
			f.drop(l, &c.ev)
		case srv.Departing():
			// Frozen for a view change: the op never reaches the object, so it
			// completes retryably instead of pending forever (unlike a crash).
			c.completeUnshared(viewChangedErr(l.server))
		case (!l.inproc || !f.benign) && !f.admit(c, true):
			// Frozen, crashed or held on its way in: it goes no further now.
		case !l.inproc:
			w := &windows[l.server]
			lop := &g.staging[w.end]
			lop.Ev, lop.Apply, lop.Complete = c.ev, c.applyFn, c.completeFn
			w.end++
		case scan:
			g.scan = append(g.scan, c)
		case f.benign:
			f.applyInline(c)
		default:
			l.backend.Deliver(c.ev, c.applyFn, c.completeFn)
		}
	}
	if len(g.scan) > 0 {
		f.applyScansInline(g)
	}
	for s, w := range windows {
		lg := g.staging[w.start:w.end]
		if len(lg) == 0 {
			continue
		}
		backend := lanes[s].backend
		if scan {
			if sl, ok := backend.(ScanLane); ok {
				sl.DeliverScan(lg)
				continue
			}
		}
		if gl, ok := backend.(GroupLane); ok {
			gl.DeliverGroup(lg)
			continue
		}
		for i := range lg {
			backend.Deliver(lg[i].Ev, lg[i].Apply, lg[i].Complete)
		}
	}
}

// stage readies the group's staging for a pass that found ops bound for
// asynchronous lanes: a slot per op, split into one empty window per lane,
// sized by counting the looked-up calls — an upper bound, since an op may yet
// be dropped, bounced or held; the pass fills each window from its start. The
// storage is made only when the group has none large enough.
func (g *Group) stage(lanes []*lane) []laneWindow {
	n := len(g.calls)
	if cap(g.staging) < n {
		g.staging = make([]LaneOp, n)
	}
	if cap(g.windows) < len(lanes) {
		g.windows = make([]laneWindow, len(lanes))
	}
	g.staging = g.staging[:n]
	windows := g.windows[:len(lanes)]
	clear(windows)
	for i := range g.calls {
		if c := &g.calls[i]; c.e != nil && !c.lane.inproc {
			windows[c.lane.server].end++
		}
	}
	var start int32
	for s := range windows {
		w := &windows[s]
		start, w.start, w.end = start+w.end, start, start
	}
	return windows
}

// applyScansInline answers a scan's in-process members (g.scan), server by
// server in ascending order, each server's in input order.
func (f *Fabric) applyScansInline(g *Group) {
	// Stable, so each server's members keep their input order.
	slices.SortStableFunc(g.scan, func(a, b *call) int { return cmp.Compare(a.ev.Server, b.ev.Server) })
	for rest := g.scan; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].ev.Server == rest[0].ev.Server {
			n++
		}
		f.applyScanInline(g, rest[:n])
		rest = rest[n:]
	}
}

// applyScanInline answers one in-process server's all-read scan group from a
// single consistent snapshot: every distinct target object's state lock is
// taken in ascending object order (the package-wide lock order — concurrent
// scans cannot deadlock), all reads apply under the locks, the locks drop, and
// only then do responses flow. A concurrent writer serializes against the
// whole cut, so no scan can observe object j's newer write but miss the
// same writer's earlier write to object i — the torn read that per-object
// locking allows. The sorted copy and the lock list are g's scratch.
func (f *Fabric) applyScanInline(g *Group, group []*call) {
	byObj := append(g.byObj[:0], group...)
	slices.SortFunc(byObj, func(a, b *call) int { return cmp.Compare(a.ev.Object, b.ev.Object) })
	locked := g.locked[:0]
	for i, c := range byObj {
		if i > 0 && c.ev.Object == byObj[i-1].ev.Object {
			continue
		}
		o := c.e.Object()
		o.LockState()
		locked = append(locked, o)
	}
	g.byObj, g.locked = byObj, locked
	// Each member's outcome goes straight into its record: until it is
	// completed below, nothing else completes it.
	for _, c := range group {
		c.out.Resp, c.out.Err = c.e.Object().ApplyLocked(c.ev.Client, &c.ev.Inv)
	}
	for _, o := range locked {
		o.UnlockState()
	}
	for _, c := range group {
		if !f.benign {
			c.completeOp(c.out.Resp, c.out.Err) // a gated member is listed in flight
			continue
		}
		if c.out.Err == nil {
			f.emit(TraceApply, &c.ev, c.ev.Server)
			f.emit(TraceRespond, &c.ev, c.ev.Server)
		}
		c.completeUnshared(c.out.Err)
	}
}

// applyInline runs a benign in-process op to completion on the triggering
// goroutine, inside its dispatch pass (completeUnshared).
func (f *Fabric) applyInline(c *call) {
	c.out.Resp, c.out.Err = c.e.Object().Apply(c.ev.Client, &c.ev.Inv)
	if c.out.Err == nil {
		f.emit(TraceApply, &c.ev, c.ev.Server)
		f.emit(TraceRespond, &c.ev, c.ev.Server)
	}
	c.completeUnshared(c.out.Err)
}

// admit lists an op in flight on its lane — from here to its completion
// Pending reports it, and a crash moves it to the dropped state instead of
// racing its completion. The fault model is folded into the op's callbacks:
// applyOp drops an op whose server crashed before delivery, and completeOp
// settles the in-flight entry (lane.settle) so completion and crash-drop stay
// mutually exclusive. With gated set — a fresh trigger, not a release — the
// apply gate is asked once the op is listed, and a Hold moves it from one list
// to the other in one critical section. It returns false when the op goes no
// further now: the lane froze, the server crashed around the insert, or the
// gate holds it.
func (f *Fabric) admit(c *call, gated bool) bool {
	l := c.lane
	if c.applyFn == nil {
		c.applyFn, c.completeFn = c.applyOp, c.completeOp
	}
	c.f, c.phase = f, PhaseInFlight // c is its caller's alone until it is listed
	if !l.putInflight(c) {
		// The lane froze for a view change before the insert: the op was
		// never handed to the backend, so it completes retryably. This check
		// runs under the same lock the coordinator's freeze takes, which is
		// what keeps the op from writing a frame behind the state fetch.
		c.complete(viewChangedErr(l.server))
		return false
	}
	if c.e.Server().Crashed() {
		// The server crashed between the caller's check and the in-flight
		// insert; the crash drain may already have run past this token.
		if l.settle(c, PhaseDropped) {
			f.emit(TraceDrop, &c.ev, l.server)
		}
		return false
	}
	if gated && !f.benign && f.gate.BeforeApply(c.ev) == Hold {
		// Traced first: once parked, the op is its releaser's.
		f.emit(TraceHoldApply, &c.ev, l.server)
		l.settle(c, PhaseApply)
		return false
	}
	return true
}

// drop records an operation that will never respond. Only its trigger
// event is kept — all Pending ever reports of a dropped op — so the op's
// call and completion closures are not pinned for the life of the
// fabric by a server that will never answer.
func (f *Fabric) drop(l *lane, ev *TriggerEvent) {
	f.emit(TraceDrop, ev, ev.Server)
	l.mu.Lock()
	l.dropped[ev.Token] = *ev
	l.mu.Unlock()
}

// take removes and returns the held op with the given token, if any lane
// holds it. Tokens do not encode their lane, so this scans the (small,
// fixed) lane set; Release is an adversary-path operation, never a hot one.
func (f *Fabric) take(token uint64) (*call, bool) {
	for _, l := range f.laneList() {
		l.mu.Lock()
		h, ok := l.held[token]
		if ok {
			delete(l.held, token)
		}
		l.mu.Unlock()
		if ok {
			return h, true
		}
	}
	return nil, false
}

// Release lets a held operation proceed: a PhaseApply op takes effect now
// (this is how a released covering write erases a newer value) and its
// response is delivered; a PhaseRespond op just delivers its response. If
// the op's server crashed in the meantime, the op is dropped instead.
func (f *Fabric) Release(token uint64) error {
	h, ok := f.take(token)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotHeld, token)
	}
	switch srv := h.e.Server(); {
	case srv.Crashed():
		f.drop(h.lane, &h.ev)
	case srv.Departing() || h.phase == PhaseRespond:
		f.bounce(h)
	default:
		// The apply gate already held (and now released) the op, so it
		// re-enters the delivery path past the gate: listed in flight again,
		// handed to its lane through the callbacks it already has.
		f.emit(TraceRelease, &h.ev, h.ev.Server)
		if f.admit(h, false) {
			h.lane.backend.Deliver(h.ev, h.applyFn, h.completeFn)
		}
	}
	return nil
}

// bounce completes a taken held op without handing it to its lane: a released
// respond-held op, or either kind on a server that froze for a view change
// while the op was parked (Release, drainParked). On a frozen server the two
// phases MUST diverge: a PhaseApply op never took effect (it completes
// retryably — applying it now would mutate state behind the transfer), while
// a PhaseRespond op already linearized before the freeze, so its effect is in
// the transferred state and it must complete with its real response — a
// view-change error would make the client re-apply an op that already
// happened.
func (f *Fabric) bounce(h *call) {
	f.emit(TraceRelease, &h.ev, h.ev.Server)
	if h.phase == PhaseApply {
		h.complete(viewChangedErr(h.ev.Server))
		return
	}
	f.emit(TraceRespond, &h.ev, h.ev.Server)
	h.complete(nil) // the response waited in h.out
}

// ReleaseWhere releases every held op matching pred, in ascending token
// order, and returns how many were released.
func (f *Fabric) ReleaseWhere(pred func(PendingOp) bool) int {
	var tokens []uint64
	for _, l := range f.laneList() {
		l.mu.Lock()
		for token, h := range l.held {
			if pred(PendingOp{Event: h.ev, Phase: h.phase}) {
				tokens = append(tokens, token)
			}
		}
		l.mu.Unlock()
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	released := 0
	for _, token := range tokens {
		if err := f.Release(token); err == nil {
			released++
		}
	}
	return released
}

// Crash crashes a server: the cluster marks it (and all of its objects)
// crashed, and every held op on its lane is dropped — its clients will
// never hear back, matching the paper's server-granularity failures.
func (f *Fabric) Crash(server types.ServerID) error {
	if err := f.cluster.Crash(server); err != nil {
		return err
	}
	f.emit(TraceCrash, &TriggerEvent{}, server)
	l := f.laneFor(server)
	if l == nil {
		return fmt.Errorf("fabric: no dispatch lane for server %d", server)
	}
	l.mu.Lock()
	for token, h := range l.held {
		delete(l.held, token)
		l.dropped[token] = h.ev
	}
	// In-flight ops (on the wire of an asynchronous lane) are dropped too:
	// removing them from the in-flight index makes any late completion a
	// no-op, so the op stays pending forever like every crashed-server op.
	for h := l.inflight.next; h != &l.inflight; h = l.inflight.next {
		l.unlinkInflight(h)
		l.dropped[h.ev.Token] = h.ev
	}
	l.mu.Unlock()
	return nil
}

// Pending returns a snapshot of every pending (held or dropped) operation,
// merged over all lanes and ordered by token. These are the paper's
// pending low-level ops.
func (f *Fabric) Pending() []PendingOp {
	var ops []PendingOp
	for _, l := range f.laneList() {
		l.mu.Lock()
		for _, h := range l.held {
			ops = append(ops, PendingOp{Event: h.ev, Phase: h.phase})
		}
		for h := l.inflight.next; h != &l.inflight; h = h.next {
			ops = append(ops, PendingOp{Event: h.ev, Phase: h.phase})
		}
		for _, ev := range l.dropped {
			ops = append(ops, PendingOp{Event: ev, Phase: PhaseDropped})
		}
		l.mu.Unlock()
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Event.Token < ops[j].Event.Token })
	return ops
}

// CoveredObjects returns Cov(t): the set of base objects covered by a
// pending low-level write, in ascending object order.
func (f *Fabric) CoveredObjects() []types.ObjectID {
	seen := make(map[types.ObjectID]struct{})
	for _, op := range f.Pending() {
		if op.Event.Inv.Op.IsWrite() {
			seen[op.Event.Object] = struct{}{}
		}
	}
	ids := make([]types.ObjectID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Triggers returns the total number of low-level operations triggered.
func (f *Fabric) Triggers() uint64 { return f.nextToken.Load() }

// UsedObjects returns the set of base objects that had at least one
// operation triggered on them — the paper's resource consumption of the
// run — in ascending object order: the used latches of the cluster's table.
func (f *Fabric) UsedObjects() []types.ObjectID { return f.cluster.UsedObjects() }
