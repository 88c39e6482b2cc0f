// Package regemu implements Algorithm 2, the paper's main upper-bound
// construction (Section 3.3, Appendix D): an f-tolerant, wait-free,
// WS-Regular k-register built from kf + ceil(k/z)·(f+1) plain read/write
// registers spread over n > 2f servers, z = floor((n-(f+1))/f).
//
// The construction is crafted against the covering adversary of Lemma 1:
//
//   - Registers are grouped into disjoint sets R_0..R_{m-1} (package
//     layout); writer w uses only set floor(w/z).
//   - A write first collects: it reads every register and waits for all
//     registers of n-f servers to respond, picking a fresh higher
//     timestamp (lines 20–26 of Algorithm 2).
//   - It then triggers writes on every register of its set except those
//     still covered by its own previous writes (lines 6–10): a register
//     with a pending write cannot be reliably reused, so the writer leaves
//     it alone until the old write responds, at which point it immediately
//     re-triggers with the current value (lines 29–32).
//   - The write returns after |R_j| - f acknowledgements (line 11), so at
//     most f of its low-level writes are left pending (Observation 3).
//
// Reads collect and return the value with the highest timestamp; readers
// never write, so the space cost is independent of the number of readers.
package regemu

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/baseobj"
	"repro/internal/emulation"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/spec"
	"repro/internal/types"
)

// Emulation is the Algorithm 2 register.
type Emulation struct {
	fab       *fabric.Fabric
	placement *layout.Placement
	hist      *spec.History
	k, f      int
	scan      []rounds.Target // reads on every register, server-major order
	writers   []*Writer
	readers   emulation.ReaderIDs
}

// Compile-time interface compliance check.
var _ emulation.Register = (*Emulation)(nil)

// New builds the register-set layout over the members of the cluster's
// current view (all n of them) and returns the emulated k-register. Readers
// never write, so opts.Atomic is rejected; writes carry timestamps only
// (opts.ValueSize is ignored). Everything is checked before the first
// register is placed.
func New(fab *fabric.Fabric, k, f int, opts emulation.Options) (*Emulation, error) {
	if err := opts.RegularOnly("regemu"); err != nil {
		return nil, err
	}
	if err := emulation.ValidateWriters(k); err != nil {
		return nil, fmt.Errorf("regemu: %w", err)
	}
	c := fab.Cluster()
	plan, err := layout.NewPlan(k, f, c.View().N())
	if err != nil {
		return nil, fmt.Errorf("regemu: planning layout: %w", err)
	}
	if err := plan.Verify(); err != nil {
		return nil, fmt.Errorf("regemu: verifying layout: %w", err)
	}
	placement, err := layout.Materialize(c, plan)
	if err != nil {
		return nil, fmt.Errorf("regemu: materializing layout: %w", err)
	}
	// Record the failure budget on the view (see cluster.SetF); regemu has
	// no resize path, but the budget still drives crash accounting guards.
	c.SetF(f)
	hist := &spec.History{}
	e := &Emulation{
		fab:       fab,
		placement: placement,
		hist:      hist,
		k:         k,
		f:         f,
	}
	// Precompute the collect scan — a read on every register, in
	// deterministic server-major order — once; every collect scatters it
	// as a single batch.
	byServer := placement.ObjectsByServer()
	servers := make([]types.ServerID, 0, len(byServer))
	for server := range byServer {
		servers = append(servers, server)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, server := range servers {
		for _, obj := range byServer[server] {
			e.scan = append(e.scan, rounds.Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}})
		}
	}
	e.writers = make([]*Writer, k)
	for w := 0; w < k; w++ {
		set, err := placement.SetOf(w)
		if err != nil {
			return nil, err
		}
		j, err := plan.SetForWriter(w)
		if err != nil {
			return nil, err
		}
		quorum, err := plan.WriteQuorumSize(j)
		if err != nil {
			return nil, err
		}
		wr := &Writer{
			em:      e,
			client:  types.ClientID(w),
			set:     set,
			quorum:  quorum,
			pending: make(map[types.ObjectID]bool, len(set)),
		}
		wr.Writer = emulation.NewWriter(wr.client, hist, (*writeChain)(wr))
		e.writers[w] = wr
	}
	return e, nil
}

// Name implements emulation.Register.
func (e *Emulation) Name() string { return "regemu" }

// K implements emulation.Register.
func (e *Emulation) K() int { return e.k }

// F implements emulation.Register.
func (e *Emulation) F() int { return e.f }

// ResourceComplexity implements emulation.Register; it equals
// bounds.RegisterUpper(k, f, n) by layout.Plan.Verify.
func (e *Emulation) ResourceComplexity() int { return e.placement.Plan.TotalRegisters() }

// History implements emulation.Register.
func (e *Emulation) History() *spec.History { return e.hist }

// Placement exposes the register layout for experiments.
func (e *Emulation) Placement() *layout.Placement { return e.placement }

// Writer implements emulation.Register. The returned handle carries the
// writer's persistent cover-set state; it must be used by one goroutine at
// a time.
func (e *Emulation) Writer(i int) (emulation.Writer, error) {
	if i < 0 || i >= e.k {
		return nil, fmt.Errorf("regemu: writer %d out of range (k=%d)", i, e.k)
	}
	return e.writers[i], nil
}

// NewReader implements emulation.Register. It is safe for concurrent
// callers: reader IDs come from a shared atomic allocator. A read is one
// collect returning the freshest value (lines 17–19); readers never write.
func (e *Emulation) NewReader() emulation.Reader {
	return emulation.NewReader(e.readers.Next(), e.hist, (*readChain)(e))
}

// readChain is the Emulation seen as its readers' emulation.ReadChain.
type readChain Emulation

func (c *readChain) StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error)) {
	e := (*Emulation)(c)
	e.collect(ctx, client, func(cur types.TSValue, err error) {
		if err != nil {
			done(types.InitialValue, fmt.Errorf("regemu: collect: %w", err))
			return
		}
		done(cur.Val, nil)
	})
}

// collect implements lines 13–26 of Algorithm 2: scatter a read on every
// register of every server as one snapshot scan and report the highest
// timestamped value once, for n-f servers, every register of the server
// has responded (n-f complete scans). A server the layout left empty has
// nothing to answer and counts as responded, so the round engine waits for
// all but f of the servers that do host registers — with the n the layout
// was planned for, a layout spanning fewer than n servers would wait for
// crashed ones, or for more servers than exist.
func (e *Emulation) collect(ctx context.Context, client types.ClientID, report func(types.TSValue, error)) {
	rounds.Scatter(ctx, e.fab, client, rounds.Round{
		Plan:    func(buf []rounds.Target) ([]rounds.Target, int) { return append(buf, e.scan...), e.f },
		Scan:    true,
		Servers: true,
		Max:     report,
	})
}

// writeOp is one in-flight high-level write driven by the writer's state
// machine: the Statei of the pseudo-code for one invocation. It is guarded
// by the writer's mutex.
type writeOp struct {
	// ctx is the caller's context: once it is done the op is abandoned — it
	// no longer owns the machine and triggers nothing further.
	ctx context.Context
	// ts is the write's timestamp, assigned when the collect phase
	// completed; scattered reports that the push phase has started (only
	// then do freed registers re-trigger with ts — during the collect the
	// timestamp does not exist yet, so freed registers simply stay free
	// and join the push batch).
	ts        types.TSValue
	scattered bool
	// acked counts responses carrying ts (line 11).
	acked int
	done  func(error)
}

// live reports whether op still owns the writer's machine; callers hold
// the writer's mutex.
func (w *Writer) live(op *writeOp) bool {
	return op != nil && w.cur == op && op.ctx.Err() == nil
}

// reap is the step an abandoned op takes instead of its next one: it
// reports its context's error (to whoever still listens) and frees the
// machine. Called without the mutex, on an op that was found not live.
func (w *Writer) reap(op *writeOp) {
	if op != nil && op.ctx.Err() != nil {
		w.finish(op, fmt.Errorf("regemu: write: %w", op.ctx.Err()))
	}
}

// Writer is the Algorithm 2 per-writer state machine. pending[b] plays the
// role of coverSet: it is true while b has a low-level write of ours
// without a response. The machine is event-driven — low-level completions
// call onEvent on whatever goroutine completes them (fabric, a retry's, or the
// caller's own for synchronous lanes) — so one high-level write costs no
// goroutine, and internal/emulation/async drives thousands of writers from
// one event loop. Per the emulation contract a writer carries at most one
// in-flight high-level write; starting a second while the previous one is
// live (not completed, its context not done) is rejected loudly.
type Writer struct {
	// Writer is the shared handle (history, blocking adapter) over the
	// machine's writeChain.
	emulation.Writer

	em     *Emulation
	client types.ClientID
	set    []types.ObjectID
	quorum int

	mu      sync.Mutex
	pending map[types.ObjectID]bool
	cur     *writeOp // the in-flight high-level write, nil when idle
}

// triggerLocked issues a low-level write of ts on register b and marks it
// pending. The trigger itself runs after the caller released the mutex
// (returned as a thunk), because on a synchronous lane the completion runs
// inline and re-enters onEvent. The view stamp a completion reports is the
// one read right before its own trigger looked the register up (rounds.Retry).
func (w *Writer) triggerLocked(b types.ObjectID, ts types.TSValue) func() {
	w.pending[b] = true
	return func() {
		seen := w.em.fab.ViewStamp()
		w.em.fab.TriggerFn(w.client, b, baseobj.Invocation{Op: baseobj.OpWrite, Arg: ts},
			func(o fabric.Outcome) { w.onEvent(b, ts, seen, o.Err) })
	}
}

// scatter batch-triggers a write of ts on every given register; the
// registers must already be marked pending. Completions re-enter onEvent —
// on a synchronous lane at the op's position in the batch, before the
// registers after it are triggered.
func (w *Writer) scatter(objs []types.ObjectID, ts types.TSValue) {
	seen := w.em.fab.ViewStamp()
	g := &fabric.Group{
		Ops:  make([]fabric.BatchOp, len(objs)),
		Done: func(i int, o fabric.Outcome) { w.onEvent(objs[i], ts, seen, o.Err) },
	}
	for i, b := range objs {
		g.Ops[i] = fabric.BatchOp{Object: b, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: ts}}
	}
	w.em.fab.TriggerBatch(w.client, g)
}

// onEvent lands one low-level write completion in the state machine: the
// register is freed, and — when a push is in flight — a response for the
// current timestamp counts toward the quorum (line 11) while a response
// for an older one immediately re-covers the register with the current
// value (lines 29–34). Events arriving while no live op owns the machine
// (the op was abandoned, or the machine is between writes) just free the
// register: the next write's push batch picks it up. Before the push phase
// there is nothing to count or retry either — during the collect the
// timestamp does not exist yet, so the freed register simply joins the push
// batch. onEvent never blocks beyond the writer mutex, so it is safe on
// fabric goroutines.
func (w *Writer) onEvent(b types.ObjectID, ts types.TSValue, seen uint64, err error) {
	w.mu.Lock()
	w.pending[b] = false
	op := w.cur
	if !w.live(op) || !op.scattered {
		w.mu.Unlock()
		w.reap(op)
		return
	}
	if err != nil {
		// A low-level write that raced a reconfiguration never applied (the
		// view-change contract), so it retries once the transition ended
		// instead of failing the high-level write — re-checking ownership
		// first: if the op finished or was abandoned meanwhile, the register
		// stays free.
		w.mu.Unlock()
		if !rounds.Retry(op.ctx, w.em.fab, seen, err, func() {
			w.mu.Lock()
			if !w.live(op) {
				w.mu.Unlock()
				return
			}
			retrigger := w.triggerLocked(b, op.ts)
			w.mu.Unlock()
			retrigger()
		}, func(err error) { w.finish(op, err) }) {
			w.finish(op, fmt.Errorf("regemu: write: %w", err))
		}
		return
	}
	if ts != op.ts {
		retrigger := w.triggerLocked(b, op.ts)
		w.mu.Unlock()
		retrigger()
		return
	}
	op.acked++
	done := op.acked >= w.quorum
	w.mu.Unlock()
	if done {
		w.finish(op, nil)
	}
}

// writeChain is the Writer seen as its own handle's emulation.WriteChain
// (the handle's StartWrite, promoted onto Writer, takes no client).
type writeChain Writer

// StartWrite is the write chain behind the handle: collect, pick a higher
// timestamp, push to the writer's register set avoiding self-covered
// registers, and fire done after |R_j| - f acknowledgements. The whole
// operation is a callback chain — nothing blocks, and done may fire inline
// on a synchronous lane. If the failure assumption is violated, done never
// fires (a pending high-level op); a caller that gives up cancels ctx, and
// the abandoned op's already-triggered low-level writes keep covering their
// registers until they respond, as in any abandoned write.
func (c *writeChain) StartWrite(ctx context.Context, _ types.ClientID, v types.Value, done func(error)) {
	w := (*Writer)(c)
	op := &writeOp{ctx: ctx, done: done}
	w.mu.Lock()
	if w.live(w.cur) {
		w.mu.Unlock()
		done(fmt.Errorf("regemu: writer %d already has a write in flight", w.client))
		return
	}
	w.cur = op
	w.mu.Unlock()

	// Lines 20–26: collect until n-f complete server scans responded, then
	// (lines 6–10) scatter one batch over every register of R_j not
	// currently covered by our own previous writes.
	w.em.collect(ctx, w.client, func(cur types.TSValue, err error) {
		if err != nil {
			w.finish(op, fmt.Errorf("regemu: collect: %w", err))
			return
		}
		w.mu.Lock()
		if !w.live(op) {
			w.mu.Unlock()
			w.reap(op)
			return
		}
		op.ts = types.TSValue{TS: cur.TS + 1, Writer: w.client, Val: v}
		op.scattered = true
		fresh := make([]types.ObjectID, 0, len(w.set))
		for _, b := range w.set {
			if !w.pending[b] {
				fresh = append(fresh, b)
				w.pending[b] = true
			}
		}
		ts := op.ts
		w.mu.Unlock()
		w.scatter(fresh, ts)
	})
}

// finish completes op with err (nil: acknowledged by its quorum), exactly
// once and only while it still owns the machine.
func (w *Writer) finish(op *writeOp, err error) {
	w.mu.Lock()
	if w.cur != op {
		w.mu.Unlock()
		return
	}
	w.cur = nil
	w.mu.Unlock()
	op.done(err)
}

// CoveredByMe returns the registers of the writer's set that currently
// have one of its low-level writes pending — at most f after a completed
// write (Observation 3). Exposed for the covering experiments.
func (w *Writer) CoveredByMe() []types.ObjectID {
	w.mu.Lock()
	defer w.mu.Unlock()
	var covered []types.ObjectID
	for _, b := range w.set {
		if w.pending[b] {
			covered = append(covered, b)
		}
	}
	return covered
}
