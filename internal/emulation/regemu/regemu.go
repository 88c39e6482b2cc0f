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
	"time"

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

// Options configure the construction.
type Options struct {
	// History receives the high-level operations (optional).
	History *spec.History
}

// New builds the register-set layout on the fabric's cluster (all n of its
// servers) and returns the emulated k-register.
func New(fab *fabric.Fabric, k, f int, opts Options) (*Emulation, error) {
	c := fab.Cluster()
	plan, err := layout.NewPlan(k, f, c.N())
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
	if err := emulation.ValidateWriters(k); err != nil {
		return nil, fmt.Errorf("regemu: %w", err)
	}
	// Record the failure budget on the view (see cluster.SetF); regemu has
	// no resize path, but the budget still drives crash accounting guards.
	c.SetF(f)
	hist := opts.History
	if hist == nil {
		hist = &spec.History{}
	}
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
		e.writers[w] = &Writer{
			em:      e,
			client:  types.ClientID(w),
			set:     set,
			quorum:  quorum,
			pending: make(map[types.ObjectID]bool, len(set)),
		}
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

// History returns the recorded high-level history.
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
// callers: reader IDs come from a shared atomic allocator.
func (e *Emulation) NewReader() emulation.Reader {
	return &Reader{em: e, client: e.readers.Next()}
}

// collect implements lines 13–26 of Algorithm 2: scatter a read on every
// register of every server as one batch and wait until, for n-f servers,
// every register of the server has responded (n-f complete scans). A
// server the layout left empty has nothing to answer and counts as
// responded, so the round engine waits for all but f of the servers that
// do host registers — with the n the layout was planned for, a layout
// spanning fewer than n servers would wait for crashed ones, or for more
// servers than exist. It returns the highest timestamped value observed.
func (e *Emulation) collect(ctx context.Context, client types.ClientID) (types.TSValue, error) {
	max, err := fabric.RetryView(ctx, func() (types.TSValue, error) {
		return rounds.ScatterScan(e.fab, client, e.scan).AwaitServers(ctx, e.f)
	})
	if err != nil {
		return max, fmt.Errorf("regemu: collect: %w", err)
	}
	return max, nil
}

// writeOp is one in-flight high-level write driven by the writer's state
// machine: the Statei of the pseudo-code for one invocation. It is guarded
// by the writer's mutex.
type writeOp struct {
	// ts is the write's timestamp, assigned when the collect phase
	// completed; scattered reports that the push phase has started (only
	// then do freed registers re-trigger with ts — during the collect the
	// timestamp does not exist yet, so freed registers simply stay free
	// and join the push batch).
	ts        types.TSValue
	scattered bool
	// acked counts responses carrying ts (line 11).
	acked int
	// viewRetries counts per-op low-level re-triggers after view-change
	// completions, bounding transparent reconfiguration retries.
	viewRetries int
	// finished latches completion (or detachment): the op no longer owns
	// the machine and its done must not fire (again).
	finished bool
	pw       *spec.PendingWrite
	done     func(error)
}

// Writer is the Algorithm 2 per-writer state machine. pending[b] plays the
// role of coverSet: it is true while b has a low-level write of ours
// without a response. The machine is event-driven — low-level completions
// call onEvent on whatever goroutine completes them (fabric, timer, or the
// caller's own for synchronous lanes) — so one high-level write costs no
// goroutine: the blocking Write is a thin wrapper over StartWrite, and the
// completion-based path (internal/emulation/async) drives thousands of
// writers from one event loop. Per the emulation contract a writer carries
// at most one in-flight high-level write; starting a second before the
// previous done fired is rejected loudly.
type Writer struct {
	em     *Emulation
	client types.ClientID
	set    []types.ObjectID
	quorum int

	mu      sync.Mutex
	pending map[types.ObjectID]bool
	cur     *writeOp // the in-flight high-level write, nil when idle
}

// Compile-time interface compliance checks.
var (
	_ emulation.Writer      = (*Writer)(nil)
	_ emulation.AsyncWriter = (*Writer)(nil)
)

// Client implements emulation.Writer.
func (w *Writer) Client() types.ClientID { return w.client }

// triggerLocked issues a low-level write of ts on register b and marks it
// pending. The trigger itself runs after the caller released the mutex
// (returned as a thunk), because on a synchronous lane the completion runs
// inline and re-enters onEvent.
func (w *Writer) triggerLocked(b types.ObjectID, ts types.TSValue) func() {
	w.pending[b] = true
	return func() {
		call := w.em.fab.Trigger(w.client, b, baseobj.Invocation{Op: baseobj.OpWrite, Arg: ts})
		call.OnComplete(func(o fabric.Outcome) { w.onEvent(b, ts, o.Err) })
	}
}

// scatter batch-triggers a write of ts on every given register; the
// registers must already be marked pending. Completions re-enter onEvent.
func (w *Writer) scatter(objs []types.ObjectID, ts types.TSValue) {
	batch := make([]fabric.BatchOp, len(objs))
	for i, b := range objs {
		batch[i] = fabric.BatchOp{Object: b, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: ts}}
	}
	for i, call := range w.em.fab.TriggerBatch(w.client, batch) {
		b := objs[i]
		call.OnComplete(func(o fabric.Outcome) { w.onEvent(b, ts, o.Err) })
	}
}

// onEvent lands one low-level write completion in the state machine: the
// register is freed, and — when a push is in flight — a response for the
// current timestamp counts toward the quorum (line 11) while a response
// for an older one immediately re-covers the register with the current
// value (lines 29–34). Events arriving while the writer is idle (the op
// was cancelled and detached, or the machine is between writes) just free
// the register: the next write's push batch picks it up. onEvent never
// blocks beyond the writer mutex, so it is safe on fabric goroutines.
func (w *Writer) onEvent(b types.ObjectID, ts types.TSValue, err error) {
	w.mu.Lock()
	w.pending[b] = false
	op := w.cur
	if op == nil || op.finished {
		w.mu.Unlock()
		return
	}
	if err != nil {
		if fabric.IsViewChange(err) {
			// The low-level write raced a reconfiguration and never applied
			// (the view-change contract), so it retries instead of failing
			// the high-level write. Before the push phase there is nothing
			// to retry — the freed register simply joins the push batch once
			// the timestamp exists.
			if !op.scattered {
				w.mu.Unlock()
				return
			}
			if op.viewRetries < fabric.MaxViewRetries {
				attempt := op.viewRetries
				op.viewRetries++
				w.mu.Unlock()
				// The re-trigger runs from a timer goroutine so the backoff
				// never blocks a fabric completion, re-checking ownership:
				// if the op finished meanwhile, the register stays free.
				time.AfterFunc(fabric.ViewRetryDelay(attempt), func() {
					w.mu.Lock()
					if w.cur != op || op.finished {
						w.mu.Unlock()
						return
					}
					retrigger := w.triggerLocked(b, op.ts)
					w.mu.Unlock()
					retrigger()
				})
				return
			}
		}
		op.finished = true
		w.cur = nil
		done := op.done
		w.mu.Unlock()
		done(fmt.Errorf("regemu: write: %w", err))
		return
	}
	if !op.scattered {
		// Collect still running: the freed register joins the push batch
		// once the timestamp exists.
		w.mu.Unlock()
		return
	}
	if ts == op.ts {
		op.acked++
		if op.acked >= w.quorum {
			op.finished = true
			w.cur = nil
			pw, done := op.pw, op.done
			w.mu.Unlock()
			pw.End()
			done(nil)
			return
		}
		w.mu.Unlock()
		return
	}
	retrigger := w.triggerLocked(b, op.ts)
	w.mu.Unlock()
	retrigger()
}

// StartWrite implements emulation.AsyncWriter: collect, pick a higher
// timestamp, push to the writer's register set avoiding self-covered
// registers, and fire done after |R_j| - f acknowledgements. The whole
// operation is a callback chain — nothing blocks, and done may fire inline
// on a synchronous lane. If the failure assumption is violated, done never
// fires (a pending high-level op); the blocking wrapper bounds that wait
// with its context, and detaches on cancellation.
func (w *Writer) StartWrite(v types.Value, done func(error)) {
	w.startWrite(v, done)
}

// startWrite is StartWrite returning the op handle for detach.
func (w *Writer) startWrite(v types.Value, done func(error)) *writeOp {
	op := &writeOp{done: done}
	w.mu.Lock()
	if w.cur != nil {
		w.mu.Unlock()
		done(fmt.Errorf("regemu: writer %d already has a write in flight", w.client))
		return nil
	}
	w.cur = op
	w.mu.Unlock()
	op.pw = w.em.hist.BeginWrite(w.client, v)

	// Lines 20–26: collect until n-f complete server scans responded, then
	// (lines 6–10) scatter one batch over every register of R_j not
	// currently covered by our own previous writes.
	rounds.ScatterFoldServersScan(w.em.fab, w.client, w.em.scan, w.em.f, func(cur types.TSValue, err error) {
		if err != nil {
			w.fail(op, fmt.Errorf("regemu: collect: %w", err))
			return
		}
		w.mu.Lock()
		if w.cur != op || op.finished {
			w.mu.Unlock() // detached by a cancelled blocking wrapper
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
	return op
}

// fail completes op with err, unless it already finished or detached.
func (w *Writer) fail(op *writeOp, err error) {
	w.mu.Lock()
	if w.cur != op || op.finished {
		w.mu.Unlock()
		return
	}
	op.finished = true
	w.cur = nil
	done := op.done
	w.mu.Unlock()
	done(err)
}

// detach abandons op: its done will never fire, late completions for its
// low-level writes just free their registers, and the writer may start a
// new write — the cancelled op stays pending in the history, exactly like
// the paper's incomplete high-level ops.
func (w *Writer) detach(op *writeOp) {
	if op == nil {
		return
	}
	w.mu.Lock()
	if w.cur == op {
		op.finished = true
		w.cur = nil
	}
	w.mu.Unlock()
}

// Write implements emulation.Writer: the blocking wrapper over StartWrite.
// On ctx expiry the in-flight op is detached; its already-triggered
// low-level writes keep covering their registers until they respond, as in
// any abandoned write.
func (w *Writer) Write(ctx context.Context, v types.Value) error {
	done := make(chan error, 1)
	op := w.startWrite(v, func(err error) { done <- err })
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		w.detach(op)
		// The op may have completed between the ctx firing and the
		// detach; prefer its verdict, matching the blocking loop's
		// drain-before-ctx discipline.
		select {
		case err := <-done:
			return err
		default:
			return fmt.Errorf("regemu: write: %w", ctx.Err())
		}
	}
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

// Reader is the Algorithm 2 read-side handle.
type Reader struct {
	em     *Emulation
	client types.ClientID
}

// Compile-time interface compliance checks.
var (
	_ emulation.Reader      = (*Reader)(nil)
	_ emulation.AsyncReader = (*Reader)(nil)
)

// Client implements emulation.Reader.
func (r *Reader) Client() types.ClientID { return r.client }

// StartRead implements emulation.AsyncReader: the collect as a callback
// chain, firing done with the freshest value once n-f complete server
// scans responded.
func (r *Reader) StartRead(done func(types.Value, error)) {
	pr := r.em.hist.BeginRead(r.client)
	rounds.ScatterFoldServersScan(r.em.fab, r.client, r.em.scan, r.em.f, func(cur types.TSValue, err error) {
		if err != nil {
			done(types.InitialValue, fmt.Errorf("regemu: collect: %w", err))
			return
		}
		pr.End(cur.Val)
		done(cur.Val, nil)
	})
}

// Read implements emulation.Reader: collect and return the freshest value
// (lines 17–19).
func (r *Reader) Read(ctx context.Context) (types.Value, error) {
	pr := r.em.hist.BeginRead(r.client)
	cur, err := r.em.collect(ctx, r.client)
	if err != nil {
		return types.InitialValue, err
	}
	pr.End(cur.Val)
	return cur.Val, nil
}
