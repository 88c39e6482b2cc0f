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
//     timestamp (lines 20–26 of Algorithm 2) — above the collect and above
//     everything the writer proposed before (emulation.Handles.Propose).
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
// A view resize re-plans the layout for the new n and f (Reshape), so the
// register count follows Table 1's row as servers join and leave.
package regemu

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/types"
)

// placement is one epoch's layout: every register set by set and
// server-major, the set geometry and the failure budget. A resize installs
// a whole new placement, so a round derives its targets and its threshold
// from one snapshot. Its one mutable part is the writers' cover flags, each
// writer's guarded by that writer's mutex: they cover this placement's
// registers only, so a reshape starts every writer uncovered and a late
// response from a retired register frees a flag nothing reads again.
type placement struct {
	f, z, y int              // failure budget, writers per set, registers per full set
	objs    []types.ObjectID // R_0, R_1, ... back to back: R_j starts at j·y
	scan    []types.ObjectID // the same registers server-major: what a collect reads
	cover   []bool           // cover[w·y+i]: writer w has a write pending on register i of its set
}

// set returns writer w's register set and its cover flags.
func (p *placement) set(w types.ClientID) ([]types.ObjectID, []bool) {
	lo := int(w) / p.z * p.y
	hi := min(lo+p.y, len(p.objs))
	return p.objs[lo:hi], p.cover[int(w)*p.y:][:hi-lo]
}

// arrange is the one place a placement is built: it plans the layout of k
// writers for f and the given members, verifies it, and materializes it on
// them. Nothing is placed unless the plan fits.
func arrange(c *cluster.Cluster, p *placement, k, f int, members []types.ServerID) error {
	plan, err := layout.NewPlan(k, f, len(members))
	if err != nil {
		return fmt.Errorf("regemu: planning layout: %w", err)
	}
	if err := plan.Verify(); err != nil {
		return fmt.Errorf("regemu: verifying layout: %w", err)
	}
	sets, err := layout.Materialize(c, plan, members)
	if err != nil {
		return fmt.Errorf("regemu: materializing layout: %w", err)
	}
	total := plan.TotalRegisters()
	ids := make([]types.ObjectID, 0, 2*total)
	for _, set := range sets {
		ids = append(ids, set...)
	}
	for s := range members {
		for j, set := range sets {
			for idx, obj := range set {
				if i, _ := plan.ServerFor(j, idx); int(i) == s {
					ids = append(ids, obj)
				}
			}
		}
	}
	p.f, p.z, p.y = f, plan.Z, plan.Y
	p.objs, p.scan, p.cover = ids[:total], ids[total:], make([]bool, k*plan.Y)
	return nil
}

// Emulation is the Algorithm 2 register.
type Emulation struct {
	emulation.Handles
	fab      *fabric.Fabric
	p        atomic.Pointer[placement]
	machines []machine // writer i's state machine
	// first is New's placement. A resize publishes a heap one and leaves
	// this one as it was: a round that loaded it may still read it.
	first placement
}

// Compile-time interface compliance check.
var _ emulation.Register = (*Emulation)(nil)

// New builds the register-set layout over the members of the cluster's
// current view (all n of them) for the view's f and returns the emulated
// k-register. Readers never write, so opts.Atomic is rejected; writes carry
// timestamps only (opts.ValueSize is ignored). Everything is checked before
// the first register is placed.
func New(fab *fabric.Fabric, k int, opts emulation.Options) (*Emulation, error) {
	if err := opts.RegularOnly("regemu"); err != nil {
		return nil, err
	}
	e := &Emulation{fab: fab}
	if err := e.Init("regemu", k, e); err != nil {
		return nil, err
	}
	e.machines = make([]machine, k)
	c := fab.Cluster()
	view := c.View()
	if err := arrange(c, &e.first, k, view.F, view.Members); err != nil {
		return nil, err
	}
	e.p.Store(&e.first)
	return e, nil
}

// F implements emulation.Register: the live placement's failure budget.
func (e *Emulation) F() int { return e.p.Load().f }

// ResourceComplexity implements emulation.Register: the registers of the
// live placement, bounds.RegisterUpper(k, f, n) by layout.Plan.Verify.
func (e *Emulation) ResourceComplexity() int { return len(e.p.Load().objs) }

// Reshape implements emulation.Register: it re-plans the layout for the
// resized view and swaps the placement atomically, inside the transition's
// frozen window, in an order whose every step keeps the register
// recoverable:
//
//  1. Fold the maximum timestamped value over every old register's
//     authoritative state — the last completed write is ≤ m, and m is a
//     completed or in-flight write, so seeding m is always regular.
//  2. Plan, verify and materialize the layout of k writers for the new f on
//     the new members; a plan that does not fit aborts the transition
//     before anything is placed.
//  3. Seed every new register with m, as a writer of its set (the
//     registers are writer-restricted).
//  4. Publish the placement — from here every collect scans the new
//     registers at the new f, and a push caught by the window re-pushes
//     its timestamp to its set in it.
//  5. Retire the old registers LAST: retiring before the swap would expose
//     in-window retries to a non-retryable missing-object error.
func (e *Emulation) Reshape(rs *fabric.Reshaper) error {
	old := e.p.Load()
	var m types.TSValue
	for _, obj := range old.objs {
		st, err := rs.State(obj)
		if err != nil {
			return fmt.Errorf("regemu: reading register %d: %w", obj, err)
		}
		m = types.MaxTSValue(m, st.Val)
	}
	p := new(placement)
	if err := arrange(e.fab.Cluster(), p, e.K(), rs.F(), rs.Members()); err != nil {
		return err
	}
	// No write ever took effect: there is nothing to seed.
	if types.ZeroTSValue.Less(m) {
		for i, obj := range p.objs {
			seeder := types.ClientID(i / p.y * p.z) // the first writer of the register's set
			if _, err := rs.ApplyAs(seeder, obj, baseobj.Invocation{Op: baseobj.OpWrite, Arg: m}); err != nil {
				return fmt.Errorf("regemu: seeding register %d: %w", obj, err)
			}
		}
	}
	e.p.Store(p)
	for _, obj := range old.objs {
		if err := rs.Retire(obj); err != nil {
			return fmt.Errorf("regemu: retiring register %d: %w", obj, err)
		}
	}
	return nil
}

// StartRead is the high-level read (emulation.Protocol): one collect.
func (e *Emulation) StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error)) {
	e.collect(ctx, client, func(cur types.TSValue, _ uint64, err error) {
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
// crashed ones, or for more servers than exist. Each attempt plans from the
// live placement, so a collect retried across a reshape scans the new
// registers at the new f.
func (e *Emulation) collect(ctx context.Context, client types.ClientID, report func(types.TSValue, uint64, error)) {
	rounds.Scatter(ctx, e.fab, client, rounds.Round{
		Plan: func(buf []rounds.Target) ([]rounds.Target, int) {
			p := e.p.Load()
			for _, obj := range p.scan {
				buf = append(buf, rounds.Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}})
			}
			return buf, p.f
		},
		Scan: true,
		Max:  report,
	})
}

// writeOp is one in-flight high-level write driven by the writer's state
// machine: the Statei of the pseudo-code for one invocation. It is guarded
// by the writer's mutex.
type writeOp struct {
	// ctx is the caller's context: once it is done the op is abandoned — it
	// no longer owns the machine and triggers nothing further.
	ctx context.Context
	// p is the placement the push writes to, nil until the collect
	// completed (only then do freed registers re-trigger with ts — during
	// the collect the timestamp does not exist yet, so freed registers
	// simply stay free and join the push batch).
	p  *placement
	ts types.TSValue
	// acked counts responses carrying ts from p's registers (line 11).
	acked int
	done  func(error)
}

// machine is the Algorithm 2 per-writer state: the one high-level write in
// flight. Its cover set lives in the placement (placement.cover). The
// machine is event-driven — low-level completions call onEvent on whatever
// goroutine completes them (fabric, a retry's, or the caller's own for
// synchronous lanes) — so one high-level write costs no goroutine, and
// internal/emulation/async drives thousands of writers from one event loop.
// Per the emulation contract a writer carries at most one in-flight
// high-level write; starting a second while the previous one is live (not
// completed, its context not done) is rejected loudly.
type machine struct {
	mu  sync.Mutex
	cur *writeOp // the in-flight high-level write, nil when idle
}

// live reports whether op still owns the machine; callers hold the mutex.
func (m *machine) live(op *writeOp) bool {
	return op != nil && m.cur == op && op.ctx.Err() == nil
}

// reap is the step an abandoned op takes instead of its next one: it
// reports its context's error (to whoever still listens) and frees the
// machine. Called without the mutex, on an op that was found not live.
func (m *machine) reap(op *writeOp) {
	if op != nil && op.ctx.Err() != nil {
		m.finish(op, fmt.Errorf("regemu: write: %w", op.ctx.Err()))
	}
}

// finish completes op with err (nil: acknowledged by its quorum), exactly
// once and only while it still owns the machine.
func (m *machine) finish(op *writeOp, err error) {
	m.mu.Lock()
	if m.cur != op {
		m.mu.Unlock()
		return
	}
	m.cur = nil
	m.mu.Unlock()
	op.done(err)
}

// StartWrite is the high-level write (emulation.Protocol): collect, stamp
// through the writers' floor, push to the writer's register set avoiding
// self-covered registers, and fire done after |R_j| - f acknowledgements.
// The whole operation is a callback chain — nothing blocks, and done may
// fire inline on a synchronous lane. If the failure assumption is violated,
// done never fires (a pending high-level op); a caller that gives up
// cancels ctx, and the abandoned op's already-triggered low-level writes
// keep covering their registers until they respond, as in any abandoned
// write.
func (e *Emulation) StartWrite(ctx context.Context, client types.ClientID, v types.Value, done func(error)) {
	m := &e.machines[client]
	op := &writeOp{ctx: ctx, done: done}
	m.mu.Lock()
	if m.live(m.cur) {
		m.mu.Unlock()
		done(fmt.Errorf("regemu: writer %d already has a write in flight", client))
		return
	}
	m.cur = op
	m.mu.Unlock()

	// Lines 20–26: collect until n-f complete server scans responded, then
	// push (lines 6–10).
	e.collect(ctx, client, func(cur types.TSValue, _ uint64, err error) {
		if err != nil {
			m.finish(op, fmt.Errorf("regemu: collect: %w", err))
			return
		}
		m.mu.Lock()
		if !m.live(op) {
			m.mu.Unlock()
			m.reap(op)
			return
		}
		op.ts = types.TSValue{TS: e.Propose(client, cur.TS), Writer: client, Val: v}
		e.push(m, client, op)
	})
}

// push scatters op.ts, as one batch, over every register of the writer's
// set in the live placement that no earlier write of the writer still
// covers, and counts acknowledgements from zero against that set's quorum.
// It starts the push, and restarts it when a reshape published a new
// placement under it. The caller holds m.mu; push releases it. The view
// stamp is read before the placement is loaded, so it is older than every
// lookup the batch makes (rounds.Retry).
func (e *Emulation) push(m *machine, client types.ClientID, op *writeOp) {
	seen := e.fab.ViewStamp()
	p := e.p.Load()
	op.p, op.acked = p, 0
	set, cover := p.set(client)
	fresh := make([]int, 0, len(set))
	for i, covered := range cover {
		if !covered {
			cover[i] = true
			fresh = append(fresh, i)
		}
	}
	ts := op.ts
	m.mu.Unlock()
	e.scatter(client, p, set, fresh, ts, seen)
}

// scatter writes ts, as one batch, to the registers set[i] for each i in idx,
// and lands each completion in onEvent.
func (e *Emulation) scatter(client types.ClientID, p *placement, set []types.ObjectID, idx []int, ts types.TSValue, seen uint64) {
	g := &fabric.Group{
		Ops:  make([]fabric.BatchOp, len(idx)),
		Done: func(b int, o *fabric.Outcome) { e.onEvent(client, p, idx[b], ts, seen, o.Err) },
	}
	for b, i := range idx {
		g.Ops[b] = fabric.BatchOp{Object: set[i], Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: ts}}
	}
	e.fab.TriggerBatch(client, g)
}

// retrigger re-covers register i of the writer's set in op.p with op.ts —
// or, when a reshape published a new placement since op.p, restarts the
// push there. The caller holds m.mu and read seen before checking that op
// is live; retrigger releases the mutex. On a synchronous lane the
// completion runs inline and re-enters onEvent.
func (e *Emulation) retrigger(m *machine, client types.ClientID, op *writeOp, i int, seen uint64) {
	p := op.p
	if e.p.Load() != p {
		e.push(m, client, op)
		return
	}
	set, cover := p.set(client)
	cover[i] = true
	ts := op.ts
	m.mu.Unlock()
	e.scatter(client, p, set, []int{i}, ts, seen)
}

// onEvent lands one low-level write completion — of ts, on register i of
// the writer's set in p — in the state machine: the register is freed, and
// — when the live op pushes to p — a response for the current timestamp
// counts toward the quorum (line 11) while a response for an older one
// immediately re-covers the register with the current value (lines 29–34).
// Events arriving while no live op pushes to p (the op was abandoned, is
// still collecting, moved to a newer placement, or the machine is between
// writes) just free the register: the next push batch picks it up.
// onEvent never blocks beyond the writer mutex, so it is safe on fabric
// goroutines.
func (e *Emulation) onEvent(client types.ClientID, p *placement, i int, ts types.TSValue, seen uint64, err error) {
	m := &e.machines[client]
	now := e.fab.ViewStamp()
	m.mu.Lock()
	_, cover := p.set(client)
	cover[i] = false
	op := m.cur
	if !m.live(op) || op.p != p {
		m.mu.Unlock()
		m.reap(op)
		return
	}
	switch {
	case err != nil:
		// A low-level write that raced a reconfiguration never applied (the
		// view-change contract), so it retries once the transition ended
		// instead of failing the high-level write — re-checking ownership
		// first: if the op finished, was abandoned or moved on meanwhile,
		// the register stays free.
		m.mu.Unlock()
		if !rounds.Retry(op.ctx, e.fab, seen, err, func() {
			now := e.fab.ViewStamp()
			m.mu.Lock()
			if !m.live(op) || op.p != p {
				m.mu.Unlock()
				return
			}
			e.retrigger(m, client, op, i, now)
		}, func(err error) { m.finish(op, err) }) {
			m.finish(op, fmt.Errorf("regemu: write: %w", err))
		}
	case ts != op.ts:
		e.retrigger(m, client, op, i, now)
	default:
		set, _ := p.set(client)
		op.acked++
		done := op.acked >= len(set)-p.f
		m.mu.Unlock()
		if done {
			m.finish(op, nil)
		}
	}
}
