// Package casmax implements the Table 1 "CAS" upper bound: an f-tolerant,
// wait-free, WS-Regular k-register from 2f+1 CAS base objects, one per
// server.
//
// Each per-server max-register is emulated from a single CAS cell with
// Algorithm 1 (Appendix B), its first read replaced by the collect's
// maximum h, which the register hands every store's write-max as a guess:
//
//	write-max(v, h):  tmp <- min(h, v)
//	                  loop { prev <- CAS(tmp, v)
//	                         if prev = tmp or prev >= v: return ok
//	                         tmp <- prev }
//	read-max():       return CAS(v0, v0)      // read via no-op CAS
//
// A CAS returns the cell's content before it, so a failed CAS is the read
// the paper's loop would do next, taken at the same step: the loop carries
// it into the next attempt instead of re-reading. A store that holds h —
// every store of a settled register — takes one CAS per write-max; a stale
// guess costs one failed CAS, after which the loop is the paper's.
// Observation 2 still holds: every CAS expects a value no larger than v and
// installs v, so a cell only grows, and a CAS fails only when the cell
// differs from tmp — after the first attempt, only when another write-max
// installed its value since prev was returned. Each write-max installs at
// most once per cell, so the loop ends, once the cell reaches v or passes
// it, after at most one retry per concurrent write-max plus one for the
// guess.
//
// Each store's loop is one pooled record, and its CASes ride the record's
// own recycled one-op fabric.Group, so a settled write-max allocates nothing.
//
// The loop makes the construction's space cost match the max-register row
// (2f+1) while its time cost grows with contention — the tradeoff the
// paper's discussion section calls out. Metrics counts the retries so the
// benches can exhibit it (experiment E11).
package casmax

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/types"
)

// Metrics aggregates the cost of the CAS emulation across all stores.
type Metrics struct {
	// WriteMaxCalls counts write-max invocations.
	WriteMaxCalls atomic.Int64
	// CASAttempts counts CAS(tmp, v) attempts; attempts beyond the first
	// per write-max are retries, caused by contention or a stale guess.
	CASAttempts atomic.Int64
}

// Retries returns the number of extra loop iterations beyond one per
// write-max call.
func (m *Metrics) Retries() int64 {
	r := m.CASAttempts.Load() - m.WriteMaxCalls.Load()
	if r < 0 {
		return 0
	}
	return r
}

// chain emulates a max-register from each store's single CAS cell.
// Operations run as callback chains on the fabric: if any low-level CAS never
// responds (held or crashed), the chain silently stalls — precisely a
// pending op.
//
// read-max is the store's read, the no-op CAS(v0, v0) of Algorithm 1 (line
// 8) — a CAS cell's state read (Kind.StateRead), which the collect's round
// scatters; write-max is Algorithm 1's retry loop, the register's
// abdcore.Chain.
type chain struct {
	fab     *fabric.Fabric
	metrics Metrics
}

// Compile-time interface compliance check.
var _ abdcore.Chain = (*chain)(nil)

// StartWriteMax implements abdcore.Chain with the Algorithm 1 loop as a
// callback chain starting from hint; an abandoned write (ctx done) stops
// before its next CAS, so it takes at most the one CAS in flight after its
// caller returned.
func (c *chain) StartWriteMax(ctx context.Context, client types.ClientID, objs []types.ObjectID, v, hint types.TSValue, report func(types.TSValue, error)) {
	c.metrics.WriteMaxCalls.Add(1)
	w := writeMaxes.Get().(*writeMax)
	w.c, w.ctx, w.client, w.obj, w.v, w.tmp, w.report = c, ctx, client, objs[0], v, hint, report
	// Never expect more than v: a CAS from above v would lower the cell.
	if v.Less(w.tmp) {
		w.tmp = v
	}
	w.attempt()
}

// writeMax is one store's Algorithm 1 loop: the cell, the value it installs,
// the value its next CAS expects, and its completion. Its CASes ride the
// record's own one-op group: Done keeps the response value and error, and Released — the
// fabric done with the group — takes the loop's next step, which re-triggers
// the same group. The record comes from writeMaxes and goes back at its one
// report.
type writeMax struct {
	fabric.Group
	op     [1]fabric.BatchOp
	prev   types.TSValue // the last CAS's response: the cell's content before it
	err    error         // the last CAS's protocol error
	c      *chain
	ctx    context.Context
	client types.ClientID
	obj    types.ObjectID
	v, tmp types.TSValue
	report func(types.TSValue, error)
}

var writeMaxes sync.Pool

func init() {
	writeMaxes.New = func() any {
		w := new(writeMax)
		w.Ops, w.Released = w.op[:], w.swapped
		w.Done = func(_ int, o *fabric.Outcome) { w.prev, w.err = o.Resp.Val, o.Err }
		return w
	}
}

// attempt is one CAS(tmp, v), unless the write was abandoned.
func (w *writeMax) attempt() {
	if err := types.CtxErr(w.ctx); err != nil {
		w.finish(types.ZeroTSValue, err)
		return
	}
	w.c.metrics.CASAttempts.Add(1)
	w.op[0] = fabric.BatchOp{Object: w.obj, Inv: baseobj.Invocation{Op: baseobj.OpCAS, Exp: w.tmp, Arg: w.v}}
	w.c.fab.TriggerBatch(w.client, &w.Group)
}

// swapped is a CAS's released group: the returned previous value ends the
// loop or is what the next attempt expects.
func (w *writeMax) swapped() {
	prev := w.prev
	switch {
	case w.err != nil:
		w.finish(types.ZeroTSValue, w.err)
	case prev == w.tmp: // the CAS installed v
		w.finish(w.v, nil)
	case !prev.Less(w.v): // the cell already holds v or more
		w.finish(prev, nil)
	default: // retry from what the cell held (line 2)
		w.tmp = prev
		w.attempt()
	}
}

// finish hands the record back and reports, its last step.
func (w *writeMax) finish(v types.TSValue, err error) {
	report := w.report
	w.ctx, w.report, w.err = nil, nil, nil
	writeMaxes.Put(w)
	report(v, err)
}

// Seed implements abdcore.Chain with one frozen-window compare-and-swap
// from the cell's current content to the folded maximum — sound because
// nothing else can touch the cell between the read and the swap.
func (c *chain) Seed(rs *fabric.Reshaper, objs []types.ObjectID, m types.TSValue) error {
	state, err := rs.State(objs[0])
	if err != nil {
		return err
	}
	if !state.Val.Less(m) {
		return nil
	}
	_, err = rs.Apply(objs[0], baseobj.Invocation{Op: baseobj.OpCAS, Exp: state.Val, Arg: m})
	return err
}

// New places one CAS cell on each of 2f+1 servers, f being the fabric's
// view's, and returns the emulated k-register together with its retry
// metrics. Writes carry timestamps only: opts.ValueSize sizes nothing on a
// register whose write-max is a chain.
func New(fab *fabric.Fabric, k int, opts emulation.Options) (*abdcore.Register, *Metrics, error) {
	c := &chain{fab: fab}
	reg, err := abdcore.New(abdcore.Config{
		Name:    "abd-cas",
		K:       k,
		Fabric:  fab,
		Options: opts,
		Place:   place,
		Chain:   c,
	})
	if err != nil {
		return nil, nil, err
	}
	return reg, &c.metrics, nil
}

// place is the store recipe: one CAS cell.
func place(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
	obj, err := c.PlaceCASCell(server)
	if err != nil {
		return objs, err
	}
	return append(objs, obj), nil
}
