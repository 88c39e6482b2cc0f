// Package casmax implements the Table 1 "CAS" upper bound: an f-tolerant,
// wait-free, WS-Regular k-register from 2f+1 CAS base objects, one per
// server.
//
// Each per-server max-register is emulated from a single CAS cell with
// Algorithm 1 (Appendix B):
//
//	write-max(v):  loop { tmp <- CAS(v0, v0)      // read via no-op CAS
//	                      if tmp >= v: return ok
//	                      CAS(tmp, v) }
//	read-max():    return CAS(v0, v0)
//
// The loop makes the construction's space cost match the max-register row
// (2f+1) while its time cost grows with contention — the tradeoff the
// paper's discussion section calls out. Metrics counts the retries so the
// benches can exhibit it (experiment E11).
package casmax

import (
	"context"
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
	// CASAttempts counts conditional CAS(tmp, v) attempts; attempts
	// beyond the first per write-max are retries caused by contention.
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
// read-max is the store's read, the no-op CAS(v0, v0) of Algorithm 1 (lines
// 3/8) — a CAS cell's state read (Kind.StateRead), which the collect's
// round scatters; write-max is Algorithm 1's retry loop, the register's
// abdcore.Chain.
type chain struct {
	fab     *fabric.Fabric
	metrics Metrics
}

// Compile-time interface compliance check.
var _ abdcore.Chain = (*chain)(nil)

// StartWriteMax implements abdcore.Chain with the Algorithm 1 loop as
// a callback chain; an abandoned write (ctx done) stops at its next step.
func (c *chain) StartWriteMax(ctx context.Context, client types.ClientID, objs []types.ObjectID, v types.TSValue, report func(types.TSValue, error)) {
	obj := objs[0]
	c.metrics.WriteMaxCalls.Add(1)
	var attempt func()
	attempt = func() {
		if err := types.CtxErr(ctx); err != nil {
			report(types.ZeroTSValue, err)
			return
		}
		// Algorithm 1's read: the no-op CAS(v0, v0), zero Exp and New.
		c.fab.TriggerFn(client, obj, baseobj.Invocation{Op: baseobj.OpCAS}, func(o fabric.Outcome) {
			if o.Err != nil {
				report(types.ZeroTSValue, o.Err)
				return
			}
			tmp := o.Resp.Val
			if !tmp.Less(v) {
				// tmp >= v: the register already holds a value at
				// least as large; write-max is done (line 4-5).
				report(tmp, nil)
				return
			}
			if err := types.CtxErr(ctx); err != nil {
				report(types.ZeroTSValue, err)
				return
			}
			c.metrics.CASAttempts.Add(1)
			c.fab.TriggerFn(client, obj, baseobj.Invocation{Op: baseobj.OpCAS, Exp: tmp, New: v}, func(o2 fabric.Outcome) {
				if o2.Err != nil {
					report(types.ZeroTSValue, o2.Err)
					return
				}
				// Whether or not the CAS succeeded, re-read and
				// re-check (line 2): termination follows from the
				// monotonically increasing values (Observation 2).
				attempt()
			})
		})
	}
	attempt()
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
	_, err = rs.Apply(objs[0], baseobj.Invocation{Op: baseobj.OpCAS, Exp: state.Val, New: m})
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
