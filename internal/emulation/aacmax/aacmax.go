// Package aacmax implements the paper's n = 2f+1 special-case construction
// (Section 3.3 remark, Theorem 2 tightness): every server hosts a k-writer
// max-register built from k single-writer base registers in the style of
// Aspnes, Attiya, and Censor [4], and the ABD quorum register runs on top.
//
// The space cost is (2f+1)·k base registers, which matches the register
// lower bound kf + k(f+1) = (2f+1)k exactly at n = 2f+1, while supporting
// stronger (fully regular, not just write-sequential) semantics: register i
// of a server is written only by writer i, whose timestamps are monotone,
// so no covering write can ever erase another writer's value.
//
// read-max reads all k registers of the server; because they live on the
// same server they crash together, so the collect — one server-scan round
// over all (2f+1)k registers — waits for all but f servers to answer in full.
package aacmax

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/types"
)

// chain is the register's write-max over its stores — on each server, a
// k-writer max-register made of k single-writer base registers, register i
// writable only by writer i. Its state is one cell per base register, keyed
// by the register's object ID: per (store, writer). The cells of a store a
// resize dropped stay behind, k per dropped store.
type chain struct {
	fab *fabric.Fabric

	mu    sync.Mutex
	cells map[types.ObjectID]*cell
}

// cell is one writer's side of its register on the server. A plain register
// overwrites, so two writes of one writer in flight on it could land out of
// order and the older erase the newer (a write held before it took effect
// and released after the writer's next write completed). So at most one is
// in flight: a write-max arriving meanwhile waits, the waiting ones are
// coalesced into one write of their largest value, and each reports once a
// write carrying a value no smaller than its own has landed.
type cell struct {
	last    types.TSValue // the largest value landed: the write-max floor
	busy    bool          // a write is in flight
	waiting []writeMax
}

// writeMax is a write-max waiting for the cell.
type writeMax struct {
	ctx    context.Context
	v      types.TSValue
	report func(types.TSValue, error)
}

// Compile-time interface compliance check.
var _ abdcore.Chain = (*chain)(nil)

// place is the store recipe: k single-writer registers on server, register
// w restricted to writer w. The collect reads all k (Config.Read); they live
// on the same server, so they crash together, and the collect — a server
// scan over every store — counts the server once all k answered.
func place(c *cluster.Cluster, k int, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
	for w := 0; w < k; w++ {
		obj, err := c.PlaceRegister(server, baseobj.WriterRange{Lo: types.ClientID(w), Hi: types.ClientID(w + 1)})
		if err != nil {
			return objs, err
		}
		objs = append(objs, obj)
	}
	return objs, nil
}

// cell returns the cell of base register obj, making it on first use. The
// caller holds ch.mu.
func (ch *chain) cell(obj types.ObjectID) *cell {
	c := ch.cells[obj]
	if c == nil {
		c = new(cell)
		ch.cells[obj] = c
	}
	return c
}

// StartWriteMax implements abdcore.Chain: writer i writes its own base
// register of the store, objs[i], skipping values no larger than what
// already landed there (which makes the cell monotone, i.e. a genuine
// single-writer max) at once, and a newer value waits while an earlier write
// of its is in flight there.
func (ch *chain) StartWriteMax(ctx context.Context, client types.ClientID, objs []types.ObjectID, v types.TSValue, report func(types.TSValue, error)) {
	if int(client) < 0 || int(client) >= len(objs) {
		report(types.ZeroTSValue, fmt.Errorf("aacmax: client %d is not a writer (k=%d)", client, len(objs)))
		return
	}
	obj := objs[client]
	ch.mu.Lock()
	c := ch.cell(obj)
	if last := c.last; !last.Less(v) {
		ch.mu.Unlock()
		report(last, nil)
		return
	}
	c.waiting = append(c.waiting, writeMax{ctx, v, report})
	ch.mu.Unlock()
	ch.next(client, obj)
}

// next serves client's waiting write-maxes on its register obj unless a
// write of its is in flight: those the landed value satisfies report it,
// those whose context ended fail, and the rest go out as one write of their
// largest value, whose completion serves whoever waited meanwhile.
func (ch *chain) next(client types.ClientID, obj types.ObjectID) {
	ch.mu.Lock()
	c := ch.cell(obj)
	if c.busy {
		ch.mu.Unlock()
		return
	}
	var v types.TSValue
	var done []writeMax
	rest := c.waiting[:0]
	for _, w := range c.waiting {
		if c.last.Less(w.v) && w.ctx.Err() == nil {
			rest = append(rest, w)
			if v.Less(w.v) {
				v = w.v
			}
		} else {
			done = append(done, w)
		}
	}
	last := c.last
	c.waiting, c.busy = nil, len(rest) > 0
	ch.mu.Unlock()
	for _, w := range done {
		if last.Less(w.v) {
			w.report(types.ZeroTSValue, w.ctx.Err())
		} else {
			w.report(last, nil)
		}
	}
	if len(rest) == 0 {
		return
	}
	ch.fab.TriggerFn(client, obj, baseobj.Invocation{Op: baseobj.OpWrite, Arg: v}, func(o fabric.Outcome) {
		ch.mu.Lock()
		if o.Err == nil && c.last.Less(v) {
			// The floor advances only once the write took effect: advancing
			// it at trigger time would make a retried round (after a
			// view-change completion, which guarantees the write never
			// applied) skip the register and report success for a lost write.
			c.last = v
		}
		c.busy = false
		ch.mu.Unlock()
		for _, w := range rest {
			w.report(o.Resp.Val, o.Err)
		}
		ch.next(client, obj)
	})
}

// Seed implements abdcore.Chain: the folded maximum goes into its own
// writer's register of the store — carrying the writer's identity, since the
// base registers are single-writer — and that register's client-side floor
// advances with it so a later write-max by that writer still skips stale
// values.
func (ch *chain) Seed(rs *fabric.Reshaper, objs []types.ObjectID, m types.TSValue) error {
	if int(m.Writer) < 0 || int(m.Writer) >= len(objs) {
		return fmt.Errorf("aacmax: folded maximum written by client %d, not a writer (k=%d)", m.Writer, len(objs))
	}
	obj := objs[m.Writer]
	if _, err := rs.ApplyAs(m.Writer, obj, baseobj.Invocation{Op: baseobj.OpWrite, Arg: m}); err != nil {
		return err
	}
	ch.mu.Lock()
	if c := ch.cell(obj); c.last.Less(m) {
		c.last = m
	}
	ch.mu.Unlock()
	return nil
}

// New places k single-writer registers on each of 2f+1 servers ((2f+1)k
// base registers in total) and returns the emulated k-register. Reads never
// write, so only the regular (non-write-back) protocol is offered and
// opts.Atomic is rejected: the k-register per-server max has no cell a
// reader could write. Writes carry timestamps only (opts.ValueSize is
// ignored).
func New(fab *fabric.Fabric, k, f int, opts emulation.Options) (*abdcore.Register, error) {
	if err := opts.RegularOnly("aac-max"); err != nil {
		return nil, err
	}
	return abdcore.New(abdcore.Config{
		Name:   "aac-max",
		K:      k,
		F:      f,
		Fabric: fab,
		Read:   baseobj.OpRead,
		Place: func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
			return place(c, k, server, objs)
		},
		Chain: &chain{fab: fab, cells: make(map[types.ObjectID]*cell)},
	})
}
