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
	waiting *write        // the write the waiting write-maxes go out as; nil while none wait
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
// w restricted to writer w. The collect reads all k; they live
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
// of its is in flight there. A plain write needs no expected value: the
// hint goes unused.
func (ch *chain) StartWriteMax(ctx context.Context, client types.ClientID, objs []types.ObjectID, v, _ types.TSValue, report func(types.TSValue, error)) {
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
	if c.waiting == nil {
		c.waiting = writes.Get().(*write)
	}
	c.waiting.wms = append(c.waiting.wms, writeMax{ctx, v, report})
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
	w := c.waiting
	if c.busy || w == nil {
		ch.mu.Unlock()
		return
	}
	var v types.TSValue
	var done []writeMax
	rest := w.wms[:0]
	for _, wm := range w.wms {
		if c.last.Less(wm.v) && wm.ctx.Err() == nil {
			rest = append(rest, wm)
			if v.Less(wm.v) {
				v = wm.v
			}
		} else {
			done = append(done, wm)
		}
	}
	last := c.last
	w.wms, c.waiting, c.busy = rest, nil, len(rest) > 0
	ch.mu.Unlock()
	for _, wm := range done {
		if last.Less(wm.v) {
			wm.report(types.ZeroTSValue, wm.ctx.Err())
		} else {
			wm.report(last, nil)
		}
	}
	if len(rest) == 0 {
		w.put()
		return
	}
	w.ch, w.c, w.client, w.obj, w.v = ch, c, client, obj, v
	w.op[0] = fabric.BatchOp{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: v}}
	ch.fab.TriggerBatch(client, &w.Group)
}

// write is a cell's next write while write-maxes wait for it, then its one
// write in flight, on the record's own one-op group: Done keeps the response
// value and error, and Released — the fabric done with the group — lands it.
// The record comes from writes and goes back once it served its write-maxes,
// their queue emptied but kept: a write-max allocates no queue, and an idle
// cell — one per store and writer of every key — holds none.
type write struct {
	fabric.Group
	op     [1]fabric.BatchOp
	prev   types.TSValue // the write's response value
	err    error         // the write's protocol error
	ch     *chain
	c      *cell
	client types.ClientID
	obj    types.ObjectID
	v      types.TSValue
	wms    []writeMax // the write-maxes the write serves
}

var writes sync.Pool

func init() {
	writes.New = func() any {
		w := new(write)
		w.Ops, w.Released = w.op[:], w.landed
		w.Done = func(_ int, o *fabric.Outcome) { w.prev, w.err = o.Resp.Val, o.Err }
		return w
	}
}

// landed serves the write-maxes a write carried and then whoever waited
// meanwhile.
func (w *write) landed() {
	ch, c, prev, err, client, obj := w.ch, w.c, w.prev, w.err, w.client, w.obj
	ch.mu.Lock()
	if err == nil && c.last.Less(w.v) {
		// The floor advances only once the write took effect: advancing
		// it at trigger time would make a retried round (after a
		// view-change completion, which guarantees the write never
		// applied) skip the register and report success for a lost write.
		c.last = w.v
	}
	c.busy = false
	ch.mu.Unlock()
	for _, wm := range w.wms {
		wm.report(prev, err)
	}
	w.put()
	ch.next(client, obj)
}

// put empties w and hands it back.
func (w *write) put() {
	clear(w.wms[:cap(w.wms)])
	w.ch, w.c, w.wms, w.err = nil, nil, w.wms[:0], nil
	writes.Put(w)
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
// base registers in total), f being the fabric's view's, and returns the
// emulated k-register. Reads never
// write, so only the regular (non-write-back) protocol is offered and
// opts.Atomic is rejected: the k-register per-server max has no cell a
// reader could write. Writes carry timestamps only (opts.ValueSize is
// ignored).
func New(fab *fabric.Fabric, k int, opts emulation.Options) (*abdcore.Register, error) {
	if err := opts.RegularOnly("aac-max"); err != nil {
		return nil, err
	}
	return abdcore.New(abdcore.Config{
		Name:   "aac-max",
		K:      k,
		Fabric: fab,
		Place: func(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
			return place(c, k, server, objs)
		},
		Chain: &chain{fab: fab, cells: make(map[types.ObjectID]*cell)},
	})
}
