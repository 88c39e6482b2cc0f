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
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/types"
)

// store is one per-server k-writer max-register made of k base registers.
type store struct {
	fab    *fabric.Fabric
	server types.ServerID
	regs   []types.ObjectID // regs[i] is writable only by writer i

	mu    sync.Mutex
	cells []cell // cells[i] is writer i's side of regs[i]
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
var _ abdcore.Chain = (*store)(nil)

// place creates the store of one server: k single-writer registers.
func place(fab *fabric.Fabric, k int, server types.ServerID) (abdcore.MaxStore, error) {
	st := &store{
		fab:    fab,
		server: server,
		regs:   make([]types.ObjectID, 0, k),
		cells:  make([]cell, k),
	}
	for w := 0; w < k; w++ {
		obj, err := fab.Cluster().PlaceRegister(server, types.ClientID(w))
		if err != nil {
			return nil, err
		}
		st.regs = append(st.regs, obj)
	}
	return st, nil
}

// Server implements abdcore.MaxStore.
func (s *store) Server() types.ServerID { return s.server }

// Objects implements abdcore.MaxStore.
func (s *store) Objects() []types.ObjectID { return s.regs }

// ReadMax implements abdcore.MaxStore: a read of each of the k registers.
// The registers live on the same server, so they crash together, and the
// collect — a server scan over every store — counts the server once all k
// answered.
func (s *store) ReadMax(buf []rounds.Target) []rounds.Target {
	for _, obj := range s.regs {
		buf = append(buf, rounds.Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}})
	}
	return buf
}

// StartWriteMax implements abdcore.Chain: writer i writes its own base
// register, skipping values no larger than what already landed there (which
// makes the cell monotone, i.e. a genuine single-writer max) at once, and a
// newer value waits while an earlier write of its is in flight there.
func (s *store) StartWriteMax(ctx context.Context, client types.ClientID, v types.TSValue, report func(types.TSValue, error)) {
	if int(client) < 0 || int(client) >= len(s.regs) {
		report(types.ZeroTSValue, fmt.Errorf("aacmax: client %d is not a writer (k=%d)", client, len(s.regs)))
		return
	}
	s.mu.Lock()
	c := &s.cells[client]
	if last := c.last; !last.Less(v) {
		s.mu.Unlock()
		report(last, nil)
		return
	}
	c.waiting = append(c.waiting, writeMax{ctx, v, report})
	s.mu.Unlock()
	s.next(client)
}

// next serves client's waiting write-maxes unless a write of its is in
// flight: those the landed value satisfies report it, those whose context
// ended fail, and the rest go out as one write of their largest value, whose
// completion serves whoever waited meanwhile.
func (s *store) next(client types.ClientID) {
	s.mu.Lock()
	c := &s.cells[client]
	if c.busy {
		s.mu.Unlock()
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
	s.mu.Unlock()
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
	s.fab.TriggerFn(client, s.regs[client], baseobj.Invocation{Op: baseobj.OpWrite, Arg: v}, func(o fabric.Outcome) {
		s.mu.Lock()
		if o.Err == nil && c.last.Less(v) {
			// The floor advances only once the write took effect: advancing
			// it at trigger time would make a retried round (after a
			// view-change completion, which guarantees the write never
			// applied) skip the register and report success for a lost write.
			c.last = v
		}
		c.busy = false
		s.mu.Unlock()
		for _, w := range rest {
			w.report(o.Resp.Val, o.Err)
		}
		s.next(client)
	})
}

// Seed implements abdcore.Chain: the folded maximum goes into its own
// writer's register — carrying the writer's identity, since the base
// registers are single-writer — and the store's client-side floor advances
// with it so a later write-max by that writer still skips stale values.
func (s *store) Seed(rs *fabric.Reshaper, m types.TSValue) error {
	if int(m.Writer) < 0 || int(m.Writer) >= len(s.regs) {
		return fmt.Errorf("aacmax: folded maximum written by client %d, not a writer (k=%d)", m.Writer, len(s.regs))
	}
	if _, err := rs.ApplyAs(m.Writer, s.regs[m.Writer], baseobj.Invocation{Op: baseobj.OpWrite, Arg: m}); err != nil {
		return err
	}
	s.mu.Lock()
	if c := &s.cells[m.Writer]; c.last.Less(m) {
		c.last = m
	}
	s.mu.Unlock()
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
		Place: func(server types.ServerID) (abdcore.MaxStore, error) {
			return place(fab, k, server)
		},
	})
}
