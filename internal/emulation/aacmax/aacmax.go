// Package aacmax implements the paper's n = 2f+1 special-case construction
// (Section 3.3 remark, Theorem 2 tightness): every server hosts a k-writer
// max-register built from k single-writer base registers in the style of
// Aspnes, Attiya, and Censor [4], and the ABD quorum engine runs on top.
//
// The space cost is (2f+1)·k base registers, which matches the register
// lower bound kf + k(f+1) = (2f+1)k exactly at n = 2f+1, while supporting
// stronger (fully regular, not just write-sequential) semantics: register i
// of a server is written only by writer i, whose timestamps are monotone,
// so no covering write can ever erase another writer's value.
//
// read-max collects all k registers of the server; because they live on the
// same server they crash together, so the collect either completes in full
// or stalls like any faulty base object.
package aacmax

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/baseobj"
	"repro/internal/emulation/abdcore"
	"repro/internal/emulation/quorumreg"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// store is one per-server k-writer max-register made of k base registers.
type store struct {
	fab    *fabric.Fabric
	server types.ServerID
	regs   []types.ObjectID // regs[i] is writable only by writer i
	scan   []rounds.Target  // read targets for all k registers, precomputed

	mu   sync.Mutex
	last map[types.ClientID]types.TSValue // client-side write-max floor
}

// Compile-time interface compliance checks.
var (
	_ abdcore.ReadStarter  = (*store)(nil)
	_ abdcore.WriteStarter = (*store)(nil)
)

// Server implements abdcore.MaxStore.
func (s *store) Server() types.ServerID { return s.server }

// StartWriteMax implements abdcore.WriteStarter: writer i writes its own base
// register, skipping values no larger than what it already wrote there
// (which makes the cell monotone, i.e. a genuine single-writer max).
func (s *store) StartWriteMax(_ context.Context, client types.ClientID, v types.TSValue, report func(types.TSValue, error)) {
	if int(client) < 0 || int(client) >= len(s.regs) {
		report(types.ZeroTSValue, fmt.Errorf("aacmax: client %d is not a writer (k=%d)", client, len(s.regs)))
		return
	}
	s.mu.Lock()
	prev := s.last[client]
	s.mu.Unlock()
	if !prev.Less(v) {
		report(prev, nil)
		return
	}
	call := s.fab.Trigger(client, s.regs[client], baseobj.Invocation{Op: baseobj.OpWrite, Arg: v})
	call.OnComplete(func(o fabric.Outcome) {
		if o.Err == nil {
			// The floor advances only once the write took effect: advancing
			// it at trigger time would make a retried round (after a
			// view-change completion, which guarantees the write never
			// applied) skip the register and report success for a lost write.
			s.mu.Lock()
			if s.last[client].Less(v) {
				s.last[client] = v
			}
			s.mu.Unlock()
		}
		report(o.Resp.Val, o.Err)
	})
}

// StartReadMax implements abdcore.ReadStarter: scatter a read over all k
// registers of the server in one batch and report their maximum once all
// have responded. The registers live on the same server, so they crash
// together: the fold either completes in full or stalls like any faulty
// base object.
func (s *store) StartReadMax(ctx context.Context, client types.ClientID, report func(types.TSValue, error)) {
	rounds.Scatter(ctx, s.fab, client, rounds.Round{Max: report, Plan: func() ([]rounds.Target, int) {
		return s.scan, len(s.scan)
	}})
}

// storeReshaper re-places per-server k-register stores across a view
// resize. The folded maximum is seeded into its own writer's register —
// carrying the writer's identity, since the base registers are
// single-writer — and the store's client-side floor advances with it so a
// later write-max by that writer still skips stale values.
type storeReshaper struct {
	fab *fabric.Fabric
	k   int
}

var _ quorumreg.StoreReshaper = (*storeReshaper)(nil)

func (sr *storeReshaper) StoreObjects(s abdcore.MaxStore) []types.ObjectID {
	return s.(*store).regs
}

func (sr *storeReshaper) NewStore(rs *fabric.Reshaper, server types.ServerID, m types.TSValue) (abdcore.MaxStore, int, error) {
	c := sr.fab.Cluster()
	st := &store{
		fab:    sr.fab,
		server: server,
		regs:   make([]types.ObjectID, 0, sr.k),
		last:   make(map[types.ClientID]types.TSValue, sr.k),
	}
	for w := 0; w < sr.k; w++ {
		obj, err := c.PlaceRegister(server, baseobj.WithWriters([]types.ClientID{types.ClientID(w)}))
		if err != nil {
			return nil, 0, err
		}
		st.regs = append(st.regs, obj)
		st.scan = append(st.scan, rounds.Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}})
	}
	if err := sr.ReseedStore(rs, st, m); err != nil {
		return nil, 0, err
	}
	return st, sr.k, nil
}

func (sr *storeReshaper) ReseedStore(rs *fabric.Reshaper, s abdcore.MaxStore, m types.TSValue) error {
	if !types.ZeroTSValue.Less(m) {
		return nil
	}
	st := s.(*store)
	if int(m.Writer) < 0 || int(m.Writer) >= len(st.regs) {
		return fmt.Errorf("aacmax: folded maximum written by client %d, not a writer (k=%d)", m.Writer, len(st.regs))
	}
	if _, err := rs.ApplyAs(m.Writer, st.regs[m.Writer], baseobj.Invocation{Op: baseobj.OpWrite, Arg: m}); err != nil {
		return err
	}
	st.mu.Lock()
	if st.last[m.Writer].Less(m) {
		st.last[m.Writer] = m
	}
	st.mu.Unlock()
	return nil
}

// Options configure the construction.
type Options struct {
	// History receives the high-level operations (optional).
	History *spec.History
	// Servers optionally pins the 2f+1 hosting servers.
	Servers []types.ServerID
}

// New places k single-writer registers on each of 2f+1 servers ((2f+1)k
// base registers in total) and returns the emulated k-register. Reads never
// write, so only the regular (non-write-back) protocol is offered: the
// k-register per-server max has no cell a reader could write.
func New(fab *fabric.Fabric, k, f int, opts Options) (*quorumreg.Register, error) {
	if f <= 0 {
		return nil, fmt.Errorf("aacmax: f must be positive, got %d", f)
	}
	if k <= 0 {
		return nil, fmt.Errorf("aacmax: k must be positive, got %d", k)
	}
	servers := opts.Servers
	if servers == nil {
		for s := 0; s < 2*f+1; s++ {
			servers = append(servers, types.ServerID(s))
		}
	}
	if len(servers) != 2*f+1 {
		return nil, fmt.Errorf("aacmax: need exactly 2f+1=%d servers, got %d", 2*f+1, len(servers))
	}
	c := fab.Cluster()
	stores := make([]abdcore.MaxStore, 0, len(servers))
	total := 0
	for _, server := range servers {
		st := &store{
			fab:    fab,
			server: server,
			regs:   make([]types.ObjectID, 0, k),
			last:   make(map[types.ClientID]types.TSValue, k),
		}
		for w := 0; w < k; w++ {
			obj, err := c.PlaceRegister(server, baseobj.WithWriters([]types.ClientID{types.ClientID(w)}))
			if err != nil {
				return nil, fmt.Errorf("aacmax: placing register: %w", err)
			}
			st.regs = append(st.regs, obj)
			st.scan = append(st.scan, rounds.Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}})
			total++
		}
		stores = append(stores, st)
	}
	return quorumreg.New(quorumreg.Config{
		Name:      "aac-max",
		K:         k,
		F:         f,
		Stores:    stores,
		Fabric:    fab,
		Resources: total,
		History:   opts.History,
		Reshaper:  &storeReshaper{fab: fab, k: k},
	})
}
