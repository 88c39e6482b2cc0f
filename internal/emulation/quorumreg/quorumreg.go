// Package quorumreg adapts an abdcore.Engine into the emulation.Register
// interface: it owns the per-client handles, records every high-level
// operation into a spec.History, and reports the construction's resource
// complexity. It also owns everything about a quorum construction that is
// ABD rather than a row of Table 1 — which 2f+1 servers host a store, when
// a store is placed, and how a view resize re-places them. The abdmax,
// casmax, aacmax, and naiveabd constructions supply only how one server
// realises a max-register: a store type and the recipe that places it
// (Config.Place).
package quorumreg

import (
	"fmt"

	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// Config assembles a quorum-backed register.
type Config struct {
	// Name identifies the construction.
	Name string
	// K is the number of writers; F the failure threshold.
	K, F int
	// Place is the construction's store recipe: it creates one server's
	// max-store together with its base objects. New calls it for each of
	// the 2f+1 hosts, Reshape for every server a view resize adds to the
	// placement.
	Place func(server types.ServerID) (abdcore.MaxStore, error)
	// Fabric is the fabric the stores trigger on; the engine batch-scatters
	// whole quorum rounds over it for direct (single-op) stores.
	Fabric *fabric.Fabric
	// History receives the high-level operations; a fresh history is
	// created when nil.
	History *spec.History
	// EngineOpts configure the underlying quorum engine.
	EngineOpts []abdcore.Option
}

// Register implements emulation.Register over an abdcore.Engine. Its
// view-dependent state — the store set and the failure budget — lives in
// the engine's atomically swapped placement.
type Register struct {
	name    string
	k       int
	engine  *abdcore.Engine
	hist    *spec.History
	readers emulation.ReaderIDs
	place   func(server types.ServerID) (abdcore.MaxStore, error)
}

// Compile-time interface compliance checks.
var (
	_ emulation.Register      = (*Register)(nil)
	_ emulation.ViewResizable = (*Register)(nil)
)

// New places one store on each of the first 2f+1 members of the cluster's
// current view — servers 0..2f on an initial view, live members by
// construction after any transition — and builds the adapter over them.
func New(cfg Config) (*Register, error) {
	if err := emulation.ValidateWriters(cfg.K); err != nil {
		return nil, fmt.Errorf("quorumreg: %s: %w", cfg.Name, err)
	}
	if cfg.F <= 0 {
		return nil, fmt.Errorf("quorumreg: %s: f must be positive, got %d", cfg.Name, cfg.F)
	}
	need := 2*cfg.F + 1
	members := cfg.Fabric.Cluster().Members()
	if len(members) < need {
		return nil, fmt.Errorf("quorumreg: %s: %d members cannot host 2f+1=%d stores", cfg.Name, len(members), need)
	}
	stores := make([]abdcore.MaxStore, need)
	for i, server := range members[:need] {
		st, err := cfg.Place(server)
		if err != nil {
			return nil, fmt.Errorf("quorumreg: %s: placing store on server %d: %w", cfg.Name, server, err)
		}
		stores[i] = st
	}
	engine, err := abdcore.New(cfg.Fabric, stores, cfg.K, cfg.F, cfg.EngineOpts...)
	if err != nil {
		return nil, err
	}
	hist := cfg.History
	if hist == nil {
		hist = &spec.History{}
	}
	// Record the failure budget on the view: resize coordinators default
	// their new threshold to it, and churn drivers guard shrinks with it.
	cfg.Fabric.Cluster().SetF(cfg.F)
	return &Register{
		name:   cfg.Name,
		k:      cfg.K,
		engine: engine,
		hist:   hist,
		place:  cfg.Place,
	}, nil
}

// Name implements emulation.Register.
func (r *Register) Name() string { return r.name }

// K implements emulation.Register.
func (r *Register) K() int { return r.k }

// F implements emulation.Register.
func (r *Register) F() int { return r.engine.F() }

// ResourceComplexity implements emulation.Register: the base objects of
// the live placement's stores.
func (r *Register) ResourceComplexity() int {
	total := 0
	for _, s := range r.engine.Stores() {
		total += len(s.Objects())
	}
	return total
}

// History returns the recorded high-level history.
func (r *Register) History() *spec.History { return r.hist }

// Writer implements emulation.Register: the engine's collect/push chain
// behind the shared handle.
func (r *Register) Writer(i int) (emulation.Writer, error) {
	if i < 0 || i >= r.k {
		return nil, fmt.Errorf("quorumreg: writer %d out of range (k=%d)", i, r.k)
	}
	return emulation.NewWriter(types.ClientID(i), r.hist, r.engine), nil
}

// NewReader implements emulation.Register. It is safe for concurrent
// callers: reader IDs come from a shared atomic allocator.
func (r *Register) NewReader() emulation.Reader {
	return emulation.NewReader(r.readers.Next(), r.hist, r.engine)
}

// Reshape implements emulation.ViewResizable: it re-places the register's
// 2f+1 quorum stores on the post-resize member set and swaps the engine's
// placement atomically. It runs inside the transition's frozen window, in a
// fixed order whose every step keeps the register recoverable:
//
//  1. Fold the maximum timestamped value over every old store's
//     authoritative state — the last committed write is ≤ m, and m is a
//     committed or in-flight write, so seeding m is always linearizable.
//  2. Place stores on new servers — the recipe that built the register —
//     each seeded with m before the next is placed, so a quorum gathered
//     purely from joiners already holds the last write.
//  3. Re-seed surviving stores (a shrink can drop the very servers that
//     held m).
//  4. Swap the engine placement — from here every round uses the new
//     targets and the new n−f threshold together.
//  5. Retire dropped stores' objects LAST: retiring before the swap would
//     expose in-window retries to a non-retryable missing-object error.
func (r *Register) Reshape(rs *fabric.Reshaper) error {
	members := rs.Members()
	newF := rs.F()
	need := 2*newF + 1
	if newF <= 0 {
		return fmt.Errorf("quorumreg: %s: f must be positive, got %d", r.name, newF)
	}
	if len(members) < need {
		return fmt.Errorf("quorumreg: %s: %d members cannot host 2f+1=%d stores", r.name, len(members), need)
	}
	old := r.engine.Stores()

	var m types.TSValue
	for _, s := range old {
		for _, obj := range s.Objects() {
			st, err := rs.State(obj)
			if err != nil {
				return fmt.Errorf("quorumreg: %s: reading state on server %d: %w", r.name, s.Server(), err)
			}
			if m.Less(st.Val) {
				m = st.Val
			}
		}
	}
	// No write ever committed: there is nothing to seed.
	seed := types.ZeroTSValue.Less(m)

	// Placement: keep surviving stores (ascending engine order) up to
	// 2f+1, fill with fresh stores on members not already hosting one.
	memberSet := make(map[types.ServerID]bool, len(members))
	for _, sid := range members {
		memberSet[sid] = true
	}
	hosting := make(map[types.ServerID]bool, len(old))
	for _, s := range old {
		hosting[s.Server()] = true
	}
	newStores := make([]abdcore.MaxStore, 0, need)
	var dropped []abdcore.MaxStore
	for _, s := range old {
		if memberSet[s.Server()] && len(newStores) < need {
			newStores = append(newStores, s)
		} else {
			dropped = append(dropped, s)
		}
	}
	kept := len(newStores)
	for _, sid := range members {
		if len(newStores) >= need {
			break
		}
		if hosting[sid] {
			continue
		}
		st, err := r.place(sid)
		if err != nil {
			return fmt.Errorf("quorumreg: %s: placing store on server %d: %w", r.name, sid, err)
		}
		if seed {
			if err := st.Seed(rs, m); err != nil {
				return fmt.Errorf("quorumreg: %s: seeding fresh store on server %d: %w", r.name, sid, err)
			}
		}
		newStores = append(newStores, st)
	}
	if len(newStores) < need {
		return fmt.Errorf("quorumreg: %s: only %d of %d stores placeable on members %v", r.name, len(newStores), need, members)
	}
	if seed {
		for _, s := range newStores[:kept] {
			if err := s.Seed(rs, m); err != nil {
				return fmt.Errorf("quorumreg: %s: reseeding server %d: %w", r.name, s.Server(), err)
			}
		}
	}
	if err := r.engine.Resize(newStores, newF); err != nil {
		return fmt.Errorf("quorumreg: %s: %w", r.name, err)
	}
	for _, s := range dropped {
		for _, obj := range s.Objects() {
			if err := rs.Retire(obj); err != nil {
				return fmt.Errorf("quorumreg: %s: retiring object %d: %w", r.name, obj, err)
			}
		}
	}
	return nil
}
