// Package quorumreg adapts an abdcore.Engine into the emulation.Register
// interface: it owns the per-client handles, records every high-level
// operation into a spec.History, and reports the construction's resource
// complexity. The abdmax, casmax, aacmax, and naiveabd constructions are
// thin store layers underneath this adapter.
package quorumreg

import (
	"fmt"
	"sync"

	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// StoreReshaper is the per-construction hook the generic Reshape flow uses
// to re-place a register's quorum sets across a view resize. The three
// methods run only inside a fabric transition's frozen window, so direct
// seeding through the fabric.Reshaper cannot race client operations.
//
// The folded maximum m passed to NewStore and ReseedStore may be the zero
// TSValue when no write ever committed; implementations must skip seeding
// in that case.
type StoreReshaper interface {
	// StoreObjects returns the base objects backing s, for state folding
	// and for retirement when the store is dropped by the new placement.
	StoreObjects(s abdcore.MaxStore) []types.ObjectID
	// NewStore places a fresh store on server and seeds it with m. It
	// returns the store and the number of base objects placed.
	NewStore(rs *fabric.Reshaper, server types.ServerID, m types.TSValue) (abdcore.MaxStore, int, error)
	// ReseedStore folds m into a surviving store so every member of the
	// new placement holds at least the last committed value.
	ReseedStore(rs *fabric.Reshaper, s abdcore.MaxStore, m types.TSValue) error
}

// Config assembles a quorum-backed register.
type Config struct {
	// Name identifies the construction.
	Name string
	// K is the number of writers; F the failure threshold.
	K, F int
	// Stores are the per-server max-stores, at least 2f+1 of them.
	Stores []abdcore.MaxStore
	// Fabric is the fabric the stores trigger on; the engine batch-scatters
	// whole quorum rounds over it for direct (single-op) stores.
	Fabric *fabric.Fabric
	// Resources is the number of base objects the construction placed.
	Resources int
	// History receives the high-level operations; a fresh history is
	// created when nil.
	History *spec.History
	// EngineOpts configure the underlying quorum engine.
	EngineOpts []abdcore.Option
	// Reshaper enables live view resizing; nil registers reject Reshape
	// with emulation.ErrResizeUnsupported.
	Reshaper StoreReshaper
}

// Register implements emulation.Register over an abdcore.Engine.
type Register struct {
	name     string
	k        int
	engine   *abdcore.Engine
	hist     *spec.History
	readers  emulation.ReaderIDs
	reshaper StoreReshaper

	// mu guards the view-dependent fields; the engine swaps its own
	// placement atomically, these track the adapter-level bookkeeping.
	mu        sync.Mutex
	f         int
	resources int
}

// Compile-time interface compliance checks.
var (
	_ emulation.Register      = (*Register)(nil)
	_ emulation.ViewResizable = (*Register)(nil)
)

// New builds the adapter.
func New(cfg Config) (*Register, error) {
	if err := emulation.ValidateWriters(cfg.K); err != nil {
		return nil, fmt.Errorf("quorumreg: %w", err)
	}
	engine, err := abdcore.New(cfg.Fabric, cfg.Stores, cfg.F, cfg.EngineOpts...)
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
		name:      cfg.Name,
		k:         cfg.K,
		f:         cfg.F,
		resources: cfg.Resources,
		engine:    engine,
		hist:      hist,
		reshaper:  cfg.Reshaper,
	}, nil
}

// Name implements emulation.Register.
func (r *Register) Name() string { return r.name }

// K implements emulation.Register.
func (r *Register) K() int { return r.k }

// F implements emulation.Register.
func (r *Register) F() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f
}

// ResourceComplexity implements emulation.Register.
func (r *Register) ResourceComplexity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resources
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
//  2. Create stores on new servers, seeded with m at creation, so a
//     quorum gathered purely from joiners already holds the last write.
//  3. Re-seed surviving stores (a shrink can drop the very servers that
//     held m).
//  4. Swap the engine placement — from here every round uses the new
//     targets and the new n−f threshold together.
//  5. Retire dropped stores' objects LAST: retiring before the swap would
//     expose in-window retries to a non-retryable missing-object error.
func (r *Register) Reshape(rs *fabric.Reshaper) error {
	if r.reshaper == nil {
		return fmt.Errorf("quorumreg: %s: %w", r.name, emulation.ErrResizeUnsupported)
	}
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
		for _, obj := range r.reshaper.StoreObjects(s) {
			st, err := rs.State(obj)
			if err != nil {
				return fmt.Errorf("quorumreg: %s: reading state on server %d: %w", r.name, s.Server(), err)
			}
			if m.Less(st.Val) {
				m = st.Val
			}
		}
	}

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
	placed := 0
	for _, sid := range members {
		if len(newStores) >= need {
			break
		}
		if hosting[sid] {
			continue
		}
		st, n, err := r.reshaper.NewStore(rs, sid, m)
		if err != nil {
			return fmt.Errorf("quorumreg: %s: placing store on server %d: %w", r.name, sid, err)
		}
		newStores = append(newStores, st)
		placed += n
	}
	if len(newStores) < need {
		return fmt.Errorf("quorumreg: %s: only %d of %d stores placeable on members %v", r.name, len(newStores), need, members)
	}
	for _, s := range newStores[:kept] {
		if err := r.reshaper.ReseedStore(rs, s, m); err != nil {
			return fmt.Errorf("quorumreg: %s: reseeding server %d: %w", r.name, s.Server(), err)
		}
	}
	if err := r.engine.Resize(newStores, newF); err != nil {
		return fmt.Errorf("quorumreg: %s: %w", r.name, err)
	}
	retired := 0
	for _, s := range dropped {
		for _, obj := range r.reshaper.StoreObjects(s) {
			if err := rs.Retire(obj); err != nil {
				return fmt.Errorf("quorumreg: %s: retiring object %d: %w", r.name, obj, err)
			}
			retired++
		}
	}
	r.mu.Lock()
	r.f = newF
	r.resources += placed - retired
	r.mu.Unlock()
	return nil
}
