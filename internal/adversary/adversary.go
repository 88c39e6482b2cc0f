// Package adversary implements the environment behaviours the paper's lower
// bounds exploit, as fabric gates:
//
//   - Covering is the operational counterpart of Ad_i (Definitions 2–3 and
//     Lemma 1): during each high-level write it blocks up to f low-level
//     writes before they take effect, never on a protected server set F of
//     size f+1, and never twice on the same register. The blocked writes
//     stay pending forever, covering their registers, so the covered-set
//     size grows by f per completed write — Lemma 1(a) — while
//     delta(Cov) ∩ F = ∅ — Lemma 1(b).
//
//   - Script is a mutable rule-based gate. runner.RunScript compiles a
//     scripted run's armed holds into its two rules — so the Lemma 4 /
//     Figure 2 run (experiment E6), the exhaustive schedule class (E13) and
//     the JSON scripts all ride it — and the Theorem 5 partition swaps two
//     rules between its write and its read.
//
// Gates make identity-based decisions only (client, server, object, op),
// so experiments are deterministic.
package adversary

import (
	"sync"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// IsMutating reports whether an invocation can change object state: plain
// and max writes always, CAS only when it is a real update (Algorithm 1
// uses CAS(v0, v0) as a read).
func IsMutating(inv baseobj.Invocation) bool {
	switch inv.Op {
	case baseobj.OpWrite, baseobj.OpWriteMax, baseobj.OpPutFrag, baseobj.OpCommitFrag:
		return true
	case baseobj.OpCAS:
		return inv.Exp != inv.New
	default:
		return false
	}
}

// WriteCover summarizes the covering effect of one high-level write.
type WriteCover struct {
	// Writer is the client whose write was attacked.
	Writer types.ClientID
	// NewlyCovered is how many fresh registers the adversary covered
	// during this write.
	NewlyCovered int
	// Cumulative is the total number of covered registers afterwards.
	Cumulative int
}

// Covering is the Ad_i-style gate. Drive it with BeginWrite / EndWrite
// around each high-level write; between the two it holds up to f of the
// active writer's mutating low-level operations before they take effect.
type Covering struct {
	mu            sync.Mutex
	protected     map[types.ServerID]struct{}
	holdsPerWrite int

	active       bool
	activeWriter types.ClientID
	budget       int

	heldByObject map[types.ObjectID]uint64
	perWrite     []WriteCover
	fViolations  int
}

// Compile-time interface compliance check.
var _ fabric.Gate = (*Covering)(nil)

// NewCovering creates the gate. protected is the paper's F (any f+1
// servers); holdsPerWrite is f.
func NewCovering(protected []types.ServerID, holdsPerWrite int) *Covering {
	p := make(map[types.ServerID]struct{}, len(protected))
	for _, s := range protected {
		p[s] = struct{}{}
	}
	return &Covering{
		protected:     p,
		holdsPerWrite: holdsPerWrite,
		heldByObject:  make(map[types.ObjectID]uint64),
	}
}

// BeginWrite arms the gate for one high-level write by the given client.
func (a *Covering) BeginWrite(writer types.ClientID) {
	a.mu.Lock()
	a.active = true
	a.activeWriter = writer
	a.budget = a.holdsPerWrite
	a.mu.Unlock()
}

// EndWrite disarms the gate and records the covering statistics of the
// write that just completed.
func (a *Covering) EndWrite() WriteCover {
	a.mu.Lock()
	defer a.mu.Unlock()
	covered := a.holdsPerWrite - a.budget
	wc := WriteCover{
		Writer:       a.activeWriter,
		NewlyCovered: covered,
		Cumulative:   len(a.heldByObject),
	}
	a.perWrite = append(a.perWrite, wc)
	a.active = false
	a.budget = 0
	return wc
}

// BeforeApply implements fabric.Gate: hold the active writer's mutating
// ops, off the protected servers, on fresh registers, up to the per-write
// budget.
func (a *Covering) BeforeApply(ev fabric.TriggerEvent) fabric.Decision {
	if !IsMutating(ev.Inv) {
		return fabric.Pass
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.active || ev.Client != a.activeWriter || a.budget == 0 {
		return fabric.Pass
	}
	if _, onF := a.protected[ev.Server]; onF {
		a.fViolations++ // a hold here would violate Lemma 1(b); pass instead
		return fabric.Pass
	}
	if _, already := a.heldByObject[ev.Object]; already {
		return fabric.Pass
	}
	a.heldByObject[ev.Object] = ev.Token
	a.budget--
	return fabric.Hold
}

// BeforeRespond implements fabric.Gate.
func (a *Covering) BeforeRespond(fabric.TriggerEvent, baseobj.Response) fabric.Decision {
	return fabric.Pass
}

// PerWrite returns the covering statistics recorded so far.
func (a *Covering) PerWrite() []WriteCover {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]WriteCover, len(a.perWrite))
	copy(out, a.perWrite)
	return out
}

// CoveredObjects returns the registers the gate is holding writes on.
func (a *Covering) CoveredObjects() []types.ObjectID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]types.ObjectID, 0, len(a.heldByObject))
	for obj := range a.heldByObject {
		out = append(out, obj)
	}
	return out
}

// Script is a mutable rule-driven gate. Rules inspect trigger events and
// return true to hold; a nil rule passes everything. Rule swaps take effect
// for subsequently triggered operations.
type Script struct {
	mu          sync.Mutex
	applyRule   func(ev fabric.TriggerEvent) bool
	respondRule func(ev fabric.TriggerEvent) bool
}

// Compile-time interface compliance check.
var _ fabric.Gate = (*Script)(nil)

// NewScript returns a gate with no rules (everything passes).
func NewScript() *Script { return &Script{} }

// SetApplyRule installs the pre-apply hold rule (nil clears it).
func (s *Script) SetApplyRule(rule func(ev fabric.TriggerEvent) bool) {
	s.mu.Lock()
	s.applyRule = rule
	s.mu.Unlock()
}

// SetRespondRule installs the pre-respond hold rule (nil clears it).
func (s *Script) SetRespondRule(rule func(ev fabric.TriggerEvent) bool) {
	s.mu.Lock()
	s.respondRule = rule
	s.mu.Unlock()
}

// BeforeApply implements fabric.Gate.
func (s *Script) BeforeApply(ev fabric.TriggerEvent) fabric.Decision {
	s.mu.Lock()
	rule := s.applyRule
	s.mu.Unlock()
	if rule != nil && rule(ev) {
		return fabric.Hold
	}
	return fabric.Pass
}

// BeforeRespond implements fabric.Gate.
func (s *Script) BeforeRespond(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
	s.mu.Lock()
	rule := s.respondRule
	s.mu.Unlock()
	if rule != nil && rule(ev) {
		return fabric.Hold
	}
	return fabric.Pass
}
