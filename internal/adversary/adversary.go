// Package adversary implements the environment behaviours the paper's lower
// bounds exploit. There is one gate, Script, and every adversary is a policy
// installed on it as a rule — a function that inspects a trigger event and
// returns true to hold the op:
//
//   - runner.RunScript compiles a scripted run's armed holds into the two
//     rules, so the Lemma 1 covering runs (Ad_i of Definitions 2–3: up to f
//     of each write's low-level writes held before they take effect, never
//     on a protected set F of f+1 servers, never twice on one register — the
//     covered set grows by f per write while delta(Cov) ∩ F = ∅), the Lemma 4
//     / Figure 2 stale release (E6), the exhaustive schedule class (E13), the
//     torn-stripe attack (E26) and the JSON scripts all ride it;
//   - Chaos.Hold is the seeded randomized policy of the chaos nets;
//   - the Theorem 5 partition swaps two rules between its write and its read.
//
// Rules make identity-based decisions only (client, server, object, op), so
// experiments are deterministic.
package adversary

import (
	"sync"

	"repro/internal/baseobj"
	"repro/internal/fabric"
)

// IsMutating reports whether an invocation can change object state: plain
// and max writes always, CAS only when it is a real update (Algorithm 1
// uses CAS(v0, v0) as a read).
func IsMutating(inv baseobj.Invocation) bool {
	switch inv.Op {
	case baseobj.OpWrite, baseobj.OpWriteMax, baseobj.OpPutFrag, baseobj.OpCommitFrag:
		return true
	case baseobj.OpCAS:
		return inv.Exp != inv.Arg
	default:
		return false
	}
}

// Script is the rule-driven gate. Rules inspect trigger events and return
// true to hold; a nil rule passes everything. Rule swaps take effect for
// subsequently triggered operations. The gate counts the ops its rules held.
type Script struct {
	mu          sync.Mutex
	applyRule   func(ev fabric.TriggerEvent) bool
	respondRule func(ev fabric.TriggerEvent) bool
	held        int
	// want and reached are WhenHeld's pending request: reached closes when
	// held gets to want.
	want    int
	reached chan struct{}
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

// Held returns how many operations the rules held, in both phases.
func (s *Script) Held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// WhenHeld returns a channel closed once the rules have held n operations
// (at once if they already have). One request is outstanding at a time.
func (s *Script) WhenHeld(n int) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.want, s.reached = n, make(chan struct{})
	if s.held >= n {
		close(s.reached)
	}
	return s.reached
}

// decide asks rule about ev and counts a hold.
func (s *Script) decide(rule func(ev fabric.TriggerEvent) bool, ev fabric.TriggerEvent) fabric.Decision {
	if rule == nil || !rule(ev) {
		return fabric.Pass
	}
	s.mu.Lock()
	s.held++
	if s.held == s.want { // want is 0 — never matched — until WhenHeld asks
		close(s.reached)
	}
	s.mu.Unlock()
	return fabric.Hold
}

// BeforeApply implements fabric.Gate.
func (s *Script) BeforeApply(ev fabric.TriggerEvent) fabric.Decision {
	s.mu.Lock()
	rule := s.applyRule
	s.mu.Unlock()
	return s.decide(rule, ev)
}

// BeforeRespond implements fabric.Gate.
func (s *Script) BeforeRespond(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
	s.mu.Lock()
	rule := s.respondRule
	s.mu.Unlock()
	return s.decide(rule, ev)
}
