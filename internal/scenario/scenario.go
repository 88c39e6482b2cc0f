// Package scenario runs data-driven adversarial schedules: a scenario is a
// JSON document listing high-level operations (writes, reads) interleaved
// with environment actions (holds, releases, crashes) plus expectations
// (read values, safety verdicts). Scenarios make the paper's run
// constructions reproducible as plain data — the stale-release attack, the
// covering runs, and any custom schedule a user wants to probe — without
// writing Go.
//
// Example (the Lemma 4 attack against the naive baseline):
//
//	{
//	  "name": "stale-release-naive",
//	  "kind": "naive", "k": 2, "f": 1, "n": 3,
//	  "expect_safety_violation": true,
//	  "steps": [
//	    {"hold":    {"client": 0, "server": 0, "phase": "apply", "class": "mutating"}},
//	    {"write":   {"writer": 0, "value": 101}},
//	    {"clear":   {}},
//	    {"hold":    {"client": 1, "server": 1, "phase": "apply", "class": "mutating"}},
//	    {"write":   {"writer": 1, "value": 202}},
//	    {"clear":   {}},
//	    {"release": {"client": 0}},
//	    {"hold":    {"server": 2, "phase": "respond", "class": "read"}},
//	    {"read":    {"reader": 0, "expect": 101}}
//	  ]
//	}
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/adversary"
	"repro/internal/baseobj"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/types"
)

// Scenario is one data-driven run.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Kind selects the construction (runner.Kind values).
	Kind string `json:"kind"`
	// K, F, N are the emulation parameters.
	K int `json:"k"`
	F int `json:"f"`
	N int `json:"n"`
	// ExpectSafetyViolation flips the final WS-Safety expectation: by
	// default the history must be WS-Safe; with this set it must NOT be.
	ExpectSafetyViolation bool `json:"expect_safety_violation,omitempty"`
	// Steps is the schedule.
	Steps []Step `json:"steps"`
}

// Step is one schedule entry; exactly one field must be set.
type Step struct {
	Write   *WriteStep   `json:"write,omitempty"`
	Read    *ReadStep    `json:"read,omitempty"`
	Hold    *HoldStep    `json:"hold,omitempty"`
	Clear   *ClearStep   `json:"clear,omitempty"`
	Release *ReleaseStep `json:"release,omitempty"`
	Crash   *CrashStep   `json:"crash,omitempty"`
}

// WriteStep performs a high-level write.
type WriteStep struct {
	Writer int   `json:"writer"`
	Value  int64 `json:"value"`
}

// ReadStep performs a high-level read, optionally asserting its value.
type ReadStep struct {
	Reader int    `json:"reader"`
	Expect *int64 `json:"expect,omitempty"`
}

// HoldStep arms a hold rule; it stays armed until a Clear step. Nil
// selectors match everything.
type HoldStep struct {
	// Client restricts to one fabric client ID: writer i is client i;
	// readers are numbered upward from emulation.ReaderIDBase in creation
	// order (the first is ReaderIDBase+1).
	Client *int `json:"client,omitempty"`
	// Server restricts to one server.
	Server *int `json:"server,omitempty"`
	// Phase is "apply" (held before taking effect) or "respond".
	Phase string `json:"phase"`
	// Class is "mutating", "read", or "any".
	Class string `json:"class"`
	// Count limits how many ops the rule holds (0 = unlimited).
	Count int `json:"count,omitempty"`
}

// ClearStep disarms all hold rules.
type ClearStep struct{}

// ReleaseStep releases held ops matching the selectors (nil = all); Client
// is a fabric client ID, as in HoldStep.
type ReleaseStep struct {
	Client *int `json:"client,omitempty"`
	Server *int `json:"server,omitempty"`
}

// CrashStep crashes a server.
type CrashStep struct {
	Server int `json:"server"`
}

// Result is the outcome of a scenario run.
type Result struct {
	Name string
	// Reads records every read's returned value in step order.
	Reads []types.Value
	// Released counts released ops.
	Released int
	// WSSafety is the final checker verdict (nil = safe).
	WSSafety error
	// ExpectationsMet reports whether every read expectation and the
	// safety expectation held.
	ExpectationsMet bool
	// Failures lists unmet expectations.
	Failures []string
}

// Load parses a scenario from JSON.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural well-formedness.
func (s *Scenario) Validate() error {
	if s.Kind == "" {
		return fmt.Errorf("scenario %q: missing kind", s.Name)
	}
	if s.K <= 0 || s.F <= 0 || s.N <= 0 {
		return fmt.Errorf("scenario %q: k, f, n must be positive", s.Name)
	}
	for i, step := range s.Steps {
		set := 0
		if step.Write != nil {
			set++
		}
		if step.Read != nil {
			set++
		}
		if step.Hold != nil {
			set++
			switch step.Hold.Phase {
			case "apply", "respond":
			default:
				return fmt.Errorf("scenario %q step %d: bad phase %q", s.Name, i, step.Hold.Phase)
			}
			switch step.Hold.Class {
			case "mutating", "read", "any":
			default:
				return fmt.Errorf("scenario %q step %d: bad class %q", s.Name, i, step.Hold.Class)
			}
		}
		if step.Clear != nil {
			set++
		}
		if step.Release != nil {
			set++
		}
		if step.Crash != nil {
			set++
		}
		if set != 1 {
			return fmt.Errorf("scenario %q step %d: exactly one action required, got %d", s.Name, i, set)
		}
	}
	return nil
}

// holdRule is an armed HoldStep with its remaining budget.
type holdRule struct {
	step      HoldStep
	remaining int // -1 = unlimited
}

// gate evaluates the armed hold rules; gateAdapter exposes it as a
// fabric.Gate.
type gate struct {
	mu    sync.Mutex
	rules []*holdRule
}

// matches evaluates one rule against an event.
func (r *holdRule) matches(ev fabric.TriggerEvent, phase string) bool {
	if r.step.Phase != phase {
		return false
	}
	if r.remaining == 0 {
		return false
	}
	if r.step.Server != nil && int(ev.Server) != *r.step.Server {
		return false
	}
	if r.step.Client != nil && ev.Client != types.ClientID(*r.step.Client) {
		return false
	}
	switch r.step.Class {
	case "mutating":
		return adversary.IsMutating(ev.Inv)
	case "read":
		return !adversary.IsMutating(ev.Inv)
	default:
		return true
	}
}

// decide applies the first matching rule.
func (g *gate) decide(ev fabric.TriggerEvent, phase string) fabric.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.rules {
		if r.matches(ev, phase) {
			if r.remaining > 0 {
				r.remaining--
			}
			return fabric.Hold
		}
	}
	return fabric.Pass
}

// arm adds a rule.
func (g *gate) arm(step HoldStep) {
	remaining := -1
	if step.Count > 0 {
		remaining = step.Count
	}
	g.mu.Lock()
	g.rules = append(g.rules, &holdRule{step: step, remaining: remaining})
	g.mu.Unlock()
}

// clear removes all rules.
func (g *gate) clear() {
	g.mu.Lock()
	g.rules = nil
	g.mu.Unlock()
}

// Run executes the scenario.
func (s *Scenario) Run(ctx context.Context) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &gateAdapter{inner: &gate{}}
	env, err := runner.NewEnv(s.N, g)
	if err != nil {
		return nil, err
	}
	reg, hist, err := runner.Build(runner.Kind(s.Kind), env.Fabric, s.K, s.F)
	if err != nil {
		return nil, err
	}
	readers := make(map[int]emulation.Reader)
	res := &Result{Name: s.Name, ExpectationsMet: true}

	fail := func(format string, args ...any) {
		res.ExpectationsMet = false
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	for i, step := range s.Steps {
		switch {
		case step.Write != nil:
			w, err := reg.Writer(step.Write.Writer)
			if err != nil {
				return nil, fmt.Errorf("scenario %q step %d: %w", s.Name, i, err)
			}
			if err := w.Write(ctx, types.Value(step.Write.Value)); err != nil {
				return nil, fmt.Errorf("scenario %q step %d write: %w", s.Name, i, err)
			}
		case step.Read != nil:
			rd, ok := readers[step.Read.Reader]
			if !ok {
				rd = reg.NewReader()
				readers[step.Read.Reader] = rd
			}
			v, err := rd.Read(ctx)
			if err != nil {
				return nil, fmt.Errorf("scenario %q step %d read: %w", s.Name, i, err)
			}
			res.Reads = append(res.Reads, v)
			if step.Read.Expect != nil && v != types.Value(*step.Read.Expect) {
				fail("step %d: read returned %d, expected %d", i, v, *step.Read.Expect)
			}
		case step.Hold != nil:
			g.inner.arm(*step.Hold)
		case step.Clear != nil:
			g.inner.clear()
		case step.Release != nil:
			rel := *step.Release
			res.Released += env.Fabric.ReleaseWhere(func(op fabric.PendingOp) bool {
				if rel.Client != nil && op.Event.Client != types.ClientID(*rel.Client) {
					return false
				}
				if rel.Server != nil && int(op.Event.Server) != *rel.Server {
					return false
				}
				return true
			})
		case step.Crash != nil:
			if err := env.Fabric.Crash(types.ServerID(step.Crash.Server)); err != nil {
				return nil, fmt.Errorf("scenario %q step %d crash: %w", s.Name, i, err)
			}
		}
	}

	res.WSSafety = spec.CheckWSSafety(hist.Snapshot(), types.InitialValue)
	violated := res.WSSafety != nil
	if violated != s.ExpectSafetyViolation {
		fail("safety violation = %v, expected %v (verdict: %v)", violated, s.ExpectSafetyViolation, res.WSSafety)
	}
	return res, nil
}

// gateAdapter bridges the rule gate to the fabric.Gate interface (the
// respond hook needs the concrete response type).
type gateAdapter struct {
	inner *gate
}

// Compile-time interface compliance check.
var _ fabric.Gate = (*gateAdapter)(nil)

// BeforeApply implements fabric.Gate.
func (a *gateAdapter) BeforeApply(ev fabric.TriggerEvent) fabric.Decision {
	return a.inner.decide(ev, "apply")
}

// BeforeRespond implements fabric.Gate.
func (a *gateAdapter) BeforeRespond(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
	return a.inner.decide(ev, "respond")
}
