package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/adversary"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/types"
)

// Script is one scripted run: a construction, its parameters, and a step
// list of high-level operations (writes, reads) interleaved with
// environment actions (holds, releases, crashes), run one step at a time —
// so every scripted run is write-sequential and deterministic. Every
// hand-built run of the repository is a Script: the Lemma 1 covering run
// (CoveringScript), Lemma 4's stale release (StaleReleaseScript;
// examples/attacklab prints it), each schedule of the exhaustive class
// (exhaustSchedule.steps), and the JSON documents of testdata/, such as
//
//	{"name": "held-read-responses-abdcas", "kind": "abd-cas", "k": 2, "f": 1, "n": 3,
//	 "steps": [
//	   {"write": {"writer": 0, "value": 7}},
//	   {"hold":  {"servers": [2], "phase": "respond", "class": "read"}},
//	   {"read":  {"reader": 0, "expect": 7}}]}
type Script struct {
	// Name labels the script in reports.
	Name string `json:"name"`
	// Kind selects the construction; K, F, N are its parameters.
	Kind Kind `json:"kind"`
	K    int  `json:"k"`
	F    int  `json:"f"`
	N    int  `json:"n"`
	// ExpectSafetyViolation flips the final WS-Safety expectation: by
	// default the history must be WS-Safe; with this set it must NOT be.
	ExpectSafetyViolation bool `json:"expect_safety_violation,omitempty"`
	// Steps is the schedule.
	Steps []Step `json:"steps"`
}

// Step is one schedule entry; exactly one field is set.
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
// Reader i is a handle of its own, made at its first read.
type ReadStep struct {
	Reader int    `json:"reader"`
	Expect *int64 `json:"expect,omitempty"`
}

// HoldStep arms a hold rule; it stays armed until a Clear step. The armed
// rules are tried in arming order and the first that selects an op holds
// it. Empty selectors select everything.
type HoldStep struct {
	// Client restricts to one fabric client ID: writer i is client i;
	// readers are numbered upward from emulation.ReaderIDBase in creation
	// order (the first is ReaderIDBase+1).
	Client *int `json:"client,omitempty"`
	// Servers restricts to the listed servers.
	Servers []int `json:"servers,omitempty"`
	// Phase is "apply" (held before taking effect) or "respond".
	Phase string `json:"phase"`
	// Class is "mutating", "read", or "any".
	Class string `json:"class"`
	// Count limits how many ops the rule holds (0 = unlimited).
	Count int `json:"count,omitempty"`
	// Once skips ops on an object the run already held an op on: Lemma 1's
	// adversary never covers a register twice.
	Once bool `json:"once,omitempty"`
}

// ClearStep disarms every hold rule.
type ClearStep struct{}

// ReleaseStep releases the held ops it selects (empty = all); Client is a
// fabric client ID, as in HoldStep.
type ReleaseStep struct {
	Client  *int  `json:"client,omitempty"`
	Servers []int `json:"servers,omitempty"`
}

// CrashStep crashes a server.
type CrashStep struct {
	Server int `json:"server"`
}

// ScriptResult is the outcome of a scripted run.
type ScriptResult struct {
	// Reads records every read's value in step order.
	Reads []types.Value
	// Released counts the ops the release steps released.
	Released int
	// Checks are the write-sequential verdicts on the run's history.
	Checks CheckResult
	// Failures lists the unmet expectations: read values and the WS-Safety
	// verdict.
	Failures []string
}

// Met reports whether every expectation held.
func (r *ScriptResult) Met() bool { return len(r.Failures) == 0 }

// LoadScript parses and validates a script from JSON.
func LoadScript(r io.Reader) (*Script, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Script
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("runner: parsing script: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the script before its first step runs: one action per
// step, known phases and classes, and a crash plan the f-tolerance admits —
// at most f crashes, each of a distinct server in range.
func (s *Script) validate() error {
	if s.Kind == "" {
		return fmt.Errorf("runner: script %q: missing kind", s.Name)
	}
	if s.K <= 0 || s.F <= 0 || s.N <= 0 {
		return fmt.Errorf("runner: script %q: k, f, n must be positive", s.Name)
	}
	crashed := make(map[int]bool)
	for i, st := range s.Steps {
		set := 0
		for _, ok := range []bool{st.Write != nil, st.Read != nil, st.Hold != nil, st.Clear != nil, st.Release != nil, st.Crash != nil} {
			if ok {
				set++
			}
		}
		if set != 1 {
			return fmt.Errorf("runner: script %q step %d: exactly one action required, got %d", s.Name, i, set)
		}
		if h := st.Hold; h != nil {
			if h.Phase != "apply" && h.Phase != "respond" {
				return fmt.Errorf("runner: script %q step %d: bad phase %q", s.Name, i, h.Phase)
			}
			if h.Class != "mutating" && h.Class != "read" && h.Class != "any" {
				return fmt.Errorf("runner: script %q step %d: bad class %q", s.Name, i, h.Class)
			}
		}
		if c := st.Crash; c != nil {
			if c.Server < 0 || c.Server >= s.N {
				return fmt.Errorf("runner: script %q step %d: server %d out of range (n=%d)", s.Name, i, c.Server, s.N)
			}
			if crashed[c.Server] {
				return fmt.Errorf("runner: script %q step %d: duplicate crash of server %d", s.Name, i, c.Server)
			}
			crashed[c.Server] = true
		}
	}
	if len(crashed) > s.F {
		return fmt.Errorf("runner: script %q: %d crashes exceed the failure threshold f=%d", s.Name, len(crashed), s.F)
	}
	return nil
}

// selects reports whether the rule picks the op ev (its phase aside).
func (h *HoldStep) selects(ev fabric.TriggerEvent) bool {
	if h.Client != nil && ev.Client != types.ClientID(*h.Client) || !onServers(h.Servers, ev.Server) {
		return false
	}
	switch h.Class {
	case "mutating":
		return adversary.IsMutating(ev.Inv)
	case "read":
		return !adversary.IsMutating(ev.Inv)
	}
	return true
}

// selects reports whether the release picks the held op.
func (r *ReleaseStep) selects(op fabric.PendingOp) bool {
	return (r.Client == nil || op.Event.Client == types.ClientID(*r.Client)) && onServers(r.Servers, op.Event.Server)
}

// onServers reports whether a server selector (empty = every server) picks
// server.
func onServers(servers []int, server types.ServerID) bool {
	return len(servers) == 0 || slices.Contains(servers, int(server))
}

// armedHold is an armed HoldStep with what is left of its count.
type armedHold struct {
	*HoldStep
	left int // -1 = unlimited
}

// run is one scripted run in progress: a fresh n-server environment behind
// one adversary.Script gate, the register and its history, the armed holds
// (compiled into the gate's apply and respond rules) and the readers made so
// far. RunScript takes it through a script's steps; RunCovering and RunTorn
// drive it a step at a time with observations of their own in between.
type run struct {
	s    *Script
	env  *Env
	reg  emulation.Register
	gate *adversary.Script

	armed []*armedHold
	// mu guards the armed rules' counts and the held objects, which the
	// rules of both phases share.
	mu      sync.Mutex
	held    map[types.ObjectID]bool
	readers map[int]*emulation.Reader
	next    int // the index of the next step
	res     ScriptResult
}

// newRun validates s and builds its environment: fabOpts select the lane
// (the in-process one when empty), opts the construction's build knobs.
func newRun(s *Script, opts BuildOpts, fabOpts ...fabric.Option) (*run, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	r := &run{s: s, gate: adversary.NewScript(), held: make(map[types.ObjectID]bool), readers: make(map[int]*emulation.Reader)}
	var err error
	if r.env, err = NewEnv(s.N, r.gate, fabOpts...); err != nil {
		return nil, err
	}
	if r.reg, _, err = BuildWith(s.Kind, r.env.Fabric, s.K, s.F, opts); err != nil {
		return nil, err
	}
	return r, nil
}

// holdRule compiles the armed rules of one phase into a gate rule: the
// first rule that selects an op — on an object not held before, for a once
// rule — holds it and spends one of its count.
func (r *run) holdRule(phase string) func(fabric.TriggerEvent) bool {
	var rules []*armedHold
	for _, h := range r.armed {
		if h.Phase == phase {
			rules = append(rules, h)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	return func(ev fabric.TriggerEvent) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, h := range rules {
			if h.left != 0 && h.selects(ev) && !(h.Once && r.held[ev.Object]) {
				if h.left > 0 {
					h.left--
				}
				r.held[ev.Object] = true
				return true
			}
		}
		return false
	}
}

// do runs the steps in order, numbering them on from the run's previous
// steps. An operation that cannot complete by ctx or a crash the fabric
// refuses ends it with an error; an unmet read expectation is recorded in
// the result.
func (r *run) do(ctx context.Context, steps ...Step) error {
	for _, st := range steps {
		if err := r.step(ctx, st); err != nil {
			return err
		}
	}
	return nil
}

// step runs one step.
func (r *run) step(ctx context.Context, st Step) error {
	i := r.next
	r.next++
	var err error
	switch {
	case st.Write != nil:
		var w *emulation.Writer
		if w, err = r.reg.Writer(st.Write.Writer); err == nil {
			err = w.Write(ctx, types.Value(st.Write.Value))
		}
	case st.Read != nil:
		rd, ok := r.readers[st.Read.Reader]
		if !ok {
			rd = r.reg.NewReader()
			r.readers[st.Read.Reader] = rd
		}
		var v types.Value
		if v, err = rd.Read(ctx); err == nil {
			r.res.Reads = append(r.res.Reads, v)
			if want := st.Read.Expect; want != nil && v != types.Value(*want) {
				r.res.Failures = append(r.res.Failures, fmt.Sprintf("step %d: read returned %d, expected %d", i, v, *want))
			}
		}
	case st.Hold != nil:
		left := -1
		if st.Hold.Count > 0 {
			left = st.Hold.Count
		}
		r.armed = append(r.armed, &armedHold{HoldStep: st.Hold, left: left})
		r.gate.SetApplyRule(r.holdRule("apply"))
		r.gate.SetRespondRule(r.holdRule("respond"))
	case st.Clear != nil:
		r.armed = nil
		r.gate.SetApplyRule(nil)
		r.gate.SetRespondRule(nil)
	case st.Release != nil:
		r.res.Released += r.env.Fabric.ReleaseWhere(st.Release.selects)
	case st.Crash != nil:
		err = r.env.Fabric.Crash(types.ServerID(st.Crash.Server))
	}
	return ctxErr(ctx, fmt.Sprintf("script %q step %d", r.s.Name, i), err)
}

// finish checks the run's history and the script's safety expectation.
func (r *run) finish() *ScriptResult {
	r.res.Checks = Check(r.reg.History())
	if violated := r.res.Checks.WSSafety != nil; violated != r.s.ExpectSafetyViolation {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("safety violation = %v, expected %v (verdict: %v)",
			violated, r.s.ExpectSafetyViolation, r.res.Checks.WSSafety))
	}
	return &r.res
}

// RunScript runs the script's steps in order on a fresh in-process
// environment and checks the history. A step that fails — an operation that
// cannot complete by ctx, a crash the fabric refuses — ends the run with an
// error; unmet expectations are reported in the result.
func RunScript(ctx context.Context, s *Script) (*ScriptResult, error) {
	r, err := newRun(s, BuildOpts{})
	if err != nil {
		return nil, err
	}
	if err := r.do(ctx, s.Steps...); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// holdWrites is the step that holds client's mutating ops on servers
// (empty = all) before they take effect, count of them (0 = all).
func holdWrites(client int, servers []int, count int) Step {
	return Step{Hold: &HoldStep{Client: &client, Servers: servers, Phase: "apply", Class: "mutating", Count: count}}
}

// delayReads is the step that holds every read response from servers.
func delayReads(servers ...int) Step {
	return Step{Hold: &HoldStep{Servers: servers, Phase: "respond", Class: "read"}}
}

// writeStep, clearStep and readStep are the plain steps the built scripts
// share.
func writeStep(writer int, v int64) Step { return Step{Write: &WriteStep{Writer: writer, Value: v}} }

var (
	clearStep = Step{Clear: &ClearStep{}}
	readStep  = Step{Read: &ReadStep{}}
)
