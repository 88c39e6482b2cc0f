// Package runner assembles clusters, fabrics, gates, emulations, workloads,
// and checkers into the paper's experiments. Every table and figure of the
// paper has a driver here (see DESIGN.md's per-experiment index); cmd/sweep
// and the benchmark harness call these drivers and format their reports.
package runner

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/aacmax"
	"repro/internal/emulation/abdmax"
	"repro/internal/emulation/casmax"
	"repro/internal/emulation/coded"
	"repro/internal/emulation/naiveabd"
	"repro/internal/emulation/regemu"
	"repro/internal/fabric"
	"repro/internal/spec"
)

// Kind selects an emulation construction.
type Kind string

// The six constructions.
const (
	KindRegEmu Kind = "regemu"  // Algorithm 2 over plain registers
	KindABDMax Kind = "abd-max" // ABD over per-server max-registers
	KindCASMax Kind = "abd-cas" // ABD over per-server single-CAS max-registers
	KindAACMax Kind = "aac-max" // ABD over per-server k-writer max-registers of k registers
	KindNaive  Kind = "naive"   // under-provisioned baseline (1 register/server)
	KindCoded  Kind = "coded"   // erasure-coded stripes over per-server fragment stores
)

// Kinds lists every construction.
func Kinds() []Kind {
	return []Kind{KindRegEmu, KindABDMax, KindCASMax, KindAACMax, KindNaive, KindCoded}
}

// BaseObjectOf names the base-object type a construction consumes (the
// "Base object" column of Table 1).
func BaseObjectOf(kind Kind) string {
	switch kind {
	case KindRegEmu, KindAACMax, KindNaive:
		return "register"
	case KindABDMax:
		return "max-register"
	case KindCASMax:
		return "cas"
	case KindCoded:
		return "frag-store"
	default:
		return "unknown"
	}
}

// Env is one experiment environment: a fresh cluster and fabric.
type Env struct {
	Cluster *cluster.Cluster
	Fabric  *fabric.Fabric
}

// NewEnv creates an n-server environment guarded by the given gate (nil for
// the benign environment). Extra fabric options (e.g. a tracer) are applied
// on top.
func NewEnv(n int, gate fabric.Gate, extra ...fabric.Option) (*Env, error) {
	c, err := cluster.New(n)
	if err != nil {
		return nil, err
	}
	var opts []fabric.Option
	if gate != nil {
		opts = append(opts, fabric.WithGate(gate))
	}
	opts = append(opts, extra...)
	return &Env{Cluster: c, Fabric: fabric.New(c, opts...)}, nil
}

// BuildOpts are the construction options BuildWith passes through.
type BuildOpts = emulation.Options

// BuildWith sets the fabric's view's failure budget to f — the one place an
// experiment sets it; a construction reads it off the view, resize
// coordinators default their new threshold to it, and churn drivers guard
// shrinks with it — then constructs the chosen emulation on the fabric and
// returns it with the history it records. A refused build puts the view's
// old f back. A construction that cannot honour an option (Atomic on
// regemu, aac-max and naive) refuses it in its own New. The casmax retry
// metrics are discarded here; call casmax.New directly when they matter.
func BuildWith(kind Kind, fab *fabric.Fabric, k, f int, opts BuildOpts) (reg emulation.Register, hist *spec.History, err error) {
	c := fab.Cluster()
	if old := c.F(); old != f {
		c.SetF(f)
		defer func() {
			if err != nil {
				c.SetF(old)
			}
		}()
	}
	switch kind {
	case KindRegEmu:
		reg, err = regemu.New(fab, k, opts)
	case KindABDMax:
		reg, err = abdmax.New(fab, k, opts)
	case KindCASMax:
		reg, _, err = casmax.New(fab, k, opts)
	case KindAACMax:
		reg, err = aacmax.New(fab, k, opts)
	case KindNaive:
		reg, err = naiveabd.New(fab, k, opts)
	case KindCoded:
		reg, err = coded.New(fab, k, opts)
	default:
		return nil, nil, fmt.Errorf("runner: unknown emulation kind %q", kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return reg, reg.History(), nil
}

// CheckResult carries the outcome of the consistency checks on a history.
type CheckResult struct {
	// WSSafety and WSRegularity are nil when the condition holds.
	WSSafety     error
	WSRegularity error
}

// OK reports whether both conditions held.
func (c CheckResult) OK() bool { return c.WSSafety == nil && c.WSRegularity == nil }

// Check runs the write-sequential checkers over a history snapshot.
func Check(hist *spec.History) CheckResult {
	ops := hist.Snapshot()
	return CheckResult{
		WSSafety:     spec.CheckWSSafety(ops, 0),
		WSRegularity: spec.CheckWSRegularity(ops, 0),
	}
}

// ctxErr wraps a driver error with experiment context.
func ctxErr(ctx context.Context, stage string, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return fmt.Errorf("runner: %s: %w (experiment context: %v)", stage, err, ctx.Err())
	}
	return fmt.Errorf("runner: %s: %w", stage, err)
}
