package runner

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/layout"
)

// Theorem2Report measures the aacmax construction against Theorem 2: a
// k-writer max-register needs at least k base registers, and the paper's
// n = 2f+1 special case uses exactly k per server, (2f+1)k in total.
type Theorem2Report struct {
	K, F           int
	PerServer      []int
	PerServerWant  int // k (Theorem 2 / Theorem 6 tightness)
	Total          int
	TotalWant      int // (2f+1)k
	Safe           bool
	CoveredAtEnd   int
	CoveringFloorF int // adversary's per-write covering; grows like a register construction
}

// RunTheorem2 builds the per-server k-register max-registers, runs the
// covering experiment on them, and reports per-server register counts.
func RunTheorem2(ctx context.Context, k, f int) (*Theorem2Report, error) {
	n := 2*f + 1
	rep, err := RunCovering(ctx, KindAACMax, k, f, n)
	if err != nil {
		return nil, err
	}
	totalWant, err := bounds.SpecialCaseRegisters(k, f)
	if err != nil {
		return nil, err
	}
	perWant, err := bounds.MaxRegisterFromRegistersLower(k)
	if err != nil {
		return nil, err
	}
	return &Theorem2Report{
		K:              k,
		F:              f,
		PerServer:      rep.PerServer,
		PerServerWant:  perWant,
		Total:          rep.Resources,
		TotalWant:      totalWant,
		Safe:           rep.Checks.OK() && rep.FinalRead == rep.LastWritten,
		CoveredAtEnd:   rep.TotalCovered,
		CoveringFloorF: f,
	}, nil
}

// Theorem6Report checks the n = 2f+1 per-server bound against Algorithm 2's
// layout: every server must store at least k registers, and the layout
// stores exactly k.
type Theorem6Report struct {
	K, F      int
	N         int
	PerServer []int
	Want      int // k
}

// RunTheorem6 inspects the Algorithm 2 layout at n = 2f+1.
func RunTheorem6(k, f int) (*Theorem6Report, error) {
	n := 2*f + 1
	plan, err := layout.NewPlan(k, f, n)
	if err != nil {
		return nil, err
	}
	if err := plan.Verify(); err != nil {
		return nil, err
	}
	want, err := bounds.PerServerLowerAtMinServers(k)
	if err != nil {
		return nil, err
	}
	return &Theorem6Report{K: k, F: f, N: n, PerServer: plan.PerServerCounts(), Want: want}, nil
}

// Theorem7Report checks the bounded-storage server bound: with at most cap
// registers per server, any emulation needs >= ceil(kf/cap) + f + 1
// servers. MinFeasibleN is the smallest n at which Algorithm 2's layout
// fits under the cap; the bound says MinFeasibleN >= BoundN.
type Theorem7Report struct {
	K, F, Cap    int
	BoundN       int
	MinFeasibleN int
	// Feasible is false when no n up to the search limit fits the cap
	// (cap < f+... too small for any layout).
	Feasible bool
}

// RunTheorem7 sweeps n upward until Algorithm 2's layout respects the
// per-server cap.
func RunTheorem7(k, f, cap int) (*Theorem7Report, error) {
	boundN, err := bounds.ServersLowerWithCap(k, f, cap)
	if err != nil {
		return nil, err
	}
	rep := &Theorem7Report{K: k, F: f, Cap: cap, BoundN: boundN}
	limit := boundN + k*f + 2*f + 2 // generous search ceiling
	for n := 2*f + 1; n <= limit; n++ {
		plan, err := layout.NewPlan(k, f, n)
		if err != nil {
			return nil, err
		}
		max := 0
		for _, c := range plan.PerServerCounts() {
			if c > max {
				max = c
			}
		}
		if max <= cap {
			rep.MinFeasibleN = n
			rep.Feasible = true
			return rep, nil
		}
	}
	return rep, nil
}

// Theorem8Point is one (k, consumption) sample of the adaptivity
// experiment: point contention stays 1 while resource consumption grows.
type Theorem8Point struct {
	K               int
	PointContention int
	UsedObjects     int
	Covered         int
}

// RunTheorem8 sweeps k for fixed (f, n) and reports the resource
// consumption of sequential (point contention 1) runs — demonstrating that
// no function of point contention can bound consumption (Theorem 8).
func RunTheorem8(ctx context.Context, f, n int, ks []int) ([]Theorem8Point, error) {
	points := make([]Theorem8Point, 0, len(ks))
	for _, k := range ks {
		rep, err := RunCovering(ctx, KindRegEmu, k, f, n)
		if err != nil {
			return nil, fmt.Errorf("runner: theorem8 k=%d: %w", k, err)
		}
		points = append(points, Theorem8Point{
			K:               k,
			PointContention: rep.PointContention,
			UsedObjects:     rep.UsedObjects,
			Covered:         rep.TotalCovered,
		})
	}
	return points, nil
}

// CoincidencePoint verifies the Section 3 claims that the register bounds
// coincide at n = 2f+1 (both kf + k(f+1)) and at n >= kf + f + 1 (both
// kf + f + 1).
type CoincidencePoint struct {
	K, F, N      int
	Lower, Upper int
	Want         int
	Coincide     bool
}

// RunCoincidence evaluates both coincidence regimes for (k, f).
func RunCoincidence(k, f int) ([]CoincidencePoint, error) {
	var points []CoincidencePoint
	// Regime 1: n = 2f+1.
	n1 := 2*f + 1
	lo, err := bounds.RegisterLower(k, f, n1)
	if err != nil {
		return nil, err
	}
	hi, err := bounds.RegisterUpper(k, f, n1)
	if err != nil {
		return nil, err
	}
	want1 := k*f + k*(f+1)
	points = append(points, CoincidencePoint{
		K: k, F: f, N: n1, Lower: lo, Upper: hi, Want: want1,
		Coincide: lo == hi && lo == want1,
	})
	// Regime 2: n = kf + f + 1.
	n2 := k*f + f + 1
	if n2 < 2*f+1 {
		n2 = 2*f + 1
	}
	lo2, err := bounds.RegisterLower(k, f, n2)
	if err != nil {
		return nil, err
	}
	hi2, err := bounds.RegisterUpper(k, f, n2)
	if err != nil {
		return nil, err
	}
	want2 := k*f + f + 1
	points = append(points, CoincidencePoint{
		K: k, F: f, N: n2, Lower: lo2, Upper: hi2, Want: want2,
		Coincide: lo2 == hi2 && lo2 == want2,
	})
	return points, nil
}
