// Command sweep regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md): Table 1 measured across parameter
// sweeps, the Figure 1 layout, the Figure 2 covering runs, the Theorem 1
// separation attack, and the appendix theorems.
//
// Usage:
//
//	sweep                               # run every experiment
//	sweep -exp table1                   # one experiment
//	sweep -exp figure2 -k 6 -f 2 -n 8
//	sweep -exp exhaustive -f 2 -workers 8 -json   # pooled f=2 model check
//	sweep -exp resize -json                       # chaos + live view transitions
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/layout"
	"repro/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment: table1 | figure1 | figure2 | separation | theorem2 | theorem5 | theorem6 | theorem7 | theorem8 | coincidence | exhaustive | chaos | resize | all")
	k := flag.Int("k", 5, "number of writers (single-experiment runs)")
	f := flag.Int("f", 2, "failure threshold (exhaustive sweeps support 1 or 2)")
	n := flag.Int("n", 6, "number of servers")
	workers := flag.Int("workers", 0, "sweep pool size for exhaustive/chaos (0 = one per CPU)")
	lane := flag.String("lane", "both", "chaos dispatch lane: inproc | latency | both")
	resizeProb := flag.Float64("resize", 0.25, "resize experiment: per-op batched-transition probability")
	jsonOut := flag.Bool("json", false, "emit exhaustive/chaos reports as JSON instead of tables")
	timeout := flag.Duration("timeout", 5*time.Minute, "total timeout")
	flag.Parse()

	// The shared -f default (2, chosen for figure2) would silently grow
	// the exhaustive sweep ~230x; exhaustive stays at its historical f=1
	// unless -f was set explicitly.
	exhaustF := 1
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "f" {
			exhaustF = *f
		}
	})
	if *exp == "all" && (exhaustF < 1 || exhaustF > 2) {
		// In all-mode, -f values beyond the exhaustive class (e.g. -f 3
		// for the table1/figure2 regimes) fall back to the f=1 sweep
		// instead of aborting the run at the exhaustive step.
		exhaustF = 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	experiments := map[string]func(context.Context) error{
		"table1":      func(ctx context.Context) error { return expTable1(ctx) },
		"figure1":     func(context.Context) error { return expFigure1() },
		"figure2":     func(ctx context.Context) error { return expFigure2(ctx, *k, *f, *n) },
		"separation":  func(ctx context.Context) error { return expSeparation(ctx) },
		"theorem2":    func(ctx context.Context) error { return expTheorem2(ctx) },
		"theorem5":    func(ctx context.Context) error { return expTheorem5(ctx) },
		"theorem6":    func(context.Context) error { return expTheorem6() },
		"theorem7":    func(context.Context) error { return expTheorem7() },
		"theorem8":    func(ctx context.Context) error { return expTheorem8(ctx) },
		"coincidence": func(context.Context) error { return expCoincidence() },
		"exhaustive":  func(ctx context.Context) error { return expExhaustive(ctx, exhaustF, *workers, *jsonOut) },
		"chaos":       func(ctx context.Context) error { return expChaos(ctx, *workers, *lane, *jsonOut) },
		"resize":      func(ctx context.Context) error { return expResize(ctx, *workers, *resizeProb, *jsonOut) },
	}
	if *exp != "all" {
		fn, ok := experiments[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		return fn(ctx)
	}
	for _, name := range []string{
		"table1", "figure1", "figure2", "separation", "theorem2", "theorem5",
		"theorem6", "theorem7", "theorem8", "coincidence", "exhaustive", "chaos",
		"resize",
	} {
		fmt.Printf("==== %s ====\n", name)
		if err := experiments[name](ctx); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// expTable1 measures Table 1 across a parameter sweep (experiments E1-E3).
func expTable1(ctx context.Context) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\tf\tn\tbase object\tlower\tmeasured\tupper\tcovered\tsafe")
	for _, p := range []struct{ k, f, n int }{
		{1, 1, 3}, {2, 1, 3}, {4, 1, 3}, {4, 1, 6},
		{2, 2, 5}, {4, 2, 6}, {4, 2, 8}, {8, 2, 6},
		{3, 3, 7}, {6, 3, 10},
	} {
		rows, err := runner.MeasureTable1(ctx, p.k, p.f, p.n)
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%s\n",
				row.K, row.F, row.N, row.BaseObject,
				row.LowerFormula, row.Measured, row.UpperFormula,
				row.TotalCovered, verdict(row.Safe))
		}
	}
	return w.Flush()
}

// expFigure1 renders the register-to-server layout at the paper's Figure 1
// parameters (experiment E4).
func expFigure1() error {
	plan, err := layout.NewPlan(5, 2, 6)
	if err != nil {
		return err
	}
	if err := plan.Verify(); err != nil {
		return err
	}
	fmt.Print(plan.Render())
	return nil
}

// expFigure2 runs the covering experiment (experiment E5).
func expFigure2(ctx context.Context, k, f, n int) error {
	rep, err := runner.RunCovering(ctx, runner.KindRegEmu, k, f, n)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "write\twriter\tnewly covered\tcumulative")
	for i, wc := range rep.PerWrite {
		fmt.Fprintf(w, "%d\tc%d\t%d\t%d\n", i+1, wc.Writer, wc.NewlyCovered, wc.Cumulative)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("total covered %d >= k*f = %d: %s; on F: %d; WS-Safe: %s\n",
		rep.TotalCovered, rep.CoveringLowerBound,
		verdict(rep.TotalCovered >= rep.CoveringLowerBound),
		rep.CoveredOnF, verdict(rep.Checks.WSSafety == nil))
	return nil
}

// expSeparation runs the stale-release attack across constructions
// (experiment E6).
func expSeparation(ctx context.Context) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "f\tconstruction\tread\twant\tviolated (expected: naive only)")
	for _, f := range []int{1, 2, 3} {
		sep, err := runner.RunSeparation(ctx, f)
		if err != nil {
			return err
		}
		for _, rep := range sep.Reports {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%v\n", f, rep.Kind, rep.ReadValue, rep.WantValue, rep.Violated())
		}
	}
	return w.Flush()
}

// expTheorem2 measures the aacmax special case (experiment E7).
func expTheorem2(ctx context.Context) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\tf\tper-server\twant/server\ttotal\twant total\tsafe")
	for _, p := range []struct{ k, f int }{{2, 1}, {4, 1}, {3, 2}, {5, 2}} {
		rep, err := runner.RunTheorem2(ctx, p.k, p.f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%d\t%d\t%s\n",
			rep.K, rep.F, rep.PerServer, rep.PerServerWant, rep.Total, rep.TotalWant, verdict(rep.Safe))
	}
	return w.Flush()
}

// expTheorem6 checks the per-server counts at n = 2f+1 (experiment E8).
func expTheorem6() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\tf\tn\tper-server counts\twant (>= k each)")
	for _, p := range []struct{ k, f int }{{2, 1}, {5, 1}, {3, 2}, {6, 3}} {
		rep, err := runner.RunTheorem6(p.k, p.f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%d\n", rep.K, rep.F, rep.N, rep.PerServer, rep.Want)
	}
	return w.Flush()
}

// expTheorem7 checks the bounded-storage server bound (experiment E9).
func expTheorem7() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\tf\tcap\tbound n\tmin feasible n\tbound respected")
	for _, p := range []struct{ k, f, cap int }{
		{4, 1, 1}, {4, 1, 2}, {6, 2, 2}, {6, 2, 3}, {8, 2, 4},
	} {
		rep, err := runner.RunTheorem7(p.k, p.f, p.cap)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\n",
			rep.K, rep.F, rep.Cap, rep.BoundN, rep.MinFeasibleN,
			verdict(rep.Feasible && rep.MinFeasibleN >= rep.BoundN))
	}
	return w.Flush()
}

// expTheorem8 shows resource consumption growing at point contention 1
// (experiment E10).
func expTheorem8(ctx context.Context) error {
	points, err := runner.RunTheorem8(ctx, 2, 6, []int{1, 2, 4, 6, 8})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\tpoint contention\tused objects\tcovered")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n", p.K, p.PointContention, p.UsedObjects, p.Covered)
	}
	return w.Flush()
}

// expTheorem5 demonstrates the partition argument behind |S| >= 2f+1
// (experiment E14): with n = 2f servers, a live protocol is driven into a
// safety violation.
func expTheorem5(ctx context.Context) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "f\tn=2f\twrote\tread\tviolated (expected: true)")
	for _, f := range []int{1, 2, 3} {
		rep, err := runner.RunTheorem5(ctx, f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\n", rep.F, rep.N, rep.WroteValue, rep.ReadValue, rep.SafetyViolation != nil)
	}
	return w.Flush()
}

// expExhaustive model-checks the full f-bounded adversary class (f=1 or
// f=2) against every construction (experiment E13), fanned across the
// sweep pool.
func expExhaustive(ctx context.Context, f, workers int, jsonOut bool) error {
	if f < 1 || f > 2 {
		return fmt.Errorf("exhaustive sweep supports -f 1 or -f 2, got %d", f)
	}
	var reports []*runner.ExhaustReport
	for _, kind := range runner.Kinds() {
		rep, err := runner.RunExhaustive(ctx, kind, runner.ExhaustOptions{F: f, Workers: workers})
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	if jsonOut {
		return emitJSON(reports)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "construction\tf\tschedules\tworkers\twall-clock\tviolations\texample")
	for _, rep := range reports {
		example := "-"
		if rep.FirstViolation != "" {
			example = rep.FirstViolation
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%s\n",
			rep.Kind, rep.F, rep.Schedules, rep.Workers, rep.Elapsed.Round(time.Millisecond), rep.Violations, example)
	}
	return w.Flush()
}

// expChaos sweeps randomized environments across constructions on the
// sweep pool, on the selected dispatch lane(s): the in-process lane keeps
// the historical deterministic sweep, the latency lane adds seeded
// delivery delay, reordering, and stragglers on every dispatch.
func expChaos(ctx context.Context, workers int, lane string, jsonOut bool) error {
	var lanes []runner.Lane
	switch lane {
	case "inproc":
		lanes = []runner.Lane{runner.LaneInProc}
	case "latency":
		lanes = []runner.Lane{runner.LaneLatency}
	case "both":
		lanes = []runner.Lane{runner.LaneInProc, runner.LaneLatency}
	default:
		return fmt.Errorf("unknown lane %q (inproc | latency | both)", lane)
	}
	var reports []*runner.ChaosSweepReport
	for _, ln := range lanes {
		for _, kind := range runner.Kinds() {
			rep, err := runner.RunChaosSweep(ctx, runner.ChaosConfig{
				Kind: kind, K: 3, F: 2, N: runner.ChaosServers(kind), Ops: 25, Lane: ln,
			}, 10, workers)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
	}
	if jsonOut {
		return emitJSON(reports)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "construction\tlane\tseeds\tviolating seeds\tholds\treleases\twall-clock")
	for _, rep := range reports {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
			rep.Kind, rep.Lane, rep.Seeds, rep.Violating, rep.Holds, rep.Releases, rep.Elapsed.Round(time.Millisecond))
	}
	return w.Flush()
}

// expResize sweeps the chaos net with live view transitions (experiments
// E27 and E28): between high-level ops, random member swaps, grows and
// shrinks commit as single epoch bumps — a swap transferring its leaver's
// objects onto the joiner, a grow or shrink with the construction's reshape
// re-deriving the quorum geometry. The first section runs clean
// transitions (E27); the second arms the transition crasher so the
// sealed-but-not-activated window loses a server inside every other
// transition (E28) — crashed transitions must abort back onto the old view.
// Seeds are pinned at 0..23: sound constructions must report zero violating
// seeds; the naive baseline is expected to be caught.
func expResize(ctx context.Context, workers int, resizeProb float64, jsonOut bool) error {
	kinds := []runner.Kind{
		runner.KindABDMax, runner.KindCASMax, runner.KindAACMax,
		runner.KindCoded, runner.KindRegEmu, runner.KindNaive,
	}
	var reports []*runner.ChaosSweepReport
	for _, crashProb := range []float64{0, 0.5} {
		for _, kind := range kinds {
			rep, err := runner.RunChaosSweep(ctx, runner.ChaosConfig{
				Kind: kind, K: 3, F: 2, N: runner.ChaosServers(kind),
				Ops: 30, ResizeProb: resizeProb, TransitionCrashProb: crashProb,
			}, 24, workers)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
	}
	if jsonOut {
		return emitJSON(reports)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "construction\tseeds\tresizes\tswaps\tmoved\taborts\ttransition crashes\tholds\tviolating seeds (expected: naive only)\twall-clock")
	for _, rep := range reports {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			rep.Kind, rep.Seeds, rep.Resizes, rep.Swaps, rep.Moved, rep.ResizeAborts, rep.TransitionCrashes,
			rep.Holds, rep.Violating, rep.Elapsed.Round(time.Millisecond))
	}
	return w.Flush()
}

// jsonEnvelope wraps every -json report with the build identity, so a
// saved report is attributable to the toolchain and commit that made it.
type jsonEnvelope struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GitCommit string `json:"git_commit"`
	Reports   any    `json:"reports"`
}

// emitJSON renders sweep reports as indented JSON on stdout for scripted
// consumers, wrapped in the attribution envelope.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonEnvelope{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: buildinfo.GoVersion(),
		GitCommit: buildinfo.GitCommit(),
		Reports:   v,
	})
}

// expCoincidence verifies the bound coincidence regimes (experiment E12).
func expCoincidence() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\tf\tn\tlower\tupper\twant\tcoincide")
	for _, p := range []struct{ k, f int }{{1, 1}, {3, 1}, {5, 2}, {4, 3}} {
		points, err := runner.RunCoincidence(p.k, p.f)
		if err != nil {
			return err
		}
		for _, c := range points {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%v\n", c.K, c.F, c.N, c.Lower, c.Upper, c.Want, c.Coincide)
		}
	}
	return w.Flush()
}
