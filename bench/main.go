// Command bench is the repository's benchmark: six store workloads, each
// run end to end (tracing off) and layer by layer (spans recorded from
// outside the program), with every run checked for correctness. It owns all
// of its measuring code — pacer, latency recorder, span recorder, comparison
// — and drives the system only through exported functions, so a change to
// the program cannot change the ruler. See README.md in this directory.
//
// Usage, from the repository root:
//
//	go run ./bench                                   every workload, both modes, result file
//	go run ./bench -workload tcp-open -repeats 5     one workload, five seeds
//	go run ./bench -compare a.json b.json            verdict per (workload, metric)
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// The last form is the PR driver's: one workload, one mode, and as the last
// line of standard output one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

const (
	// defaultSeconds is the measured window; BENCHMARK.json's run_seconds
	// carries the same number for the PR driver.
	defaultSeconds = 9
	// runLimit bounds one run (one workload, one mode) end to end.
	runLimit = 170 * time.Second
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all six)")
		seed         = flag.Int64("seed", 1, "seed for lane delays, key choice and the read/write mix")
		seconds      = flag.Int("seconds", defaultSeconds, "measured window in seconds")
		trace        = flag.Int("trace", -1, "PR-driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
		repeats      = flag.Int("repeats", 1, "runs per workload, on consecutive seeds (full mode)")
		out          = flag.String("out", filepath.Join(buildDir, "result.json"), "result file (full mode)")
		traceOut     = flag.String("trace-out", "", "write the traced pass's sampled span trees here as JSON lines (one workload only)")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	selected := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return fail(err)
		}
		selected = []*workload{w}
	}
	if *traceOut != "" && len(selected) != 1 {
		return fail(fmt.Errorf("-trace-out needs -workload"))
	}

	// Every exit path — error, signal, timeout — unwinds through the passes'
	// deferred closes, which stop the node processes; cancelling ctx also
	// kills them directly (exec.CommandContext).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	window := time.Duration(*seconds) * time.Second

	if *trace >= 0 {
		if *trace > 1 || len(selected) != 1 {
			return fail(fmt.Errorf("--trace takes 0 or 1 and needs --workload"))
		}
		rc := &runConfig{w: selected[0], seed: *seed, window: window, trace: *trace == 1, traceOut: *traceOut}
		res, err := runLimited(ctx, rc)
		if err != nil {
			return fail(err)
		}
		printRun(os.Stdout, rc, res)
		if err := printDriverLine(os.Stdout, res); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	env := newEnvelope(*seed, *seconds, *repeats)
	ok := true
	for _, w := range selected {
		wr := workloadReport{Name: w.Name, Why: w.Why}
		for r := 0; r < *repeats; r++ {
			for _, traced := range []bool{false, true} {
				rc := &runConfig{w: w, seed: *seed + int64(r), window: window, trace: traced}
				if traced && r == 0 {
					rc.traceOut = *traceOut
				}
				res, err := runLimited(ctx, rc)
				if err != nil {
					return fail(err)
				}
				printRun(os.Stdout, rc, res)
				wr.Runs = append(wr.Runs, res)
				ok = ok && res.Correct
			}
		}
		wr.summarize()
		env.Workloads = append(env.Workloads, wr)
	}
	if err := env.write(*out); err != nil {
		return fail(err)
	}
	fmt.Printf("\nresult file: %s\n", *out)
	if !ok {
		return fail(fmt.Errorf("a checked pass reported violations"))
	}
	return 0
}

// runLimited runs one configuration under the per-run time limit.
func runLimited(ctx context.Context, rc *runConfig) (*runResult, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	res, err := rc.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.w.Name, err)
	}
	return res, nil
}

// printRun prints every metric of a run by name, with its unit.
func printRun(w *os.File, rc *runConfig, res *runResult) {
	mode := "end-to-end"
	if rc.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  window %s  %s ==\n", rc.w.Name, rc.seed, rc.window, mode)
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-30s %16.4f %-6s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, "  n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v", res.Attempted, res.Failed, res.Correct)
	if len(res.SliceN) > 0 {
		fmt.Fprintf(w, "\n  ops per latency slice %v", res.SliceN)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		if vals, ok := res.Slices[d.Name]; ok {
			fmt.Fprintf(w, "  slices %-16s %.4g\n", d.Name, vals)
		}
	}
	names := make([]string, 0, len(res.PassS))
	for name := range res.PassS {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "  passes:")
	for _, name := range names {
		fmt.Fprintf(w, " %s %.2fs", name, res.PassS[name])
	}
	fmt.Fprintln(w)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	for _, u := range res.Unresolved {
		fmt.Fprintf(w, "  UNRESOLVED: %s\n", u)
	}
}

// printDriverLine prints the one-line result the PR driver parses.
func printDriverLine(w *os.File, res *runResult) error {
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]driverMetric, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = driverMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
