// Command benchjson records the repository's perf trajectory: it runs the
// benchmark families that gate performance work (fabric dispatch
// throughput, exhaustive-sweep wall-clock, checker cost), parses the
// standard `go test -bench` output, and writes the numbers as a dated JSON
// snapshot (BENCH_<yyyy-mm-dd>.json by default) so future PRs have a
// baseline to compare against. See EXPERIMENTS.md for the recorded
// history.
//
// Usage:
//
//	go run ./cmd/benchjson                       # trajectory set, 1x each
//	go run ./cmd/benchjson -bench '.' -benchtime 100ms -out perf.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fabric"
	"repro/internal/loadgen"
	"repro/internal/runner"
)

// trajectoryBenches is the default benchmark set: the numbers the ROADMAP
// tracks PR over PR. BenchmarkFabricLaneTrigger records in-process vs
// latency-lane trigger-to-completion throughput side by side, so the cost
// of real asynchrony is part of every snapshot. The two route-table sweeps
// (first touch, re-resolution after an epoch bump) are the cold path; their
// per-object figures are also lifted into the first_touch section.
const trajectoryBenches = "BenchmarkFabricParallelTrigger|BenchmarkFabricLaneTrigger|BenchmarkFabricFirstTouch|BenchmarkFabricReresolveAfterEpoch|BenchmarkLanenetPipeline|BenchmarkExhaustiveParallel|BenchmarkExhaustiveSearch|BenchmarkCheckers|BenchmarkCheckLinearizable"

// Result is one parsed benchmark line.
type Result struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit to value: "ns/op", "triggers/sec",
	// "schedules/sec", ...
	Metrics map[string]float64 `json:"metrics"`
}

// Snapshot is the file layout of BENCH_<date>.json.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	// GitCommit attributes the snapshot to the exact tree that produced it
	// ("unknown" outside a git checkout).
	GitCommit  string   `json:"git_commit"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Bench      string   `json:"bench"`
	Benchtime  string   `json:"benchtime"`
	Results    []Result `json:"results"`
	// FirstTouch is the cost of resolving a base object for the first time,
	// per object, at each size BenchmarkFabricFirstTouch ran: flat figures
	// across sizes are what linear set-up looks like.
	FirstTouch []FirstTouchPoint `json:"first_touch,omitempty"`
	// Loadgen records the end-to-end numbers: high-level ops/sec and
	// latency percentiles through the async client engine, one entry per
	// lane backend, correctness-gated (a run with violations fails the
	// snapshot).
	Loadgen []*loadgen.Result `json:"loadgen,omitempty"`
	// ShardSweep records aggregate throughput at shard counts 1, 2, 4, 8:
	// weak scaling on the latency lane — a fixed closed-loop client
	// population per shard, so per-shard load is latency-bound and the
	// aggregate grows with the shard count until the CPU ceiling. (On a
	// single-core runner the sweep measures lane/engine parallelism
	// headroom, not core scaling; GOMAXPROCS above records the context.)
	ShardSweep []*loadgen.Result `json:"shard_sweep,omitempty"`
	// RateCurve is the open-loop latency-vs-offered-rate curve on the
	// latency lane, coordinated-omission-corrected, with the knee index.
	RateCurve *RateCurve `json:"rate_curve,omitempty"`
	// Space is the bytes-per-server axis: replicated (abd-max) vs coded
	// runs at matched n/f/value-size grid points. The snapshot fails
	// unless the coded points store strictly less than their replicated
	// counterparts wherever striping is non-degenerate (kData > 1).
	Space []*SpacePoint `json:"space,omitempty"`
	// Reconfig is the reconfiguration-latency axis: freeze-to-activate
	// wall-clock of a batched view transition, per membership delta size,
	// on a live abd-max register (state transfer and quorum re-derivation
	// included).
	Reconfig []*ReconfigPoint `json:"reconfig,omitempty"`
}

// FirstTouchPoint is one size of BenchmarkFabricFirstTouch.
type FirstTouchPoint struct {
	Objects        int     `json:"objects"`
	NSPerObject    float64 `json:"ns_per_object"`
	BytesPerObject float64 `json:"bytes_per_object"`
}

// firstTouchPoints lifts the first-touch benchmark's per-object metrics out
// of the parsed results.
func firstTouchPoints(results []Result) []FirstTouchPoint {
	var out []FirstTouchPoint
	for _, r := range results {
		if strings.HasPrefix(r.Name, "BenchmarkFabricFirstTouch/") {
			out = append(out, FirstTouchPoint{
				Objects:        int(r.Metrics["objects"]),
				NSPerObject:    r.Metrics["ns/object"],
				BytesPerObject: r.Metrics["B/object"],
			})
		}
	}
	return out
}

// ReconfigPoint is one delta size: Joins servers join and Leaves servers
// leave in a single epoch bump, repeated Iters times on the same live
// register (each grow is undone by the paired shrink before the next
// iteration, so every measurement starts from the same n).
type ReconfigPoint struct {
	Delta  string `json:"delta"`
	Joins  int    `json:"joins"`
	Leaves int    `json:"leaves"`
	Iters  int    `json:"iters"`
	// MeanNS and MaxNS are over the forward transitions' ResizeResult
	// durations (freeze -> activate, the window clients retry through).
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// SpacePoint is one cell of the space grid: a short write-heavy run plus
// the shard-store byte counters it left behind.
type SpacePoint struct {
	// Mode is "replicated" (full copies on every server) or "coded"
	// (one fragment per server); DataShards is kData for coded points
	// (n-2f, 1 = degenerate replication) and 0 otherwise.
	Mode       string          `json:"mode"`
	DataShards int             `json:"data_shards,omitempty"`
	Run        *loadgen.Result `json:"run"`
}

// RateCurve is one open-loop sweep: Points[Knee] is the highest offered
// rate achieved within 95% (knee -1 when none was).
type RateCurve struct {
	Knee   int               `json:"knee"`
	Points []*loadgen.Result `json:"points"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	bench := flag.String("bench", trajectoryBenches, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "benchtime passed to go test")
	withLoadgen := flag.Bool("loadgen", true, "include end-to-end loadgen runs (in-process and latency lanes)")
	loadgenDur := flag.Duration("loadgen-duration", 2*time.Second, "measured duration of each loadgen run")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run", "xxx", "-bench", *bench,
		"-benchtime", *benchtime, "-count", "1", ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	results, err := parseBenchOutput(string(raw))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines matched %q", *bench)
	}
	snap := Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  buildinfo.GoVersion(),
		GitCommit:  buildinfo.GitCommit(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      *bench,
		Benchtime:  *benchtime,
		Results:    results,
		FirstTouch: firstTouchPoints(results),
	}
	if *withLoadgen {
		lg, err := runLoadgen(*loadgenDur)
		if err != nil {
			return err
		}
		snap.Loadgen = lg
		sweep, err := runShardSweep(*loadgenDur)
		if err != nil {
			return err
		}
		snap.ShardSweep = sweep
		curve, err := runRateCurve(*loadgenDur)
		if err != nil {
			return err
		}
		snap.RateCurve = curve
		space, err := runSpaceGrid(*loadgenDur)
		if err != nil {
			return err
		}
		snap.Space = space
		reconfig, err := runReconfig()
		if err != nil {
			return err
		}
		snap.Reconfig = reconfig
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", snap.Date)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(results))
	return nil
}

// parseBenchOutput extracts benchmark result lines from `go test -bench`
// output. A line has the shape
//
//	BenchmarkName/sub-8   100   123456 ns/op   4.2 metric/unit   ...
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parseBenchOutput(out string) ([]Result, error) {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // not a result line (e.g. "BenchmarkX ... FAIL")
		}
		res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: bad metric value %q", line, fields[i])
			}
			res.Metrics[fields[i+1]] = val
		}
		results = append(results, res)
	}
	return results, nil
}

// runLoadgen records the end-to-end trajectory: a closed-loop run on each
// lane backend through the async client engine. Both runs are atomic
// builds with the linearizability gate on; a violation fails the snapshot
// rather than recording a tainted number.
func runLoadgen(dur time.Duration) ([]*loadgen.Result, error) {
	ctx := context.Background()
	configs := []loadgen.Config{
		// In-process lane: the engine-loop-bound serial ceiling.
		{Kind: runner.KindABDMax, Atomic: true, Clients: 256, ReadFraction: 0.5,
			Duration: dur, MaxOps: 500_000, Seed: 1},
		// Latency lane: realistic asynchrony, 1000 clients in flight.
		{Kind: runner.KindABDMax, Atomic: true, Clients: 1000, ReadFraction: 0.5,
			Lane: runner.LaneLatency, Duration: dur, MaxOps: 500_000, Seed: 1},
	}
	var out []*loadgen.Result
	for _, cfg := range configs {
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen (%s lane): %w", cfg.Lane, err)
		}
		if len(res.Violations) > 0 {
			return nil, fmt.Errorf("loadgen (%s lane): %d consistency violations", res.Lane, len(res.Violations))
		}
		if res.Failed > 0 {
			return nil, fmt.Errorf("loadgen (%s lane): %d operations failed", res.Lane, res.Failed)
		}
		fmt.Printf("loadgen %s lane: %.0f ops/sec, p50=%v p99=%v (in-flight peak %d)\n",
			res.Lane, res.OpsPerSec,
			time.Duration(res.Latency.P50), time.Duration(res.Latency.P99), res.MaxInFlight)
		out = append(out, res)
	}
	return out, nil
}

// gate fails a run that recorded violations or failed operations, so a
// tainted number never lands in the snapshot.
func gate(what string, res *loadgen.Result) error {
	if len(res.Violations) > 0 {
		return fmt.Errorf("%s: %d consistency violations", what, len(res.Violations))
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d operations failed", what, res.Failed)
	}
	return nil
}

// runShardSweep measures aggregate closed-loop throughput at shard counts
// 1, 2, 4, 8 on the latency lane: 8 clients per shard (weak scaling), 4
// keys per shard, engines matching shards, atomic builds with the
// linearizability gate on.
func runShardSweep(dur time.Duration) ([]*loadgen.Result, error) {
	ctx := context.Background()
	var out []*loadgen.Result
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := loadgen.Run(ctx, loadgen.Config{
			Kind: runner.KindABDMax, Atomic: true,
			Clients: 8 * shards, ReadFraction: 0.5,
			Registers: 4 * shards, Shards: shards, Engines: shards,
			Lane: runner.LaneLatency, Duration: dur, Seed: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("shard sweep S=%d: %w", shards, err)
		}
		if err := gate(fmt.Sprintf("shard sweep S=%d", shards), res); err != nil {
			return nil, err
		}
		fmt.Printf("shard sweep S=%d: %.0f ops/sec, p50=%v p99=%v\n",
			shards, res.OpsPerSec,
			time.Duration(res.Latency.P50), time.Duration(res.Latency.P99))
		out = append(out, res)
	}
	if base, quad := out[0].OpsPerSec, out[2].OpsPerSec; base > 0 {
		fmt.Printf("shard sweep: 4-shard/1-shard aggregate = %.2fx\n", quad/base)
	}
	return out, nil
}

// runRateCurve traces the open-loop latency-vs-offered-rate curve on the
// latency lane (CO-corrected timestamps; see internal/loadgen) and marks
// the knee — the highest offered rate achieved within 95%.
func runRateCurve(dur time.Duration) (*RateCurve, error) {
	rates := []float64{10_000, 20_000, 40_000, 60_000, 80_000, 100_000}
	results, err := loadgen.RateSweep(context.Background(), loadgen.Config{
		Kind: runner.KindABDMax, Atomic: true,
		Clients: 64, ReadFraction: 0.5,
		Registers: 8, Shards: 2, Engines: 2,
		Lane: runner.LaneLatency, Duration: dur, Seed: 1,
	}, rates)
	if err != nil {
		return nil, fmt.Errorf("rate curve: %w", err)
	}
	curve := &RateCurve{Knee: loadgen.Knee(results), Points: results}
	for i, res := range results {
		if err := gate(fmt.Sprintf("rate curve at %.0f", res.Rate), res); err != nil {
			return nil, err
		}
		marker := ""
		if i == curve.Knee {
			marker = "  <- knee"
		}
		fmt.Printf("rate curve: offered %.0f -> %.0f ops/sec, p50=%v p99=%v%s\n",
			res.Rate, res.OpsPerSec,
			time.Duration(res.Latency.P50), time.Duration(res.Latency.P99), marker)
	}
	return curve, nil
}

// runReconfig measures the freeze-to-activate wall-clock of batched view
// transitions per membership delta size: a live abd-max register at n=5,
// f=1 is grown or swapped (and restored to n=5 between iterations), and
// the forward transition's ResizeResult.Duration — the window concurrent
// clients retry through — is recorded. No client load runs during the
// measurement; this is the floor cost of the transition itself (freeze,
// drain, reshape seeding, transfer, activation).
func runReconfig() ([]*ReconfigPoint, error) {
	ctx := context.Background()
	deltas := []struct {
		name          string
		joins, leaves int
	}{
		{"join1", 1, 0}, {"join2", 2, 0}, {"swap1", 1, 1}, {"swap2", 2, 2},
	}
	const iters = 8
	var out []*ReconfigPoint
	for _, d := range deltas {
		env, err := runner.NewEnv(5, nil)
		if err != nil {
			return nil, err
		}
		reg, _, err := runner.BuildWith(runner.KindABDMax, env.Fabric, 1, 1, runner.BuildOpts{Atomic: true})
		if err != nil {
			env.Fabric.Close()
			return nil, fmt.Errorf("reconfig %s: %w", d.name, err)
		}
		w, err := reg.Writer(0)
		if err != nil {
			env.Fabric.Close()
			return nil, err
		}
		if err := w.Write(ctx, 7); err != nil {
			env.Fabric.Close()
			return nil, fmt.Errorf("reconfig %s: seeding write: %w", d.name, err)
		}
		var sum, max time.Duration
		for i := 0; i < iters; i++ {
			spec := fabric.ResizeSpec{Join: make([]fabric.LaneMaker, d.joins)}
			view := env.Cluster.View()
			spec.Leave = append(spec.Leave, view.Members[:d.leaves]...)
			res, err := runner.ResizeRegister(ctx, env, reg, spec)
			if err != nil {
				env.Fabric.Close()
				return nil, fmt.Errorf("reconfig %s iter %d: %w", d.name, i, err)
			}
			sum += res.Duration
			if res.Duration > max {
				max = res.Duration
			}
			if d.joins > d.leaves {
				// Restore n before the next iteration (unmeasured).
				if _, err := runner.ResizeRegister(ctx, env, reg, fabric.ResizeSpec{Leave: res.Joined}); err != nil {
					env.Fabric.Close()
					return nil, fmt.Errorf("reconfig %s iter %d restore: %w", d.name, i, err)
				}
			}
		}
		env.Fabric.Close()
		mean := sum / iters
		fmt.Printf("reconfig %s (+%d/-%d): mean=%v max=%v over %d transitions\n",
			d.name, d.joins, d.leaves, mean, max, iters)
		out = append(out, &ReconfigPoint{
			Delta: d.name, Joins: d.joins, Leaves: d.leaves, Iters: iters,
			MeanNS: mean.Nanoseconds(), MaxNS: max.Nanoseconds(),
		})
	}
	return out, nil
}

// runSpaceGrid measures the bytes-per-server axis: replicated (abd-max)
// vs coded runs with 64 KiB values at n=5, f=1 (kData=3, real striping)
// and f=2 (kData=1, where the paper's bound forces the coded construction
// back onto full copies). Each cell is a short write-heavy closed-loop
// run; the counters are read after the drain, so every counted write is
// complete.
func runSpaceGrid(dur time.Duration) ([]*SpacePoint, error) {
	ctx := context.Background()
	const valueSize = 64 << 10
	base := loadgen.Config{
		N: 5, ValueSize: valueSize,
		Clients: 8, ReadFraction: 0.25, Registers: 2,
		Duration: dur, MaxOps: 200, Seed: 1,
	}
	var out []*SpacePoint
	for _, f := range []int{1, 2} {
		for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCoded} {
			cfg := base
			cfg.Kind, cfg.F = kind, f
			res, err := loadgen.Run(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("space grid %s f=%d: %w", kind, f, err)
			}
			if err := gate(fmt.Sprintf("space grid %s f=%d", kind, f), res); err != nil {
				return nil, err
			}
			pt := &SpacePoint{Mode: "replicated", Run: res}
			if kind == runner.KindCoded {
				pt.Mode = "coded"
				pt.DataShards = cfg.N - 2*f
			}
			fmt.Printf("space grid %s f=%d: total=%d bytes, per-server=%v\n",
				kind, f, res.TotalBytes, res.BytesPerServer)
			out = append(out, pt)
		}
	}
	// The acceptance inequality: wherever striping is real, coded beats
	// replicated at the same grid point.
	for i := 0; i+1 < len(out); i += 2 {
		rep, coded := out[i], out[i+1]
		if coded.DataShards > 1 && coded.Run.TotalBytes >= rep.Run.TotalBytes {
			return nil, fmt.Errorf("space grid f=%d: coded stores %d bytes, replicated %d — striping did not win",
				rep.Run.F, coded.Run.TotalBytes, rep.Run.TotalBytes)
		}
	}
	return out, nil
}
