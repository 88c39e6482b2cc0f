// Command loadgen drives end-to-end load through a sharded multi-register
// store (internal/shardstore): the key-space partitions across -shards
// independent fabrics driven by -engines shared async engine loops, and
// the command reports high-level ops/sec and latency percentiles, overall
// and per shard. Runs are correctness-gated: read validity always, sampled
// linearizability on atomic builds; any violation makes the command fail.
//
// With -rates, the command runs an open-loop offered-rate sweep instead of
// a single run: one CO-corrected run per rate (latencies measured from
// each operation's intended send time), printing the latency-vs-rate curve
// and the knee — the highest offered rate the store sustained.
//
// Usage:
//
//	loadgen -kind abd-max -atomic -clients 1000 -read-frac 0.5 \
//	        -lane latency -duration 2s -min-inflight 1000
//	loadgen -kind abd-max -clients 256 -registers 32 -shards 4 -engines 4 \
//	        -lane latency -duration 2s
//	loadgen -kind abd-max -clients 64 -mode open -rates 10000,20000,40000,80000
//	loadgen -kind abd-max -shards 2 -lane tcp -nodes 127.0.0.1:7001,127.0.0.1:7002
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	kind := flag.String("kind", string(runner.KindABDMax), "construction: regemu | abd-max | abd-cas | aac-max | naive | coded")
	coded := flag.Bool("coded", false, "shorthand for -kind coded (erasure-coded stripes)")
	atomic := flag.Bool("atomic", false, "read write-back build (abd-max/abd-cas/coded): enables the linearizability gate")
	valueSize := flag.Int("valuesize", 0, "payload bytes per write (0 = timestamps only); enables the bytes-per-server report")
	f := flag.Int("f", 1, "failure threshold per shard")
	n := flag.Int("n", 0, "servers per shard (0 = construction default)")
	clients := flag.Int("clients", 100, "logical client population")
	readFrac := flag.Float64("read-frac", 0.5, "fraction of clients that read")
	registers := flag.Int("registers", 1, "keys the population spreads over")
	keyspace := flag.Uint64("keyspace", 0, "addressable key-space size (0 = 2^20, at most 2^30)")
	shards := flag.Int("shards", 1, "independent fabrics the key-space partitions across")
	engines := flag.Int("engines", 0, "shared async engine loops (0 = one per shard)")
	mode := flag.String("mode", string(loadgen.ModeClosed), "closed | open")
	rate := flag.Float64("rate", 0, "aggregate ops/sec (open mode)")
	rates := flag.String("rates", "", "comma-separated offered rates: run an open-loop sweep and report the knee")
	duration := flag.Duration("duration", 2*time.Second, "measured duration (per rate, when sweeping)")
	maxOps := flag.Int64("maxops", 0, "stop after this many ops (0 = duration only)")
	lane := flag.String("lane", string(runner.LaneInProc), "dispatch backend: inproc | latency | tcp")
	nodes := flag.String("nodes", "", "comma-separated lanenode addresses (tcp lane)")
	seed := flag.Int64("seed", 1, "seed for lane delays and the open-loop mix")
	noHistory := flag.Bool("nohistory", false, "skip history recording and checks (pure throughput)")
	checks := flag.Int("checks", 4, "linearizability samples per key (atomic builds)")
	minInFlight := flag.Int64("min-inflight", 0, "fail unless peak in-flight concurrency reaches this")
	asJSON := flag.Bool("json", false, "print the result as JSON")
	out := flag.String("out", "", "also write the JSON result to this file")
	timeout := flag.Duration("timeout", 5*time.Minute, "hard run timeout")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *coded {
		*kind = string(runner.KindCoded)
	}
	cfg := loadgen.Config{
		Kind:         runner.Kind(*kind),
		F:            *f,
		N:            *n,
		Atomic:       *atomic,
		ValueSize:    *valueSize,
		Clients:      *clients,
		ReadFraction: *readFrac,
		Registers:    *registers,
		KeySpace:     *keyspace,
		Shards:       *shards,
		Engines:      *engines,
		Mode:         loadgen.Mode(*mode),
		Rate:         *rate,
		Duration:     *duration,
		MaxOps:       *maxOps,
		Lane:         runner.Lane(*lane),
		Seed:         *seed,
		NoHistory:    *noHistory,
		SampleChecks: *checks,
	}
	if *nodes != "" {
		cfg.NodeAddrs = strings.Split(*nodes, ",")
	}

	if *rates != "" {
		return runSweep(ctx, cfg, *rates, *asJSON, *out)
	}

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}

	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		printHuman(res)
	}

	if len(res.Violations) > 0 {
		return fmt.Errorf("%d consistency violations", len(res.Violations))
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d operations failed", res.Failed)
	}
	if *minInFlight > 0 && res.MaxInFlight < *minInFlight {
		return fmt.Errorf("peak in-flight %d below required %d", res.MaxInFlight, *minInFlight)
	}
	return nil
}

// Sweep is the JSON layout of a -rates run.
type Sweep struct {
	// Knee indexes Points: the last offered rate achieved within 95%
	// (-1 when none was).
	Knee   int               `json:"knee"`
	Points []*loadgen.Result `json:"points"`
}

func runSweep(ctx context.Context, cfg loadgen.Config, rates string, asJSON bool, out string) error {
	var parsed []float64
	for _, s := range strings.Split(rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || r <= 0 {
			return fmt.Errorf("bad rate %q in -rates", s)
		}
		parsed = append(parsed, r)
	}
	results, err := loadgen.RateSweep(ctx, cfg, parsed)
	if err != nil {
		return err
	}
	sweep := Sweep{Knee: loadgen.Knee(results), Points: results}
	if out != "" {
		if err := writeJSON(out, sweep); err != nil {
			return err
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sweep); err != nil {
			return err
		}
	} else {
		fmt.Printf("open-loop sweep: %s lane=%s shards=%d clients=%d\n",
			cfg.Kind, results[0].Lane, results[0].Shards, cfg.Clients)
		fmt.Println("offered ops/s | achieved ops/s | p50 | p99 | max")
		for i, r := range results {
			marker := ""
			if i == sweep.Knee {
				marker = "   <- knee"
			}
			fmt.Printf("%13.0f | %14.0f | %v | %v | %v%s\n",
				r.Rate, r.OpsPerSec,
				time.Duration(r.Latency.P50), time.Duration(r.Latency.P99),
				time.Duration(r.Latency.Max), marker)
		}
	}
	var violations, failed int64
	for _, r := range results {
		violations += int64(len(r.Violations))
		failed += r.Failed
	}
	if violations > 0 {
		return fmt.Errorf("%d consistency violations across the sweep", violations)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed across the sweep", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printHuman(res *loadgen.Result) {
	fmt.Printf("loadgen: %s lane=%s mode=%s atomic=%v k=%d f=%d n=%d\n",
		res.Kind, res.Lane, res.Mode, res.Atomic, res.K, res.F, res.N)
	fmt.Printf("clients=%d (w=%d r=%d) keys=%d shards=%d engines=%d duration=%.2fs\n",
		res.Clients, res.Writers, res.Readers, res.Registers, res.Shards, res.Engines, res.DurationSec)
	fmt.Printf("ops=%d (%.0f ops/sec) failed=%d peak-in-flight=%d\n",
		res.Ops, res.OpsPerSec, res.Failed, res.MaxInFlight)
	fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n",
		time.Duration(res.Latency.P50), time.Duration(res.Latency.P90),
		time.Duration(res.Latency.P99), time.Duration(res.Latency.Max))
	fmt.Printf("write latency: p50=%v p99=%v   read latency: p50=%v p99=%v\n",
		time.Duration(res.WriteLatency.P50), time.Duration(res.WriteLatency.P99),
		time.Duration(res.ReadLatency.P50), time.Duration(res.ReadLatency.P99))
	if len(res.PerShard) > 1 {
		for _, sh := range res.PerShard {
			fmt.Printf("  shard %d: keys=%d ops=%d p50=%v p99=%v\n",
				sh.Shard, sh.Keys, sh.Ops,
				time.Duration(sh.Latency.P50), time.Duration(sh.Latency.P99))
		}
	}
	if res.TotalBytes > 0 {
		fmt.Printf("space: value=%dB total=%dB per-server=%v\n",
			res.ValueSize, res.TotalBytes, res.BytesPerServer)
	}
	if res.Checked {
		fmt.Printf("checks: history=%d ops, sampled=%d, violations=%d\n",
			res.HistoryOps, res.SampledOps, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Println("VIOLATION:", v)
		}
	} else {
		fmt.Println("checks: skipped (no history)")
	}
}
