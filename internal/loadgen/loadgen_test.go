package loadgen

import (
	"context"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/runner"
)

// testProfile keeps test runs fast while still exercising asynchronous
// completion.
var testProfile = fabric.LatencyProfile{Base: 500 * time.Microsecond, Jitter: 500 * time.Microsecond}

// TestClosedLoopInProc is the smallest end-to-end run: closed loop on the
// synchronous lane, atomic build, every check green.
func TestClosedLoopInProc(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Kind:         runner.KindABDMax,
		Atomic:       true,
		Clients:      16,
		ReadFraction: 0.5,
		Duration:     time.Second,
		MaxOps:       3000,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 3000 {
		t.Fatalf("ops = %d, want >= 3000 (MaxOps-bounded run)", res.Ops)
	}
	if res.Failed != 0 {
		t.Fatalf("failed ops: %d", res.Failed)
	}
	if !res.Checked || len(res.Violations) != 0 {
		t.Fatalf("checks: checked=%v violations=%v", res.Checked, res.Violations)
	}
	if res.SampledOps == 0 {
		t.Fatal("atomic run sampled no ops for linearizability")
	}
	if res.Latency.N != res.Ops {
		t.Fatalf("latency histogram has %d samples for %d ops", res.Latency.N, res.Ops)
	}
	if res.WriteLatency.N+res.ReadLatency.N != res.Ops {
		t.Fatalf("per-kind histograms (%d + %d) do not cover %d ops",
			res.WriteLatency.N, res.ReadLatency.N, res.Ops)
	}
}

// TestClosedLoopConcurrency checks the subsystem's headline property on the
// latency lane: in-flight concurrency equals the client population.
func TestClosedLoopConcurrency(t *testing.T) {
	const clients = 120
	profile := fabric.LatencyProfile{Base: 2 * time.Millisecond, Jitter: time.Millisecond}
	res, err := Run(context.Background(), Config{
		Kind:         runner.KindABDMax,
		Atomic:       true,
		Clients:      clients,
		ReadFraction: 0.5,
		Lane:         runner.LaneLatency,
		Profile:      &profile,
		Duration:     400 * time.Millisecond,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxInFlight < clients*9/10 {
		t.Fatalf("peak in-flight = %d, want ~%d (closed loop)", res.MaxInFlight, clients)
	}
	if res.Failed != 0 || len(res.Violations) != 0 {
		t.Fatalf("failed=%d violations=%v", res.Failed, res.Violations)
	}
	if res.Latency.P50 < time.Millisecond.Nanoseconds() {
		t.Fatalf("p50 latency %v below the lane's base delay", time.Duration(res.Latency.P50))
	}
}

// TestOpenLoop paces arrivals at a fixed rate and checks the measured
// throughput tracks it.
func TestOpenLoop(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Kind:         runner.KindRegEmu,
		Clients:      32,
		ReadFraction: 0.5,
		Mode:         ModeOpen,
		Rate:         2000,
		Lane:         runner.LaneLatency,
		Profile:      &testProfile,
		Duration:     500 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Loose bounds: the pacer must neither stall nor run away.
	if res.Ops < 300 {
		t.Fatalf("open loop completed only %d ops at rate 2000 over 500ms", res.Ops)
	}
	if res.OpsPerSec > 4000 {
		t.Fatalf("open loop overshot: %.0f ops/sec at rate 2000", res.OpsPerSec)
	}
	if res.Failed != 0 || len(res.Violations) != 0 {
		t.Fatalf("failed=%d violations=%v", res.Failed, res.Violations)
	}
}

// TestRegisterSharding spreads clients over a key-space of registers.
func TestRegisterSharding(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Kind:         runner.KindCASMax,
		Atomic:       true,
		Clients:      24,
		ReadFraction: 0.5,
		Registers:    4,
		Duration:     time.Second,
		MaxOps:       2000,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Registers != 4 {
		t.Fatalf("registers = %d", res.Registers)
	}
	if res.Ops < 2000 || res.Failed != 0 || len(res.Violations) != 0 {
		t.Fatalf("ops=%d failed=%d violations=%v", res.Ops, res.Failed, res.Violations)
	}
	if res.HistoryOps < int(res.Ops) {
		t.Fatalf("histories recorded %d ops for %d completed", res.HistoryOps, res.Ops)
	}
}

// TestShardedRun spreads the key-space over several shards and engines:
// every shard must carry load, the per-shard breakdown must tile the
// totals, and the cross-shard histories must stay clean. MaxOps must span
// many scheduler quanta: on the in-process lane a busy engine loop burns
// ~3000 ops per ~10ms time slice without yielding, so a budget that small
// can be spent entirely by one engine's keys before the other engine runs
// at all on a single-CPU machine, leaving its shards unrecorded.
func TestShardedRun(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Kind:         runner.KindABDMax,
		Atomic:       true,
		Clients:      24,
		ReadFraction: 0.5,
		Registers:    6,
		Shards:       3,
		Engines:      2,
		Duration:     2 * time.Second,
		MaxOps:       60000,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 3 || res.Engines != 2 || len(res.PerShard) != 3 {
		t.Fatalf("shards=%d engines=%d per-shard=%d", res.Shards, res.Engines, len(res.PerShard))
	}
	var ops, n int64
	for _, sh := range res.PerShard {
		if sh.Ops == 0 || sh.Keys == 0 {
			t.Fatalf("shard %d idle: %+v", sh.Shard, sh)
		}
		ops += sh.Ops
		n += sh.Latency.N
	}
	if ops != res.Ops || n != res.Latency.N {
		t.Fatalf("per-shard ops %d / samples %d do not tile totals %d / %d", ops, n, res.Ops, res.Latency.N)
	}
	if res.Failed != 0 || len(res.Violations) != 0 {
		t.Fatalf("failed=%d violations=%v", res.Failed, res.Violations)
	}
}

// TestOpenLoopCoordinatedOmission overloads a slow lane far past its
// capacity: with intended-send-time stamping the measured tail must carry
// the backlog's wait (far above the lane's service time), which issue-time
// stamping would have silently omitted.
func TestOpenLoopCoordinatedOmission(t *testing.T) {
	base := time.Millisecond
	profile := fabric.LatencyProfile{Base: base, Jitter: 100 * time.Microsecond}
	res, err := Run(context.Background(), Config{
		Kind:         runner.KindABDMax,
		Clients:      4,
		ReadFraction: 0.5,
		Mode:         ModeOpen,
		Rate:         10_000, // capacity is ~clients/base = ~4k ops/sec
		Lane:         runner.LaneLatency,
		Profile:      &profile,
		Duration:     250 * time.Millisecond,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("overloaded run completed nothing")
	}
	if p99 := time.Duration(res.Latency.P99); p99 < 10*base {
		t.Fatalf("overload p99 = %v, want >> service time %v: backlog wait omitted", p99, base)
	}
	if res.Failed != 0 || len(res.Violations) != 0 {
		t.Fatalf("failed=%d violations=%v", res.Failed, res.Violations)
	}
}

// TestRateSweepKnee sweeps a sustained and a saturating offered rate and
// checks Knee lands on the sustained one. Each point's window closes on
// its 1,000th completion: the ops still in flight when it closes are not
// counted, a shortfall of one op latency's worth of the offered rate, so
// the sustained point spans a second — a 10 ms scheduler lag on a loaded
// machine costs it 1 %, not the 5 % it cost a 200 ms window — while the
// saturating point still closes after a fifth of a second.
func TestRateSweepKnee(t *testing.T) {
	profile := fabric.LatencyProfile{Base: 500 * time.Microsecond, Jitter: 100 * time.Microsecond}
	results, err := RateSweep(context.Background(), Config{
		Kind:         runner.KindABDMax,
		Clients:      8,
		ReadFraction: 0.5,
		Lane:         runner.LaneLatency,
		Profile:      &profile,
		Duration:     5 * time.Second,
		MaxOps:       1000,
		Seed:         8,
	}, []float64{1000, 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("sweep returned %d points", len(results))
	}
	if results[0].OpsPerSec < 950 {
		t.Fatalf("sustained point achieved %.0f of 1000 offered", results[0].OpsPerSec)
	}
	if results[1].OpsPerSec >= 0.95*100_000 {
		t.Fatalf("saturating point achieved %.0f of 100000 offered on 8 clients", results[1].OpsPerSec)
	}
	if k := Knee(results); k != 0 {
		t.Fatalf("knee = %d, want 0", k)
	}
	if k := Knee(nil); k != -1 {
		t.Fatalf("knee of empty sweep = %d, want -1", k)
	}
}

// TestNoHistoryMode skips recording and checking.
func TestNoHistoryMode(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Kind:      runner.KindNaive,
		Clients:   8,
		Duration:  time.Second,
		MaxOps:    500,
		NoHistory: true,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked || res.HistoryOps != 0 {
		t.Fatalf("no-history run recorded: checked=%v historyOps=%d", res.Checked, res.HistoryOps)
	}
	if res.Ops < 500 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

// TestConfigValidation rejects malformed configs.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Kind: runner.KindABDMax, Clients: 0},
		{Kind: runner.KindABDMax, Clients: 4, Registers: 8},
		{Kind: runner.KindABDMax, Clients: 4, ReadFraction: 1.5},
		{Kind: runner.KindABDMax, Clients: 4, Mode: ModeOpen},
		{Kind: runner.KindABDMax, Clients: 4, Lane: "bogus"},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestCodedSpaceAxis runs the coded construction through the full load path
// and checks the space axis: every touched server stores strictly less than
// a replicated copy per register, and a matched replicated run stores more
// in total.
func TestCodedSpaceAxis(t *testing.T) {
	const size = 4096
	coded, err := Run(context.Background(), Config{
		Kind:         runner.KindCoded,
		ValueSize:    size,
		Clients:      8,
		ReadFraction: 0.5,
		Registers:    2,
		Duration:     time.Second,
		MaxOps:       400,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coded.Failed != 0 || len(coded.Violations) != 0 {
		t.Fatalf("coded run: failed=%d violations=%v", coded.Failed, coded.Violations)
	}
	if coded.N != 5 {
		t.Fatalf("coded N = %d, want the chaos default 5", coded.N)
	}
	if coded.ValueSize != size {
		t.Fatalf("result value size = %d, want %d", coded.ValueSize, size)
	}
	if coded.TotalBytes == 0 {
		t.Fatal("coded run stored no bytes")
	}
	// Two registers, each fragment is ceil(size/3) rounded into the coder:
	// no server may hold two full copies.
	for s, b := range coded.BytesPerServer {
		if b >= 2*size {
			t.Errorf("server %d stores %d bytes, not less than %d (replication)", s, b, 2*size)
		}
	}

	replicated, err := Run(context.Background(), Config{
		Kind:         runner.KindABDMax,
		ValueSize:    size,
		Clients:      8,
		ReadFraction: 0.5,
		Registers:    2,
		Duration:     time.Second,
		MaxOps:       400,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replicated.TotalBytes <= coded.TotalBytes {
		t.Errorf("replicated stores %d bytes, coded %d: striping should win",
			replicated.TotalBytes, coded.TotalBytes)
	}
}
