package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/types"
)

// TestChaosSoundConstructionsStaySafe drives every sound construction
// through randomized environments — holds, late stale releases, random
// schedules — and demands WS-Safety and WS-Regularity on every seed. This
// is the repository's broadest soundness net: Algorithm 2's cover-set
// machinery, the max-register monotonicity, the CAS loop, and the per-server
// k-register max all face the same adversary distribution.
func TestChaosSoundConstructionsStaySafe(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range []Kind{KindRegEmu, KindABDMax, KindCASMax, KindAACMax} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				cfg := ChaosConfig{
					Kind: kind, K: 3, F: 2, N: ChaosServers(kind),
					Ops: 30, Seed: seed,
				}
				rep, err := RunChaos(ctx, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Checks.WSSafety != nil {
					t.Errorf("seed %d: WS-Safety: %v (holds=%d releases=%d)",
						seed, rep.Checks.WSSafety, rep.Holds, rep.Releases)
				}
				if rep.Checks.WSRegularity != nil {
					t.Errorf("seed %d: WS-Regularity: %v (holds=%d releases=%d)",
						seed, rep.Checks.WSRegularity, rep.Holds, rep.Releases)
				}
			}
		})
	}
}

// TestChaosActuallyInterferes guards against a vacuous chaos net: across
// seeds, the gate must actually hold and release operations.
func TestChaosActuallyInterferes(t *testing.T) {
	ctx := testCtx(t)
	totalHolds, totalReleases := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		rep, err := RunChaos(ctx, ChaosConfig{
			Kind: KindRegEmu, K: 3, F: 2, N: 7, Ops: 25, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		totalHolds += rep.Holds
		totalReleases += rep.Releases
	}
	if totalHolds == 0 {
		t.Error("chaos gate never held an op — the net is vacuous")
	}
	if totalReleases == 0 {
		t.Error("chaos never released a held op — stale applies untested")
	}
}

// TestChaosNaiveBaselineReported runs the baseline under chaos; violations
// are possible (the construction is below the space bound) but not
// guaranteed by random schedules, so the test only demands the run
// completes and reports.
func TestChaosNaiveBaselineReported(t *testing.T) {
	ctx := testCtx(t)
	violations := 0
	for seed := int64(0); seed < 8; seed++ {
		rep, err := RunChaos(ctx, ChaosConfig{
			Kind: KindNaive, K: 3, F: 2, N: 5, Ops: 25, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Checks.OK() {
			violations++
		}
	}
	t.Logf("naive baseline violated WS conditions in %d/8 chaos seeds", violations)
}

// TestChaosSweepMatchesSerialRuns: the pooled seed sweep must aggregate
// exactly what a serial loop over the same seeds observes — chaos runs are
// deterministic per seed, and the pool must not change that.
func TestChaosSweepMatchesSerialRuns(t *testing.T) {
	ctx := testCtx(t)
	cfg := ChaosConfig{Kind: KindRegEmu, K: 3, F: 2, N: 7, Ops: 20, Seed: 40}
	const seeds = 6
	wantWrites, wantReads, wantHolds, wantReleases := 0, 0, 0, 0
	for s := int64(0); s < seeds; s++ {
		c := cfg
		c.Seed = cfg.Seed + s
		rep, err := RunChaos(ctx, c)
		if err != nil {
			t.Fatalf("seed %d: %v", c.Seed, err)
		}
		wantWrites += rep.Writes
		wantReads += rep.Reads
		wantHolds += rep.Holds
		wantReleases += rep.Releases
	}
	sweep, err := RunChaosSweep(ctx, cfg, seeds, 4)
	if err != nil {
		t.Fatalf("RunChaosSweep: %v", err)
	}
	got := fmt.Sprintf("%d/%d/%d/%d", sweep.Writes, sweep.Reads, sweep.Holds, sweep.Releases)
	want := fmt.Sprintf("%d/%d/%d/%d", wantWrites, wantReads, wantHolds, wantReleases)
	if got != want {
		t.Fatalf("sweep aggregates %s, serial runs %s", got, want)
	}
	if sweep.Violating != 0 || sweep.FirstViolatingSeed != -1 {
		t.Fatalf("sound construction reported violating seeds: %+v", sweep)
	}
	if sweep.Seeds != seeds || sweep.Workers != 4 {
		t.Fatalf("sweep bookkeeping off: %+v", sweep)
	}
}

// TestChaosValidatesConfig covers the config error path.
func TestChaosValidatesConfig(t *testing.T) {
	ctx := testCtx(t)
	if _, err := RunChaos(ctx, ChaosConfig{Kind: KindRegEmu, K: 1, F: 1, N: 3}); err == nil {
		t.Fatal("ops=0 accepted")
	}
}

// TestChaosPinnedSeedSchedule pins the exact op/hold/release counts of one
// seed under the splitmix sub-stream derivation (seed.Sub). The counts
// intentionally differ from the pre-derivation scheme, which seeded the
// schedule generator with Seed+1 and thereby made seed s's schedule stream
// identical to seed s+1's gate stream — adjacent sweep seeds explored
// correlated environments while counting as independent trials. If this
// test breaks, the chaos environment distribution changed: update the
// golden counts deliberately, never silently.
func TestChaosPinnedSeedSchedule(t *testing.T) {
	ctx := testCtx(t)
	rep, err := RunChaos(ctx, ChaosConfig{Kind: KindRegEmu, K: 3, F: 2, N: 7, Ops: 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("writes=%d reads=%d holds=%d releases=%d", rep.Writes, rep.Reads, rep.Holds, rep.Releases)
	const want = "writes=13 reads=7 holds=21 releases=16"
	if got != want {
		t.Fatalf("seed 99 schedule changed:\n got %s\nwant %s", got, want)
	}
}

// TestChaosLatencyLaneSweep runs the chaos sweep on the latency lane: the
// same gate adversary now composes with seeded delivery delay, reordering,
// and stragglers, and every sound construction must stay WS-Safe and
// WS-Regular. Counts are not pinned — completion order (and hence gate
// stream consumption) is genuinely timing-dependent on this lane.
func TestChaosLatencyLaneSweep(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range []Kind{KindRegEmu, KindCASMax} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			sweep, err := RunChaosSweep(ctx, ChaosConfig{
				Kind: kind, K: 3, F: 2, N: ChaosServers(kind), Ops: 15, Lane: LaneLatency,
			}, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			if sweep.Lane != LaneLatency {
				t.Fatalf("sweep lane = %q, want latency", sweep.Lane)
			}
			if sweep.Violating != 0 {
				t.Fatalf("latency-lane chaos found violations: %+v", sweep)
			}
			if sweep.Writes == 0 || sweep.Reads == 0 {
				t.Fatalf("vacuous sweep: %+v", sweep)
			}
		})
	}
}

// TestChaosRejectsUnknownLane covers the lane validation path.
func TestChaosRejectsUnknownLane(t *testing.T) {
	ctx := testCtx(t)
	if _, err := RunChaos(ctx, ChaosConfig{Kind: KindRegEmu, K: 1, F: 1, N: 3, Ops: 1, Lane: "warp"}); err == nil {
		t.Fatal("unknown lane accepted")
	}
}

// TestChaosDeterministicPerSeed re-runs one seed and demands identical
// hold/release/op counts: experiments must be reproducible.
func TestChaosDeterministicPerSeed(t *testing.T) {
	ctx := testCtx(t)
	cfg := ChaosConfig{Kind: KindRegEmu, K: 3, F: 2, N: 7, Ops: 20, Seed: 99}
	a, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%d/%d/%d/%d", a.Writes, a.Reads, a.Holds, a.Releases),
		fmt.Sprintf("%d/%d/%d/%d", b.Writes, b.Reads, b.Holds, b.Releases); got != want {
		t.Fatalf("same seed diverged: %s vs %s", got, want)
	}
}

// silentLane accepts every op and never answers, like a server that stopped
// responding without crashing.
type silentLane struct{}

func (silentLane) Deliver(fabric.TriggerEvent, fabric.ApplyFunc, fabric.CompleteFunc) {}
func (silentLane) Close() error                                                       { return nil }

// TestChaosAbandonedOpNamesPendingOps silences f+1 of the 2f+1 servers, so
// the run's first op can never gather a quorum and is abandoned at its
// context's deadline: the error must say so and name what the op waited on
// — its pending ops on the silent servers, with token, op and phase — the
// crashed servers (none) and the view stamp.
func TestChaosAbandonedOpNamesPendingOps(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	maker := func(id types.ServerID) fabric.Lane {
		if id <= 1 {
			return silentLane{}
		}
		return fabric.InProcLane{}
	}
	_, err := RunChaos(ctx, ChaosConfig{Kind: KindABDMax, K: 2, F: 1, N: 3, Ops: 5, Seed: 1, LaneMaker: maker})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunChaos = %v, want the op abandoned at the deadline", err)
	}
	msg := err.Error()
	for _, want := range []string{"chaos op 0", "view stamp", "crashed servers []", "server 0 ", "server 1 ", "token ", "in-flight"} {
		if !strings.Contains(msg, want) {
			t.Errorf("abandoned-op error lacks %q:\n%s", want, msg)
		}
	}
	t.Log(msg)
}
