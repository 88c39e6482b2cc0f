package runner

import (
	"testing"
)

// churnProb and churnSeeds pin the continuous-churn net: twice the resize
// net's transition rate, so a view change follows about every other
// high-level op and swaps, the common case under churn, land back to back
// with the chaos gate's holds and stale releases, over twice its seed
// range. Within it every sound construction stays clean and the naive
// baseline is caught (seeds 9, 24, 40 and 44 at the time of pinning).
const (
	churnProb  = 0.5
	churnSeeds = 48
)

// TestChurnChaosSoundConstructionsStaySafe runs the chaos net under
// continuous membership churn: between high-level ops, member swaps freeze
// the leaver, drain its gate-parked ops and transfer its objects onto the
// joiner, interleaved with grows and shrinks that reshape. Sound
// constructions must stay WS-safe and WS-regular on every seed, and the
// swaps must actually move objects.
func TestChurnChaosSoundConstructionsStaySafe(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range []Kind{KindRegEmu, KindABDMax, KindCASMax, KindAACMax} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			swaps, moved := 0, 0
			for seed := int64(0); seed < churnSeeds; seed++ {
				cfg := ChaosConfig{
					Kind: kind, K: 3, F: 2, N: ChaosServers(kind),
					Ops: 25, Seed: seed, ResizeProb: churnProb,
				}
				rep, err := RunChaos(ctx, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Checks.WSSafety != nil {
					t.Errorf("seed %d: WS-Safety: %v (swaps=%d)", seed, rep.Checks.WSSafety, rep.Swaps)
				}
				if rep.Checks.WSRegularity != nil {
					t.Errorf("seed %d: WS-Regularity: %v (swaps=%d)", seed, rep.Checks.WSRegularity, rep.Swaps)
				}
				swaps += rep.Swaps
				moved += rep.Moved
			}
			if swaps == 0 || moved == 0 {
				t.Errorf("churn made %d swaps moving %d objects — the net is vacuous", swaps, moved)
			}
		})
	}
}

// TestChurnChaosStillCatchesNaive guards the net's teeth: continuous churn
// must not blunt the detection of the under-provisioned baseline. Over the
// pinned seed range the naive construction must violate at least once.
func TestChurnChaosStillCatchesNaive(t *testing.T) {
	ctx := testCtx(t)
	var violating []int64
	for seed := int64(0); seed < churnSeeds; seed++ {
		rep, err := RunChaos(ctx, ChaosConfig{
			Kind: KindNaive, K: 3, F: 2, N: 5, Ops: 30, Seed: seed, ResizeProb: churnProb,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Checks.OK() {
			violating = append(violating, seed)
		}
	}
	if len(violating) == 0 {
		t.Fatalf("naive baseline survived all %d churn seeds — the net lost its teeth", churnSeeds)
	}
	t.Logf("naive baseline violated WS conditions in %d/%d churn seeds: %v", len(violating), churnSeeds, violating)
}

// TestChurnDeterministicPerSeed: transitions draw from their own churn
// sub-stream of the run seed, so the whole run — schedule, holds,
// releases, swaps and the objects they move — must replay identically.
func TestChurnDeterministicPerSeed(t *testing.T) {
	ctx := testCtx(t)
	cfg := ChaosConfig{
		Kind: KindABDMax, K: 3, F: 2, N: 5, Ops: 30, Seed: 3, ResizeProb: churnProb,
	}
	a, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Writes != b.Writes || a.Reads != b.Reads || a.Swaps != b.Swaps || a.Moved != b.Moved || a.Holds != b.Holds {
		t.Fatalf("same seed diverged: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d (writes/reads/swaps/moved/holds)",
			a.Writes, a.Reads, a.Swaps, a.Moved, a.Holds, b.Writes, b.Reads, b.Swaps, b.Moved, b.Holds)
	}
	if a.Swaps == 0 || a.Moved == 0 {
		t.Errorf("pinned seed made %d swaps moving %d objects, want both non-zero", a.Swaps, a.Moved)
	}
}
