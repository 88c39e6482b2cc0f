package runner

import (
	"sync/atomic"
	"testing"

	"repro/internal/adversary"
	"repro/internal/fabric"
	"repro/internal/types"
)

// resizeSeeds is the pinned seed range of the resize chaos net
// (EXPERIMENTS.md E27 and E28 use the same range): within it every sound
// construction stays clean and the naive baseline is caught.
const resizeSeeds = 24

// soundKinds are the constructions the resize nets hold to WS-Safety and
// WS-Regularity: every construction reshapes, and naive, the one that is
// unsound by design, has a net of its own (TestResizeChurnStillCatchesNaive).
var soundKinds = []Kind{KindABDMax, KindCASMax, KindAACMax, KindCoded, KindRegEmu}

// TestResizeChurnSoundConstructionsStaySafe is the E27 net: between
// high-level ops, random view transitions fire, each one epoch bump —
// member swaps, which freeze the leaver and transfer its objects onto the
// joiner, and grows and shrinks, whose construction reshape seeds the
// re-derived quorum geometry inside the frozen window — while the chaos
// gate's holds and stale releases keep landing. Sound constructions must
// stay WS-safe and WS-regular on every pinned seed, and both kinds of
// transition must actually commit, the swaps moving objects.
func TestResizeChurnSoundConstructionsStaySafe(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range soundKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			resizes, swaps, moved := 0, 0, 0
			for seed := int64(0); seed < resizeSeeds; seed++ {
				cfg := ChaosConfig{
					Kind: kind, K: 3, F: 2, N: ChaosServers(kind),
					Ops: 25, Seed: seed, ResizeProb: 0.25,
				}
				rep, err := RunChaos(ctx, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Checks.WSSafety != nil {
					t.Errorf("seed %d: WS-Safety: %v (resizes=%d)", seed, rep.Checks.WSSafety, rep.Resizes)
				}
				if rep.Checks.WSRegularity != nil {
					t.Errorf("seed %d: WS-Regularity: %v (resizes=%d)", seed, rep.Checks.WSRegularity, rep.Resizes)
				}
				resizes += rep.Resizes
				swaps += rep.Swaps
				moved += rep.Moved
			}
			if swaps == 0 || moved == 0 {
				t.Errorf("%d swaps moved %d objects — the transfer path is vacuous", swaps, moved)
			}
			if resizes == swaps {
				t.Errorf("all %d committed transitions were swaps — the reshape path is vacuous", resizes)
			}
		})
	}
}

// TestResizeChurnStillCatchesNaive guards the net's teeth: batched
// transitions must not blunt the detection of the under-provisioned
// baseline — its reshape faithfully re-places one register per server, so
// the covering hole survives every resize. Over the pinned seed range the
// naive construction must violate at least once.
func TestResizeChurnStillCatchesNaive(t *testing.T) {
	ctx := testCtx(t)
	var violating []int64
	for seed := int64(0); seed < resizeSeeds; seed++ {
		rep, err := RunChaos(ctx, ChaosConfig{
			Kind: KindNaive, K: 3, F: 2, N: 5, Ops: 30, Seed: seed, ResizeProb: 0.25,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Checks.OK() {
			violating = append(violating, seed)
		}
	}
	if len(violating) == 0 {
		t.Fatalf("naive baseline survived all %d resize seeds — the net lost its teeth", resizeSeeds)
	}
	t.Logf("naive baseline violated WS conditions in %d/%d resize seeds: %v", len(violating), resizeSeeds, violating)
}

// TestResizeChurnDeterministicPerSeed: resize draws come from the same
// churn sub-stream of the run seed, so the whole run — schedule, holds,
// releases, transitions, and aborts — must replay identically.
func TestResizeChurnDeterministicPerSeed(t *testing.T) {
	ctx := testCtx(t)
	cfg := ChaosConfig{
		Kind: KindABDMax, K: 3, F: 2, N: 5, Ops: 30, Seed: 5, ResizeProb: 0.3,
	}
	a, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Writes != b.Writes || a.Reads != b.Reads || a.Resizes != b.Resizes || a.Moved != b.Moved || a.Holds != b.Holds {
		t.Fatalf("same seed diverged: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d (writes/reads/resizes/moved/holds)",
			a.Writes, a.Reads, a.Resizes, a.Moved, a.Holds, b.Writes, b.Reads, b.Resizes, b.Moved, b.Holds)
	}
	if a.Resizes == 0 || a.Moved == 0 {
		t.Errorf("pinned seed committed %d transitions moving %d objects, want both non-zero", a.Resizes, a.Moved)
	}
}

// TestTransitionCrashChaos is the E28 matrix: every resize transition may
// lose one frozen server inside the sealed-but-not-activated window — after
// the freeze, or as a transfer target mid-move — when the chaos gate's one
// fault budget allows it (crashes plus the most holds one writer has booked
// stay within f, so no quorum round starves). Crashed transitions must abort
// cleanly back onto the old view, later transitions and client ops must
// keep completing, and the histories must stay clean on every pinned seed,
// on both the in-process and the latency lane. Each cell has its own
// context, so a hang fails that cell alone, with the pending ops it waited
// on named (RunChaos's abandoned-op error), and leaves the next cell its
// whole budget.
func TestTransitionCrashChaos(t *testing.T) {
	for _, lane := range []Lane{LaneInProc, LaneLatency} {
		lane := lane
		t.Run(string(lane), func(t *testing.T) {
			for _, kind := range soundKinds {
				kind := kind
				t.Run(string(kind), func(t *testing.T) {
					ctx := testCtx(t)
					resizes, aborts, crashes := 0, 0, 0
					for seed := int64(0); seed < resizeSeeds; seed++ {
						cfg := ChaosConfig{
							Kind: kind, K: 3, F: 2, N: ChaosServers(kind),
							Ops: 25, Seed: seed, Lane: lane,
							ResizeProb: 0.3, TransitionCrashProb: 0.5,
						}
						rep, err := RunChaos(ctx, cfg)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if !rep.Checks.OK() {
							t.Errorf("seed %d: WS checks failed: safety=%v regularity=%v (crashes=%d aborts=%d)",
								seed, rep.Checks.WSSafety, rep.Checks.WSRegularity, rep.TransitionCrashes, rep.ResizeAborts)
						}
						resizes += rep.Resizes
						aborts += rep.ResizeAborts
						crashes += rep.TransitionCrashes
					}
					if crashes == 0 {
						t.Error("no transition ever lost a server — the matrix is vacuous")
					}
					if aborts == 0 {
						t.Error("no transition ever aborted — the crash window was never hit")
					}
					if resizes == 0 {
						t.Error("no transition ever committed — the net only measures aborts")
					}
					t.Logf("%s/%s: %d committed, %d aborted, %d transition crashes over %d seeds",
						lane, kind, resizes, aborts, crashes, resizeSeeds)
				})
			}
		})
	}
}

// TestTransitionCrashCountsUnparkedHold pins the window of the hang where a
// transition crash and a hold together overdrew the fault budget: the gate
// grants a hold, and before the fabric parks the op — Pending still lists it
// in flight — the transition crasher fires. With f = 2 and one server
// already crashed, a second crash would leave crashes plus holds at 3 > f,
// and the held write's quorum of n − f = 3 could never form (server 0
// crashed, server 1 held, server 4 crashed). The hold is booked in the same
// budget the crash draws on, so the crash is refused and the write
// completes.
func TestTransitionCrashCountsUnparkedHold(t *testing.T) {
	const f, victim = 2, types.ServerID(4)
	chaos := adversary.NewChaos(1, 1, f) // hold every op the budget allows
	gate := adversary.NewScript()
	env, err := NewEnv(5, gate)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Fabric.Close()
	reg, _, err := BuildWith(KindABDMax, env.Fabric, 1, f, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !chaos.Crash(env.Fabric, 0) {
		t.Fatal("the first crash was refused")
	}
	tc := &transitionCrasher{}
	tc.arm(victim)
	var fired atomic.Bool
	gate.SetApplyRule(func(ev fabric.TriggerEvent) bool {
		if !chaos.Hold(ev) {
			return false
		}
		if ev.Server != victim && fired.CompareAndSwap(false, true) {
			tc.fire(env.Fabric, chaos, victim)
		}
		return true
	})
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(testCtx(t), NewValueGen().Next(0)); err != nil {
		t.Fatalf("write: %v (crashes %d of f = %d)", err, env.Cluster.Crashes(), f)
	}
	if !fired.Load() {
		t.Fatal("no hold was granted: the crasher never fired")
	}
	if got := env.Cluster.Crashes(); got != 1 {
		t.Fatalf("Crashes = %d, want 1: the crash overdrew the budget", got)
	}
}
