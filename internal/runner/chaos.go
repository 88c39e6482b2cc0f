package runner

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/seed"
	"repro/internal/spec"
	"repro/internal/types"
)

// Lane selects the fabric dispatch backend of a chaos run.
type Lane string

// The lane backends.
const (
	// LaneInProc is the default synchronous in-process lane.
	LaneInProc Lane = "inproc"
	// LaneLatency injects seeded per-op delay/jitter/straggler delivery
	// on every lane, composing real asynchrony with the chaos gate's
	// holds and releases.
	LaneLatency Lane = "latency"
	// LaneTCP dispatches over lanenet storage-node processes. Chaos runs
	// exercise it through ChaosConfig.LaneMaker (the caller dials the
	// nodes and hands the lanes in) because it needs endpoints; layers
	// that carry endpoints themselves (shardstore, loadgen) accept the
	// constant directly.
	LaneTCP Lane = "tcp"
)

// chaosLatencyProfile is the delay distribution of latency-lane chaos
// runs: enough jitter to reorder ops within a quorum round and an
// occasional straggler spike, small enough that a sweep stays fast.
var chaosLatencyProfile = fabric.LatencyProfile{
	Jitter:    150 * time.Microsecond,
	SpikeProb: 0.05,
	Spike:     500 * time.Microsecond,
}

// The chaos environment's two probabilities: each mutating op is held with
// chaosHoldProb (within the liveness budget), and between high-level ops
// each held op is released with chaosReleaseProb, so stale covering writes
// land late.
const chaosHoldProb, chaosReleaseProb = 0.5, 0.3

// Sub-stream indexes of a chaos run's seed. Every generator derives its
// seed as seed.Sub(cfg.Seed, stream): deriving them as Seed, Seed+1, ...
// made adjacent sweep seeds share entire streams (seed s's schedule
// generator was seed s+1's gate generator), so neighbouring sweep jobs
// explored correlated behaviour.
const (
	chaosStreamGate = iota
	chaosStreamSchedule
	chaosStreamLane
	chaosStreamChurn
)

// ChaosServers returns the server count the chaos experiments provision
// for a construction: Algorithm 2 spreads registers over n > 2f servers
// (7 gives it headroom at f=2), while the 2f+1 constructions place on
// servers 0..2f exactly.
func ChaosServers(kind Kind) int {
	if kind == KindRegEmu {
		return 7
	}
	return 5
}

// ChaosConfig configures a randomized-environment run.
type ChaosConfig struct {
	Kind    Kind
	K, F, N int
	// Ops is the number of high-level operations (random writer writes
	// interleaved with reads, one at a time so the run stays
	// write-sequential).
	Ops int
	// Seed drives the gate, the schedule, and (for the latency lane) the
	// delay distributions, through independent sub-streams.
	Seed int64
	// ResizeProb performs a random view transition between high-level ops
	// with this probability (default 0): a fabric.Resize — a member swap,
	// whose state transfer drains gate-held ops off the leaver, or a grow or
	// shrink, whose construction reshape re-derives the quorum geometry and
	// seeds it in the frozen window — so the run additionally exercises
	// view changes and transparent retries.
	ResizeProb float64
	// TransitionCrashProb crashes one frozen server inside each resize
	// transition with this probability, when the chaos gate's fault budget
	// has a unit left (adversary.Chaos.Crash):
	// the sealed-but-not-activated window of E28. The crashed transition
	// aborts cleanly and the run continues on the restored old view.
	TransitionCrashProb float64
	// Lane selects the dispatch backend (default LaneInProc).
	Lane Lane
	// LaneMaker, when set, overrides Lane with caller-built backends —
	// the TCP chaos suite dials real storage nodes and hands their lanes
	// in here.
	LaneMaker fabric.LaneMaker `json:"-"`
}

// laneOptions resolves a run's lane selection — caller-dialed backends first,
// then the named lane, its delays seeded from the run's seed — into fabric
// options.
func laneOptions(lane Lane, maker fabric.LaneMaker, runSeed int64) ([]fabric.Option, error) {
	if maker != nil {
		return []fabric.Option{fabric.WithLanes(maker)}, nil
	}
	switch lane {
	case "", LaneInProc:
		return nil, nil
	case LaneLatency:
		maker := fabric.LatencyLanes(seed.Sub(runSeed, chaosStreamLane), chaosLatencyProfile)
		return []fabric.Option{fabric.WithLanes(maker)}, nil
	case LaneTCP:
		return nil, fmt.Errorf("runner: lane %q needs endpoints; dial the nodes and set LaneMaker", lane)
	default:
		return nil, fmt.Errorf("runner: unknown lane %q", lane)
	}
}

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	Cfg      ChaosConfig
	Writes   int
	Reads    int
	Holds    int
	Releases int
	// Resizes counts committed transitions; Swaps how many of them were
	// member swaps, which transfer instead of reshaping, and Moved the
	// objects those swaps transferred. ResizeAborts counts transitions
	// rolled back by an in-window crash (not errors — the old view stayed
	// active); TransitionCrashes counts the crashes the run injected inside
	// transitions (honest budget: each is a real crash).
	Resizes           int
	Swaps             int
	Moved             int
	ResizeAborts      int
	TransitionCrashes int
	Checks            CheckResult
	// History is the recorded high-level history, for checks beyond the
	// write-sequential pair (the TCP chaos suite also runs the
	// linearizability checker over it).
	History *spec.History `json:"-"`
}

// RunChaos executes a write-sequential schedule under the seeded chaos
// environment: every mutating low-level op may be held (within the
// liveness budget), and held ops are randomly released between high-level
// operations — late stale writes included. On the latency lane the same
// schedule additionally faces seeded delivery delay, reordering, and
// stragglers. Sound constructions must pass both write-sequential checkers
// for every seed. The gate, schedule, and lane generators are independent
// sub-streams of cfg.Seed (see seed.Sub), so a sweep over adjacent seeds
// explores uncorrelated environments.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Ops <= 0 {
		return nil, fmt.Errorf("runner: chaos needs ops > 0")
	}
	laneOpts, err := laneOptions(cfg.Lane, cfg.LaneMaker, cfg.Seed)
	if err != nil {
		return nil, err
	}
	chaos := adversary.NewChaos(seed.Sub(cfg.Seed, chaosStreamGate), chaosHoldProb, cfg.F)
	gate := adversary.NewScript()
	gate.SetApplyRule(chaos.Hold)
	env, err := NewEnv(cfg.N, gate, laneOpts...)
	if err != nil {
		return nil, err
	}
	defer env.Fabric.Close()
	reg, hist, err := BuildWith(cfg.Kind, env.Fabric, cfg.K, cfg.F, BuildOpts{})
	if err != nil {
		return nil, err
	}

	schedule := rand.New(rand.NewSource(seed.Sub(cfg.Seed, chaosStreamSchedule)))
	churn := rand.New(rand.NewSource(seed.Sub(cfg.Seed, chaosStreamChurn)))
	var crasher *transitionCrasher
	if cfg.ResizeProb > 0 && cfg.TransitionCrashProb > 0 {
		crasher = &transitionCrasher{}
		crasher.install(env.Fabric, chaos)
	}
	values := NewValueGen()
	readers := []*emulation.Reader{reg.NewReader(), reg.NewReader()}
	rep := &ChaosReport{Cfg: cfg}
	for op := 0; op < cfg.Ops; op++ {
		if schedule.Float64() < 0.4 {
			rd := readers[schedule.Intn(len(readers))]
			if _, err := rd.Read(ctx); err != nil {
				return nil, abandoned(ctx, env, fmt.Sprintf("chaos op %d read", op), err)
			}
			rep.Reads++
		} else {
			i := schedule.Intn(cfg.K)
			w, err := reg.Writer(i)
			if err != nil {
				return nil, err
			}
			if err := w.Write(ctx, values.Next(types.ClientID(i))); err != nil {
				return nil, abandoned(ctx, env, fmt.Sprintf("chaos op %d write by %d", op, i), err)
			}
			rep.Writes++
		}
		rep.Releases += chaos.ReleaseSome(env.Fabric, chaosReleaseProb)
		if cfg.ResizeProb > 0 && churn.Float64() < cfg.ResizeProb {
			if err := churnResize(ctx, env, reg, churn, crasher, cfg.TransitionCrashProb, rep); err != nil {
				return nil, abandoned(ctx, env, fmt.Sprintf("chaos op %d resize", op), err)
			}
		}
	}
	rep.TransitionCrashes = chaos.Crashes()
	rep.Holds = gate.Held()
	rep.Checks = Check(hist)
	rep.History = hist
	return rep, nil
}

// abandoned is the error of a chaos step the run gave up on: the step's own
// error, then what the fabric held when it returned — the view stamp, the
// crashed servers and every pending low-level op (token, server, op, phase)
// — so a hang names what it waited for, not only its deadline.
func abandoned(ctx context.Context, env *Env, stage string, err error) error {
	var crashed []types.ServerID
	for id := types.ServerID(0); int(id) < env.Cluster.N(); id++ {
		if srv, err := env.Cluster.Server(id); err == nil && srv.Crashed() {
			crashed = append(crashed, id)
		}
	}
	pending := env.Fabric.Pending()
	var b strings.Builder
	fmt.Fprintf(&b, "view stamp %d, crashed servers %v, %d pending ops", env.Fabric.ViewStamp(), crashed, len(pending))
	for _, p := range pending {
		fmt.Fprintf(&b, "; token %d server %d %s %s", p.Event.Token, p.Event.Server, p.Event.Inv.Op, p.Phase)
	}
	return fmt.Errorf("%w [%s]", ctxErr(ctx, stage, err), b.String())
}

// ChaosSweepReport aggregates a chaos sweep across consecutive seeds.
type ChaosSweepReport struct {
	Kind Kind
	// Lane is the dispatch backend the sweep ran on.
	Lane Lane
	// Seeds is the number of seeds run, starting at the config's Seed.
	Seeds int
	// Workers is the pool size the sweep ran with.
	Workers int
	// Violating counts seeds whose run failed a write-sequential check.
	Violating int
	// FirstViolatingSeed is the lowest violating seed, or -1 when none.
	FirstViolatingSeed int64
	// Writes, Reads, Holds, and Releases are summed across all seeds.
	Writes, Reads, Holds, Releases int
	// Resizes, Swaps, Moved, ResizeAborts, and TransitionCrashes are summed
	// across all seeds (see ChaosReport).
	Resizes, Swaps, Moved, ResizeAborts, TransitionCrashes int
	// Elapsed is the sweep wall-clock time.
	Elapsed time.Duration
}

// RunChaosSweep fans RunChaos over seeds cfg.Seed .. cfg.Seed+seeds-1 on
// the Sweep engine: every seed is an independent job with its own
// environment, so the sweep is deterministic per seed and scales with the
// pool size.
func RunChaosSweep(ctx context.Context, cfg ChaosConfig, seeds, workers int) (*ChaosSweepReport, error) {
	if seeds < 0 {
		return nil, fmt.Errorf("runner: chaos sweep needs seeds >= 0, got %d", seeds)
	}
	workers = min(DefaultWorkers(workers), seeds)
	reports, elapsed, err := Sweep(ctx, workers, seeds,
		func(ctx context.Context, _, job int) (*ChaosReport, error) {
			c := cfg
			c.Seed = cfg.Seed + int64(job)
			return RunChaos(ctx, c)
		})
	if err != nil {
		return nil, err
	}
	lane := cfg.Lane
	if lane == "" {
		lane = LaneInProc
	}
	rep := &ChaosSweepReport{
		Kind: cfg.Kind, Lane: lane, Seeds: seeds, Workers: workers,
		FirstViolatingSeed: -1, Elapsed: elapsed,
	}
	for _, r := range reports {
		rep.Writes += r.Writes
		rep.Reads += r.Reads
		rep.Holds += r.Holds
		rep.Releases += r.Releases
		rep.Resizes += r.Resizes
		rep.Swaps += r.Swaps
		rep.Moved += r.Moved
		rep.ResizeAborts += r.ResizeAborts
		rep.TransitionCrashes += r.TransitionCrashes
		if !r.Checks.OK() {
			rep.Violating++
			if rep.FirstViolatingSeed == -1 {
				rep.FirstViolatingSeed = r.Cfg.Seed
			}
		}
	}
	return rep, nil
}
