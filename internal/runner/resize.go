package runner

import (
	"context"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/types"
)

// churnResize performs one random transition on a live run and books it
// on rep: a member swap (join one, leave one), which keeps n and f and so
// transfers the leaver's objects onto the joiner; a grow by one; or — when
// the view has slack above 2f+1 — a shrink by one. The grow and the shrink
// change n, so the construction's reshape re-derives the quorum geometry.
// The failure budget f is left unchanged; explicit f changes are exercised
// by the dedicated resize-under-load tests. An aborted transition (a
// concurrent crash won the race) is not an error: the old view stayed
// active and the run continues.
func churnResize(ctx context.Context, env *Env, reg emulation.Register, rng *rand.Rand, tc *transitionCrasher, crashProb float64, rep *ChaosReport) error {
	view := env.Cluster.View()
	var candidates []types.ServerID
	for _, id := range view.Members {
		srv, err := env.Cluster.Server(id)
		if err != nil || srv.Crashed() || srv.Departing() {
			continue
		}
		candidates = append(candidates, id)
	}
	if len(candidates) == 0 {
		return nil
	}
	var spec fabric.ResizeSpec
	switch choice := rng.Intn(3); {
	case choice == 0:
		spec.Join = []fabric.LaneMaker{nil}
		spec.Leave = []types.ServerID{candidates[rng.Intn(len(candidates))]}
	case choice == 1:
		spec.Join = []fabric.LaneMaker{nil}
	default:
		if len(candidates) <= 2*view.F+1 {
			return nil // no slack: a shrink would starve the quorums
		}
		spec.Leave = []types.ServerID{candidates[rng.Intn(len(candidates))]}
	}
	if tc != nil && rng.Float64() < crashProb {
		// Prefer crashing the leaver — the mid-drain no-escape regression —
		// else any frozen member of the reshaping transition.
		victim := candidates[rng.Intn(len(candidates))]
		if len(spec.Leave) > 0 {
			victim = spec.Leave[0]
		}
		tc.arm(victim)
		defer tc.disarm()
	}
	res, err := env.Fabric.Resize(ctx, spec, reg.Reshape)
	switch {
	case fabric.IsResizeAborted(err):
		rep.ResizeAborts++
		return nil
	case err != nil:
		return err
	}
	rep.Resizes++
	if len(spec.Join) == len(spec.Leave) {
		rep.Swaps++
		rep.Moved += res.Moved
	}
	return nil
}

// transitionCrasher arms the fabric's transition hooks to crash one frozen
// server (or a transfer target) inside the sealed-but-not-activated window,
// drawing the crash from the chaos gate's fault budget. It is armed per
// transition by the chaos loop — the loop is synchronous, so the hook draws
// race nothing — and disarms itself after firing once.
type transitionCrasher struct {
	armed  bool
	victim types.ServerID
}

// install wires the hooks once, before any transition starts (the hook
// fields are read unsynchronized).
func (tc *transitionCrasher) install(fab *fabric.Fabric, chaos *adversary.Chaos) {
	fab.HookTransition(
		func() { tc.fire(fab, chaos, tc.victim) },
		func(_ types.ObjectID, to types.ServerID) { tc.fire(fab, chaos, to) },
	)
}

// arm chooses the victim for the next transition: the hooks stay inert
// when not armed, so un-crashed transitions pay nothing.
func (tc *transitionCrasher) arm(victim types.ServerID) {
	tc.armed = true
	tc.victim = victim
}

func (tc *transitionCrasher) disarm() { tc.armed = false }

// fire crashes victim if armed and the budget allows it. A swap freezes only
// its leaver, so a client may still hold ops on the other members: the gate
// refuses the crash while it would leave that client's next round short of
// its quorum.
func (tc *transitionCrasher) fire(fab *fabric.Fabric, chaos *adversary.Chaos, victim types.ServerID) {
	if tc.armed && chaos.Crash(fab, victim) {
		tc.disarm()
	}
}
