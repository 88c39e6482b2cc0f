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
// within the fail-stop budget. It is armed per transition by the chaos
// loop — the loop is synchronous, so the hook draws race nothing — and
// disarms itself after firing once.
type transitionCrasher struct {
	env *Env
	f   int
	// chaos, when set, has its hold budget narrowed by one per crash: the
	// crash and the holds draw on the same fail-stop allowance of f, so
	// together they never leave a quorum round short of its n-f threshold
	// (fire checks the holds already granted).
	chaos  *adversary.Chaos
	armed  bool
	victim types.ServerID
	fired  int
}

// install wires the hooks once, before any transition starts (the hook
// fields are read unsynchronized).
func (tc *transitionCrasher) install() {
	tc.env.Fabric.HookTransition(
		func() { tc.fire(tc.victim) },
		func(_ types.ObjectID, to types.ServerID) { tc.fire(to) },
	)
}

// arm chooses the victim for the next transition: the hooks stay inert
// when not armed, so un-crashed transitions pay nothing.
func (tc *transitionCrasher) arm(victim types.ServerID) {
	tc.armed = true
	tc.victim = victim
}

func (tc *transitionCrasher) disarm() { tc.armed = false }

func (tc *transitionCrasher) fire(victim types.ServerID) {
	if !tc.armed {
		return
	}
	// A swap freezes only its leaver, so a client may still hold ops on
	// the other members: crash only while the crashes and the most ops one
	// client has held stay below f, or that client's next round waits for
	// a quorum that cannot form.
	if tc.env.Cluster.Crashes()+maxHeld(tc.env.Fabric.Pending()) >= tc.f {
		return // the fail-stop budget is spent; stay within the model
	}
	tc.armed = false
	if err := tc.env.Fabric.Crash(victim); err == nil {
		tc.fired++
		if tc.chaos != nil {
			tc.chaos.Narrow(1)
		}
	}
}

// maxHeld returns the most apply- or respond-held ops any one client has
// among pending.
func maxHeld(pending []fabric.PendingOp) int {
	held := make(map[types.ClientID]int)
	most := 0
	for _, op := range pending {
		if op.Phase == fabric.PhaseApply || op.Phase == fabric.PhaseRespond {
			held[op.Event.Client]++
			most = max(most, held[op.Event.Client])
		}
	}
	return most
}
