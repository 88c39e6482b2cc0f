package runner

import (
	"context"
	"fmt"

	"repro/internal/types"
)

// AttackReport is the outcome of the stale-release attack (experiment E6),
// the operational core of the Theorem 1 separation: the run of Lemma 4 /
// Figure 2 in which a covering write, released after a newer write
// completed, erases it on a plain register but not on a max-register or
// CAS.
type AttackReport struct {
	Kind Kind
	F, N int
	// FirstValue/SecondValue are the two written values; ReadValue is
	// what the post-attack read returned and WantValue what WS-Safety
	// demands (the second value).
	FirstValue  types.Value
	SecondValue types.Value
	ReadValue   types.Value
	WantValue   types.Value
	// ReleasedOps is how many held covering writes were released between
	// the second write and the read.
	ReleasedOps int
	// SafetyViolation is the WS-Safety checker verdict: non-nil exactly
	// when the construction is broken by the attack.
	SafetyViolation error
}

// Violated reports whether the attack broke the construction.
func (r *AttackReport) Violated() bool { return r.SafetyViolation != nil }

// The stale-release attack's two written values.
const attackV1, attackV2 = 101, 202

// StaleReleaseScript is the adversarial schedule of Lemma 4 against kind on
// n = 2f+1 servers with k = 2 writers:
//
//  1. Writer 0 writes v1; its mutating op on server 0 is held before taking
//     effect. The write still completes from the other 2f servers.
//  2. Writer 1 writes v2; its mutating ops on servers 1..f are held. The
//     write completes from server 0 and servers f+1..2f (n-f responses).
//  3. The environment releases writer 0's held op: on a plain register it
//     NOW takes effect and erases v2 on server 0; on a max-register or CAS
//     it is a no-op because a larger value is present.
//  4. A reader runs; responses from servers f+1..2f (the only remaining
//     holders of v2 for the naive construction) are delayed, so its quorum
//     is servers 0..f.
//
// Only KindNaive is expected to violate WS-Safety.
func StaleReleaseScript(kind Kind, f int) *Script {
	writer0 := 0
	held, delayed := make([]int, f), make([]int, f)
	for i := range f {
		held[i], delayed[i] = 1+i, f+1+i
	}
	return &Script{
		Name: "stale-release-" + string(kind), Kind: kind, K: 2, F: f, N: 2*f + 1,
		ExpectSafetyViolation: kind == KindNaive,
		Steps: []Step{
			holdWrites(0, []int{0}, 0), writeStep(0, attackV1), clearStep,
			holdWrites(1, held, 0), writeStep(1, attackV2), clearStep,
			{Release: &ReleaseStep{Client: &writer0}},
			delayReads(delayed...), readStep,
		},
	}
}

// RunStaleReleaseAttack runs StaleReleaseScript(kind, f). For KindNaive the
// read returns the stale v1 and WS-Safety is violated; for KindABDMax and
// KindCASMax the identical schedule is harmless.
func RunStaleReleaseAttack(ctx context.Context, kind Kind, f int) (*AttackReport, error) {
	switch kind {
	case KindNaive, KindABDMax, KindCASMax:
	default:
		return nil, fmt.Errorf("runner: stale-release attack targets per-server single-object constructions, not %q", kind)
	}
	s := StaleReleaseScript(kind, f)
	res, err := RunScript(ctx, s)
	if err != nil {
		return nil, err
	}
	return &AttackReport{
		Kind:            kind,
		F:               f,
		N:               s.N,
		FirstValue:      attackV1,
		SecondValue:     attackV2,
		ReadValue:       res.Reads[0],
		WantValue:       attackV2,
		ReleasedOps:     res.Released,
		SafetyViolation: res.Checks.WSSafety,
	}, nil
}

// SeparationReport contrasts the attack outcome across constructions
// (experiment E6): under the identical adversarial schedule, only the
// under-provisioned register construction fails.
type SeparationReport struct {
	F       int
	Reports []*AttackReport
}

// RunSeparation runs the stale-release attack against the naive register
// baseline, the max-register construction, and the CAS construction.
func RunSeparation(ctx context.Context, f int) (*SeparationReport, error) {
	rep := &SeparationReport{F: f}
	for _, kind := range []Kind{KindNaive, KindABDMax, KindCASMax} {
		r, err := RunStaleReleaseAttack(ctx, kind, f)
		if err != nil {
			return nil, fmt.Errorf("runner: separation attack on %s: %w", kind, err)
		}
		rep.Reports = append(rep.Reports, r)
	}
	return rep, nil
}
