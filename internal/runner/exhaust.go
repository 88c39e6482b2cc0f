package runner

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"
)

// This file implements a bounded exhaustive search over the f-bounded
// adversary class of Lemma 4: for a two-writer configuration on n = 2f+1
// servers it enumerates EVERY schedule of the form
//
//	write(v1) by c0 with up to f covering holds, one per chosen server
//	write(v2) by c1 with up to f covering holds, one per chosen server
//	release any subset of each writer's held covering writes
//	read with responses from up to f chosen servers delayed
//
// and checks WS-Safety on each resulting history. This is the complete
// space of environment behaviours the paper's separation argument draws
// from (up to symmetry), so "0 violations" is a bounded model-checking
// result, not a sample: the construction defeats every schedule in the
// class. The under-provisioned baseline must, conversely, have violating
// schedules — the lower bound made exhaustive.
//
// Symmetry reduction keeps the space tractable: all releases happen after
// both writes and before the read, so only the final per-object state they
// leave matters. Two releases commute unless they target the same base
// object, which (across all five constructions) can only happen for
// releases by *different* writers landing on the *same* server. The
// enumerator therefore fixes a canonical server order for releases and
// explores both orders only at those collision points (the w1First set),
// instead of all release permutations. At f=1 this yields 208 schedules
// covering the same class the previous 320-point enumeration sampled with
// redundancy (no-op releases of never-held ops, order flips on disjoint
// objects).

// exhaustSchedule is one point of the schedule space. Server sets are
// ascending slices.
type exhaustSchedule struct {
	// holds[i] lists the servers on which writer i's first mutating op is
	// held pre-apply (at most f servers, one held op each).
	holds [2][]int
	// releases[i] is the subset of holds[i] whose held ops are released
	// after the second write completes.
	releases [2][]int
	// w1First lists the servers in releases[0] ∩ releases[1] where writer
	// 1's stale release is applied before writer 0's; elsewhere writer 0's
	// goes first.
	w1First []int
	// delayRead lists the servers whose read responses to the reader are
	// held (at most f).
	delayRead []int
}

// String implements fmt.Stringer for violation reports.
func (s exhaustSchedule) String() string {
	return fmt.Sprintf("hold0=%s hold1=%s rel0=%s rel1=%s w1first=%s delayRead=%s",
		fmtServers(s.holds[0]), fmtServers(s.holds[1]),
		fmtServers(s.releases[0]), fmtServers(s.releases[1]),
		fmtServers(s.w1First), fmtServers(s.delayRead))
}

// fmtServers renders a server set as "s0+s2", or "-" when empty.
func fmtServers(set []int) string {
	if len(set) == 0 {
		return "-"
	}
	parts := make([]string, len(set))
	for i, s := range set {
		parts[i] = fmt.Sprintf("s%d", s)
	}
	return strings.Join(parts, "+")
}

// serversOf expands a bitmask over n servers into an ascending slice.
func serversOf(mask int) []int {
	if mask == 0 {
		return nil
	}
	set := make([]int, 0, bits.OnesCount(uint(mask)))
	for s := 0; mask != 0; s, mask = s+1, mask>>1 {
		if mask&1 != 0 {
			set = append(set, s)
		}
	}
	return set
}

// capMasks lists every bitmask over n servers with at most f bits set —
// the legal hold sets and read-delay sets of the f-bounded adversary.
func capMasks(n, f int) []int {
	var out []int
	for mask := 0; mask < 1<<uint(n); mask++ {
		if bits.OnesCount(uint(mask)) <= f {
			out = append(out, mask)
		}
	}
	return out
}

// enumerateExhaust materializes the complete f-bounded schedule class over
// n servers, reduced by release-commutation symmetry as described in the
// file comment. The enumeration order is deterministic, so schedule
// indices are stable across runs and worker counts.
func enumerateExhaust(f, n int) []exhaustSchedule {
	caps := capMasks(n, f)
	var out []exhaustSchedule
	for _, h0 := range caps {
		for _, h1 := range caps {
			// Iterate every submask r of h (including 0 and h itself).
			for r0 := h0; ; r0 = (r0 - 1) & h0 {
				for r1 := h1; ; r1 = (r1 - 1) & h1 {
					shared := r0 & r1
					for w1f := shared; ; w1f = (w1f - 1) & shared {
						for _, d := range caps {
							out = append(out, exhaustSchedule{
								holds:     [2][]int{serversOf(h0), serversOf(h1)},
								releases:  [2][]int{serversOf(r0), serversOf(r1)},
								w1First:   serversOf(w1f),
								delayRead: serversOf(d),
							})
						}
						if w1f == 0 {
							break
						}
					}
					if r1 == 0 {
						break
					}
				}
				if r0 == 0 {
					break
				}
			}
		}
	}
	return out
}

// ExhaustOptions configures the exhaustive sweep.
type ExhaustOptions struct {
	// F is the adversary budget: covering holds per write and delayed
	// servers during the read. Supported: 1 (default) and 2; the cluster
	// has n = 2f+1 servers.
	F int
	// Workers is the sweep pool size; <= 0 means one per CPU.
	Workers int
}

// ExhaustReport is the outcome of the exhaustive search.
type ExhaustReport struct {
	Kind Kind
	F, N int
	// Workers is the pool size the sweep ran with.
	Workers int
	// Schedules is the number of schedules executed.
	Schedules int
	// Violations is how many schedules broke WS-Safety.
	Violations int
	// FirstViolation describes the violating schedule with the lowest
	// enumeration index, if any.
	FirstViolation string
	// ViolationIndices lists the enumeration indices of all violating
	// schedules, ascending. Deterministic across worker counts, so a
	// parallel sweep can be checked against a sequential one.
	ViolationIndices []int `json:",omitempty"`
	// Elapsed is the sweep wall-clock time.
	Elapsed time.Duration
}

// RunExhaustive enumerates the full f-bounded schedule class against the
// given construction (two writers, n = 2f+1 servers) and reports the
// violations: every schedule is an independent job on the Sweep engine, each
// with its own cluster, fabric, gate, and emulation.
func RunExhaustive(ctx context.Context, kind Kind, opts ExhaustOptions) (*ExhaustReport, error) {
	f := opts.F
	if f == 0 {
		f = 1
	}
	if f < 1 || f > 2 {
		return nil, fmt.Errorf("runner: exhaustive sweep supports f=1 or f=2, got f=%d", f)
	}
	n := 2*f + 1
	schedules := enumerateExhaust(f, n)
	workers := min(DefaultWorkers(opts.Workers), len(schedules))
	violated, elapsed, err := Sweep(ctx, workers, len(schedules),
		func(ctx context.Context, _, job int) (bool, error) {
			res, err := RunScript(ctx, &Script{Kind: kind, K: 2, F: f, N: n, Steps: schedules[job].steps(n)})
			if err != nil {
				return false, fmt.Errorf("runner: exhaustive %s schedule {%s}: %w", kind, schedules[job], err)
			}
			return res.Checks.WSSafety != nil, nil
		})
	if err != nil {
		return nil, err
	}
	rep := &ExhaustReport{
		Kind: kind, F: f, N: n,
		Workers:   workers,
		Schedules: len(schedules),
		Elapsed:   elapsed,
	}
	for i, v := range violated {
		if !v {
			continue
		}
		rep.Violations++
		rep.ViolationIndices = append(rep.ViolationIndices, i)
		if rep.FirstViolation == "" {
			rep.FirstViolation = schedules[i].String()
		}
	}
	return rep, nil
}

// steps is the schedule as a script for n servers: one count-1 mutating
// hold per held server (Lemma 1 covers each register at most once, so later
// ops on a held server pass), the releases in the canonical server order —
// releases on distinct objects commute, so a fixed order loses nothing; on a
// server where both writers release, w1First picks which stale write lands
// first — and the read under one respond hold on its delayed servers.
func (s exhaustSchedule) steps(n int) []Step {
	var steps []Step
	for w, v := range [2]int64{attackV1, attackV2} {
		for _, srv := range s.holds[w] {
			steps = append(steps, holdWrites(w, []int{srv}, 1))
		}
		steps = append(steps, writeStep(w, v), clearStep)
	}
	release := func(client, server int) {
		steps = append(steps, Step{Release: &ReleaseStep{Client: &client, Servers: []int{server}}})
	}
	for srv := 0; srv < n; srv++ {
		in0 := slices.Contains(s.releases[0], srv)
		in1 := slices.Contains(s.releases[1], srv)
		switch {
		case in0 && in1 && slices.Contains(s.w1First, srv):
			release(1, srv)
			release(0, srv)
		case in0 && in1:
			release(0, srv)
			release(1, srv)
		case in0:
			release(0, srv)
		case in1:
			release(1, srv)
		}
	}
	if len(s.delayRead) > 0 {
		steps = append(steps, delayReads(s.delayRead...))
	}
	return append(steps, readStep)
}
