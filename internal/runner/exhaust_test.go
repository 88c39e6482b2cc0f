package runner

import (
	"context"
	"math/bits"
	"slices"
	"testing"
	"time"
)

// countSchedules computes the size of the f-bounded schedule class by the
// counting formula, independently of the enumerator's loop structure:
//
//	|class| = D(n,f) * Σ_{|A0|<=f} Σ_{R0⊆A0} Σ_{|A1|<=f} Σ_{R1⊆A1} 2^|R0∩R1|
//
// where D(n,f) = Σ_{d<=f} C(n,d) counts the read-delay sets and the 2^|R0∩R1|
// factor counts the per-collision release-order choices.
func countSchedules(f, n int) int {
	legal := func(mask int) bool { return bits.OnesCount(uint(mask)) <= f }
	pairs := 0
	for h0 := 0; h0 < 1<<uint(n); h0++ {
		if !legal(h0) {
			continue
		}
		for r0 := 0; r0 < 1<<uint(n); r0++ {
			if r0&^h0 != 0 {
				continue
			}
			for h1 := 0; h1 < 1<<uint(n); h1++ {
				if !legal(h1) {
					continue
				}
				for r1 := 0; r1 < 1<<uint(n); r1++ {
					if r1&^h1 != 0 {
						continue
					}
					pairs += 1 << uint(bits.OnesCount(uint(r0&r1)))
				}
			}
		}
	}
	delays := 0
	for d := 0; d < 1<<uint(n); d++ {
		if legal(d) {
			delays++
		}
	}
	return pairs * delays
}

// TestEnumerateScheduleCount pins the schedule-space size: the enumerator
// must agree with the independent counting formula, and both must match the
// published class sizes (208 at f=1, 48256 at f=2) that make "0 violations"
// a complete-class result.
func TestEnumerateScheduleCount(t *testing.T) {
	for _, tc := range []struct{ f, n, want int }{
		{1, 3, 208},
		{2, 5, 48256},
	} {
		got := len(enumerateExhaust(tc.f, tc.n))
		if formula := countSchedules(tc.f, tc.n); got != formula {
			t.Errorf("f=%d n=%d: enumerated %d schedules, formula says %d", tc.f, tc.n, got, formula)
		}
		if got != tc.want {
			t.Errorf("f=%d n=%d: enumerated %d schedules, want %d — class size changed", tc.f, tc.n, got, tc.want)
		}
	}
}

// TestEnumerateRespectsBudgets: every schedule stays within the f-bounded
// adversary (holds, releases, delays), and releases are subsets of holds.
func TestEnumerateRespectsBudgets(t *testing.T) {
	const f, n = 2, 5
	for _, s := range enumerateExhaust(f, n) {
		for w := 0; w < 2; w++ {
			if len(s.holds[w]) > f {
				t.Fatalf("schedule {%s}: writer %d holds %d > f", s, w, len(s.holds[w]))
			}
			for _, srv := range s.releases[w] {
				if !slices.Contains(s.holds[w], srv) {
					t.Fatalf("schedule {%s}: writer %d releases s%d without holding it", s, w, srv)
				}
			}
		}
		for _, srv := range s.w1First {
			if !slices.Contains(s.releases[0], srv) || !slices.Contains(s.releases[1], srv) {
				t.Fatalf("schedule {%s}: order bit on s%d outside the release collision set", s, srv)
			}
		}
		if len(s.delayRead) > f {
			t.Fatalf("schedule {%s}: delays %d > f servers", s, len(s.delayRead))
		}
	}
}

// TestExhaustiveSoundConstructions model-checks the full f=1 two-writer
// adversary class (holds, subset releases with both collision orders, read
// delays) against every sound construction: zero schedules may violate
// WS-Safety.
func TestExhaustiveSoundConstructions(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range []Kind{KindRegEmu, KindABDMax, KindCASMax, KindAACMax} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rep, err := RunExhaustive(ctx, kind, ExhaustOptions{})
			if err != nil {
				t.Fatalf("RunExhaustive: %v", err)
			}
			if rep.Schedules != 208 {
				t.Fatalf("explored %d schedules, want 208 — enumeration changed", rep.Schedules)
			}
			if rep.Violations != 0 {
				t.Errorf("%d/%d schedules violated WS-Safety; first: %s",
					rep.Violations, rep.Schedules, rep.FirstViolation)
			}
		})
	}
}

// TestExhaustiveFindsNaiveViolation: the same enumeration must expose the
// under-provisioned baseline — the lower bound says violating schedules
// exist, and the search must find them.
func TestExhaustiveFindsNaiveViolation(t *testing.T) {
	ctx := testCtx(t)
	rep, err := RunExhaustive(ctx, KindNaive, ExhaustOptions{})
	if err != nil {
		t.Fatalf("RunExhaustive: %v", err)
	}
	if rep.Violations == 0 {
		t.Fatalf("no violating schedule found for the naive baseline in %d schedules", rep.Schedules)
	}
	t.Logf("naive baseline: %d/%d schedules violate WS-Safety; e.g. %s",
		rep.Violations, rep.Schedules, rep.FirstViolation)
}

// TestExhaustiveNaiveF1Pinned pins the f=1 sweep against its recorded
// table, not only against itself run in parallel: the naive baseline is
// violated by exactly these schedules of the 208, and the first of them is
// Lemma 4's run.
func TestExhaustiveNaiveF1Pinned(t *testing.T) {
	rep, err := RunExhaustive(testCtx(t), KindNaive, ExhaustOptions{})
	if err != nil {
		t.Fatalf("RunExhaustive: %v", err)
	}
	want := []int{60, 63, 78, 100, 103, 137, 162, 177}
	if rep.Schedules != 208 || !slices.Equal(rep.ViolationIndices, want) {
		t.Errorf("naive violates %v of %d schedules, want %v of 208", rep.ViolationIndices, rep.Schedules, want)
	}
	if first := "hold0=s0 hold1=s1 rel0=s0 rel1=- w1first=- delayRead=-"; rep.FirstViolation != first {
		t.Errorf("first violation %q, want %q", rep.FirstViolation, first)
	}
}

// TestExhaustiveF2 is the grown sweep: the complete f=2 class (48256
// schedules on n=5, two covering holds per write, subset releases with
// per-collision orders, two delayed read servers) — Algorithm 2 must defeat
// every schedule, the under-provisioned baseline must fall to some.
func TestExhaustiveF2(t *testing.T) {
	// The f=2 class is ~230x larger than f=1; give it room beyond the
	// default test context, which race-instrumented CI runs need.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	t.Run("regemu-complete-class", func(t *testing.T) {
		rep, err := RunExhaustive(ctx, KindRegEmu, ExhaustOptions{F: 2})
		if err != nil {
			t.Fatalf("RunExhaustive: %v", err)
		}
		if rep.Schedules != 48256 {
			t.Fatalf("explored %d schedules, want 48256 — enumeration changed", rep.Schedules)
		}
		if rep.Violations != 0 {
			t.Errorf("%d/%d f=2 schedules violated WS-Safety; first: %s",
				rep.Violations, rep.Schedules, rep.FirstViolation)
		}
	})
	t.Run("naive-violates", func(t *testing.T) {
		rep, err := RunExhaustive(ctx, KindNaive, ExhaustOptions{F: 2})
		if err != nil {
			t.Fatalf("RunExhaustive: %v", err)
		}
		if rep.Violations == 0 {
			t.Fatalf("no violating f=2 schedule found for the naive baseline in %d schedules", rep.Schedules)
		}
		t.Logf("naive baseline at f=2: %d/%d schedules violate; e.g. %s",
			rep.Violations, rep.Schedules, rep.FirstViolation)
	})
}

// TestExhaustiveRejectsUnsupportedF covers the budget validation.
func TestExhaustiveRejectsUnsupportedF(t *testing.T) {
	if _, err := RunExhaustive(testCtx(t), KindRegEmu, ExhaustOptions{F: 3}); err == nil {
		t.Fatal("f=3 accepted; the schedule class is only defined for f=1,2")
	}
}
