package main

import (
	"errors"
	"testing"
	"time"
)

// knownRecorder files 1000 ops in a 6 s window: op i (1-based) is due at
// (i-1)*6 ms and takes i µs; odd i are writes on loop 1, even i reads on
// loop 0. Every figure below follows from that by hand.
func knownRecorder(t *testing.T) *recorder {
	t.Helper()
	start := time.Unix(1_000_000, 0)
	r := newRecorder(2, start, 6*time.Second)
	for i := 1; i <= 1000; i++ {
		due := start.Add(time.Duration(i-1) * 6 * time.Millisecond)
		r.record(i%2, i%2 == 1, due, due.Add(time.Duration(i)*time.Microsecond), nil)
	}
	// Outside the window on either side: not recorded at all.
	r.record(0, false, start.Add(-time.Millisecond), start, nil)
	r.record(0, false, start.Add(6*time.Second), start.Add(7*time.Second), nil)
	// An error completion inside the window: counted, no latency sample.
	r.record(1, true, start.Add(time.Second), start.Add(2*time.Second), errors.New("boom"))
	return r
}

func TestRecorderExactQuantiles(t *testing.T) {
	s := knownRecorder(t).summarize(0)
	if s.Recorded != 1000 || s.Completed != 1000 || s.Failed != 1 {
		t.Fatalf("recorded %d completed %d failed %d, want 1000 1000 1", s.Recorded, s.Completed, s.Failed)
	}
	// Nearest rank: the 500th of 1..1000.
	if s.N != 1000 || s.P50 != 500*time.Microsecond || s.FirstCovered != 0 {
		t.Fatalf("n %d p50 %v first covered slice %d, want 1000 500µs 0", s.N, s.P50, s.FirstCovered)
	}
	// One-second slices hold ops 1-167, 168-334, 335-500, 501-667, 668-834,
	// 835-1000. Per slice: p50 and p99 are the ceil(q n)-th smallest; writes
	// are the odd ops, reads the even ones.
	want := [slicesPerPass]struct {
		n, writes, reads            int
		p50, p99, writeP50, readP50 time.Duration
	}{
		{167, 84, 83, 84, 166, 83, 84},
		{167, 83, 84, 251, 333, 251, 250},
		{166, 83, 83, 417, 499, 417, 418},
		{167, 84, 83, 584, 666, 583, 584},
		{167, 83, 84, 751, 833, 751, 750},
		{166, 83, 83, 917, 999, 917, 918},
	}
	for k, w := range want {
		sl := s.Slices[k]
		if sl.N != w.n || sl.WriteN != w.writes || sl.ReadN != w.reads || sl.Completed != int64(w.n) {
			t.Errorf("slice %d: n %d (%d writes, %d reads) completed %d, want %d (%d, %d) %d",
				k, sl.N, sl.WriteN, sl.ReadN, sl.Completed, w.n, w.writes, w.reads, w.n)
		}
		got := [4]time.Duration{sl.P50, sl.P99, sl.WriteP50, sl.ReadP50}
		wantD := [4]time.Duration{w.p50 * time.Microsecond, w.p99 * time.Microsecond, w.writeP50 * time.Microsecond, w.readP50 * time.Microsecond}
		if got != wantD {
			t.Errorf("slice %d: p50 p99 write-p50 read-p50 = %v, want %v", k, got, wantD)
		}
	}
}

func TestRecorderCoversOnlyOpsDueAfterTheFault(t *testing.T) {
	s := knownRecorder(t).summarize(3 * time.Second)
	// Ops 501-1000 are due at or after 3 s, the edge of slice 3.
	if s.N != 500 || s.BeforeN != 500 || s.FirstCovered != 3 {
		t.Fatalf("n %d before %d first covered slice %d, want 500 500 3", s.N, s.BeforeN, s.FirstCovered)
	}
	for k := range s.Slices {
		if covered := s.Slices[k].N > 0; covered != (k >= 3) {
			t.Errorf("slice %d: %d latency samples; only slices 3-5 are covered", k, s.Slices[k].N)
		}
		if s.Slices[k].Completed == 0 {
			t.Errorf("slice %d: goodput must count the whole window", k)
		}
	}
	if want := 750 * time.Microsecond; s.P50 != want {
		t.Errorf("p50 after = %v, want %v", s.P50, want)
	}
	if want := 250 * time.Microsecond; s.BeforeP50 != want {
		t.Errorf("p50 before = %v, want %v", s.BeforeP50, want)
	}
	// Completions after 3 s are 6 ms + 1 µs apart; the lead-in (501 µs) and
	// the tail (5 ms) are shorter.
	if want := 6001 * time.Microsecond; s.MaxGapAfter != want {
		t.Errorf("max gap = %v, want %v", s.MaxGapAfter, want)
	}
	// Goodput still counts the whole window.
	if s.Completed != 1000 {
		t.Errorf("completed %d, want 1000", s.Completed)
	}
}

func TestRecorderCountsLateCompletionsOutOfGoodput(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	r := newRecorder(1, start, time.Second)
	due := start.Add(900 * time.Millisecond)
	r.record(0, true, due, due.Add(50*time.Millisecond), nil)  // lands inside
	r.record(0, true, due, due.Add(150*time.Millisecond), nil) // lands after the window
	r.record(0, true, due, due.Add(10*time.Second), nil)       // saturates the 32-bit latency
	s := r.summarize(0)
	if s.Recorded != 3 || s.Completed != 1 {
		t.Fatalf("recorded %d completed %d, want 3 1", s.Recorded, s.Completed)
	}
	last := s.Slices[slicesPerPass-1]
	if want := time.Duration(^uint32(0)); time.Duration(rankQuantile(last.all, 1)) != want {
		t.Errorf("max latency %v, want saturation at %v", time.Duration(rankQuantile(last.all, 1)), want)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) for the same inputs.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v (ok=%v), want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if sp, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || sp != 1 {
		t.Errorf("spread = %v (ok=%v), want 1", sp, ok)
	}
}

// A disturbance that slows a third of a run's slices by 40-60 % must leave
// the figure the run reports inside the undisturbed slices' own range,
// whichever direction is better — where the mean moves by 13-20 %.
func TestBestQuartileIgnoresOneSidedDisturbance(t *testing.T) {
	clean := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100, 100, 101}
	for _, c := range []struct {
		name         string
		factor       float64
		higherBetter bool
	}{
		{"throughput", 0.6, true},
		{"latency", 1.6, false},
	} {
		disturbed := append([]float64(nil), clean...)
		for i := 0; i < 4; i++ {
			disturbed[i] *= c.factor
		}
		if got := bestQuartile(disturbed, c.higherBetter); got < 98 || got > 102 {
			t.Errorf("%s: disturbed run reports %v, outside the clean slices' range [98, 102]", c.name, got)
		}
	}
	if got := bestQuartile([]float64{7}, true); got != 7 {
		t.Errorf("single value: %v, want 7", got)
	}
}
