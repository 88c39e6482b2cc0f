package main

import (
	"testing"
	"time"
)

// virtualClock advances only when the pacer sleeps or the sink spends time,
// so the schedule below is reproduced to the nanosecond.
type virtualClock struct{ now time.Time }

func (c *virtualClock) Now() time.Time { return c.now }

func (c *virtualClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// A sink that stalls for 50 ms must not thin the offered load: every arrival
// keeps its scheduled time, the backlog is issued in order as soon as the
// sink returns, and each delayed op is charged the wait from its own
// intended time.
func TestPacerChargesStallToEveryDelayedOp(t *testing.T) {
	const (
		rate    = 1000.0 // one arrival per millisecond
		stallAt = 50
		stall   = 50 * time.Millisecond
		service = 10 * time.Microsecond
	)
	base := time.Unix(2_000_000, 0)
	clk := &virtualClock{now: base}
	p := newPacer(clk, base, rate, 200)

	var issuedAt, intendedAt []time.Time
	n := p.run(base.Add(200*time.Millisecond), nil, func(i int64, intended time.Time) {
		if int(i) != len(issuedAt) {
			t.Fatalf("arrival %d issued out of order (have %d)", i, len(issuedAt))
		}
		issuedAt = append(issuedAt, clk.now)
		intendedAt = append(intendedAt, intended)
		clk.now = clk.now.Add(service)
		if i == stallAt {
			clk.now = clk.now.Add(stall)
		}
	})
	if n != 200 || len(issuedAt) != 200 {
		t.Fatalf("issued %d arrivals, want all 200 due before the deadline", n)
	}
	for i := range intendedAt {
		if want := base.Add(time.Duration(i) * time.Millisecond); !intendedAt[i].Equal(want) {
			t.Fatalf("arrival %d intended at +%v, want +%v: the schedule moved", i, intendedAt[i].Sub(base), want.Sub(base))
		}
	}
	// After arrival 50 the clock reads 50 ms + 10 µs + 50 ms. Arrival n > 50
	// is issued 10 µs after its predecessor until the backlog is gone, so
	// its lag is 100.01 ms + (n-51)*10 µs - n ms while that is positive:
	// arrivals 51..100 are late, 101 onward on time again.
	for i := range issuedAt {
		lag := issuedAt[i].Sub(intendedAt[i])
		var want time.Duration
		if i > stallAt {
			want = 100*time.Millisecond + service + time.Duration(i-51)*service - time.Duration(i)*time.Millisecond
			if want < 0 {
				want = 0
			}
		}
		if lag != want {
			t.Fatalf("arrival %d issued %v after its intended time, want %v", i, lag, want)
		}
		if time.Duration(p.lagNS[i]) != want {
			t.Fatalf("arrival %d: pacer logged lag %v, want %v", i, time.Duration(p.lagNS[i]), want)
		}
	}
	if got, want := p.lagQuantile(1), 49*time.Millisecond+service; got != want {
		t.Errorf("worst lag %v, want %v", got, want)
	}
	// 150 of 200 arrivals were on time, so the median lag is zero while the
	// tail carries the stall.
	if got := p.lagQuantile(0.5); got != 0 {
		t.Errorf("median lag %v, want 0", got)
	}
	if got := p.lagQuantile(0.99); got < 40*time.Millisecond {
		t.Errorf("p99 lag %v does not show the stall", got)
	}
}

func TestPacerStopsWhenTold(t *testing.T) {
	base := time.Unix(2_000_000, 0)
	clk := &virtualClock{now: base}
	p := newPacer(clk, base, 1000, 16)
	stop := make(chan struct{})
	n := p.run(base.Add(time.Hour), stop, func(i int64, _ time.Time) {
		if i == 9 {
			close(stop)
		}
	})
	if n != 10 {
		t.Fatalf("issued %d arrivals, want 10 (stop closed during the 10th)", n)
	}
}
