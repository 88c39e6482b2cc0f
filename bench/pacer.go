package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// clock is the pacer's time source; the unit test substitutes a virtual one
// so a stalled sink is reproduced exactly.
type clock interface {
	Now() time.Time
	// SleepUntil returns at or after t.
	SleepUntil(t time.Time)
}

// wallClock sleeps with nanosleep(2) on the pacer's own OS thread. The Go
// runtime's timers are served from netpoll, whose timeout has millisecond
// granularity on an otherwise idle process — time.Sleep(100µs) returns after
// ≈1.1 ms on the reference box, the very lag the old 1 ms ticker added to
// every coordinated-omission-corrected latency. nanosleep overshoots by
// ≈70 µs and burns no CPU, so the generator neither spins a core the store
// needs nor pollutes cpu_us_per_op.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-derives the remainder
	}
}

// pacer is the open-loop arrival process: arrival n is due at
// base + n/rate whatever the store (or the pacer's own scheduling) is
// doing, and issue receives that intended time — not the moment the pacer
// got round to it — so a stall charges the backlog's wait to every delayed
// op instead of silently thinning the offered load (coordinated omission).
type pacer struct {
	clk      clock
	base     time.Time
	interval time.Duration
	lagNS    []uint32 // issue time minus intended time, per arrival
}

// newPacer sizes the lag log for `expect` arrivals up front, so recording
// never reallocates inside the window.
func newPacer(clk clock, base time.Time, rate float64, expect int) *pacer {
	return &pacer{
		clk:      clk,
		base:     base,
		interval: time.Duration(float64(time.Second) / rate),
		lagNS:    make([]uint32, 0, expect),
	}
}

// due is arrival n's intended send time.
func (p *pacer) due(n int64) time.Time { return p.base.Add(time.Duration(n) * p.interval) }

// run issues every arrival due before `until`, in order, sleeping to the
// next due arrival whenever it is ahead of schedule, and returns how many
// it issued. stop is polled between arrivals.
func (p *pacer) run(until time.Time, stop <-chan struct{}, issue func(n int64, intended time.Time)) int64 {
	runtime.LockOSThread() // nanosleep blocks the thread; keep it ours
	defer runtime.UnlockOSThread()
	var n int64
	for {
		intended := p.due(n)
		if !intended.Before(until) {
			return n
		}
		select {
		case <-stop:
			return n
		default:
		}
		now := p.clk.Now()
		if now.Before(intended) {
			p.clk.SleepUntil(intended)
			now = p.clk.Now()
		}
		lag := now.Sub(intended)
		if lag > time.Duration(^uint32(0)) {
			lag = time.Duration(^uint32(0))
		}
		p.lagNS = append(p.lagNS, uint32(lag))
		issue(n, intended)
		n++
	}
}

// lagQuantile reports how late the generator ran: the q-quantile of
// issue-minus-intended over every arrival.
func (p *pacer) lagQuantile(q float64) time.Duration {
	s := slices.Sorted(slices.Values(p.lagNS))
	return time.Duration(rankQuantile(s, q))
}
