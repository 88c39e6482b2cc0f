package main

import (
	"slices"
	"time"
)

// The latency recorder keeps every op's raw sample — no histogram buckets —
// so quantiles are exact. One sampleLog pair per engine loop: all of a key's
// completions fire on the key's loop, so each log has a single writer and
// the hot path takes no lock and no atomic. Logs merge once, at the end.

// sample is one completed op: when it was due (the intended send time on
// open loops, the issue time on closed loops) and how long after that its
// completion callback ran. Eight bytes, no pointers: a multi-million-op
// window costs the GC nothing to scan.
type sample struct {
	dueUS uint32 // microseconds after the window opened
	latNS uint32 // nanoseconds from due to completion, saturating at ~4.29s
}

// doneUS is the sample's completion time, in microseconds after the window
// opened.
func (s sample) doneUS() int64 { return int64(s.dueUS) + int64(s.latNS)/1000 }

const sampleChunk = 1 << 16

// sampleLog is an append-only chunked list: growing never copies, so a
// long window adds no reallocation spikes to the thing being measured.
type sampleLog struct {
	chunks [][]sample
}

func (l *sampleLog) add(s sample) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == sampleChunk {
		l.chunks = append(l.chunks, make([]sample, 0, sampleChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, s)
}

func (l *sampleLog) appendTo(dst []sample) []sample {
	for _, c := range l.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// loopRec is one engine loop's share of the record.
type loopRec struct {
	reads, writes sampleLog
	failed        int64
	_             [64]byte // keep neighbouring loops' counters off one cache line
}

// recorder collects one pass's samples. The window is [start, start+window):
// ops due outside it (warm-up, drain tail) are not recorded.
type recorder struct {
	start  time.Time
	window time.Duration
	loops  []loopRec
}

func newRecorder(loops int, start time.Time, window time.Duration) *recorder {
	return &recorder{start: start, window: window, loops: make([]loopRec, loops)}
}

// record files one completion. It must be called from engine loop `loop`
// (or, in tests, from one goroutine per loop index).
func (r *recorder) record(loop int, write bool, due, now time.Time, err error) {
	off := due.Sub(r.start)
	if off < 0 || off >= r.window {
		return
	}
	lr := &r.loops[loop]
	if err != nil {
		lr.failed++
		return
	}
	lat := now.Sub(due)
	if lat < 0 {
		lat = 0
	}
	if lat > time.Duration(^uint32(0)) {
		lat = time.Duration(^uint32(0))
	}
	s := sample{dueUS: uint32(off / time.Microsecond), latNS: uint32(lat)}
	if write {
		lr.writes.add(s)
	} else {
		lr.reads.add(s)
	}
}

// slicesPerPass is how many equal slices a pass's window is cut into. Every
// user-visible figure is computed per slice, and a run reports the best
// quartile across its slices (see bestQuartile).
const slicesPerPass = 6

// sliceStat is one slice's figures. Latency figures cover the ops *due* in
// the slice; Completed counts the completions that *landed* in it.
type sliceStat struct {
	Completed          int64
	N, WriteN, ReadN   int
	P50, P99           time.Duration
	WriteP50, ReadP50  time.Duration
	CPU                time.Duration // process (+ node) CPU spent during the slice
	all, writes, reads []uint32
}

// summary is a pass's merged record.
type summary struct {
	// Completed counts ops due in the window whose completion landed inside
	// it — the goodput numerator. Recorded counts every recorded sample
	// (completion may trail the window); Failed the error completions.
	Completed, Recorded, Failed int64

	// Slices holds the per-slice figures. Latency is covered from slice
	// FirstCovered on (the first slice that starts at or after `from`, the
	// crash instant on the fault workload; 0 elsewhere).
	Slices       [slicesPerPass]sliceStat
	FirstCovered int

	// Whole-pass figures over the covered slices, and around the fault.
	N           int
	P50         time.Duration
	BeforeN     int
	BeforeP50   time.Duration // median of samples due before `from`
	MaxGapAfter time.Duration // longest completion-free interval in [from, window)
}

// summarize merges the loops and computes the pass's figures. from is the
// offset into the window where latency coverage starts.
func (r *recorder) summarize(from time.Duration) summary {
	var s summary
	var merged, writes []sample
	for i := range r.loops {
		lr := &r.loops[i]
		s.Failed += lr.failed
		writes = lr.writes.appendTo(writes)
		merged = lr.reads.appendTo(merged)
	}
	nReads := len(merged)
	merged = append(merged, writes...)
	s.Recorded = int64(len(merged))

	winUS := int64(r.window / time.Microsecond)
	fromUS := int64(from / time.Microsecond)
	sliceUS := max(winUS/slicesPerPass, 1)
	sliceOf := func(us int64) int { return int(min(us/sliceUS, slicesPerPass-1)) }
	s.FirstCovered = int((fromUS + sliceUS - 1) / sliceUS)

	var all, before []uint32
	var dones []int64
	for i, sm := range merged {
		done := sm.doneUS()
		if done < winUS {
			s.Completed++
			s.Slices[sliceOf(done)].Completed++
			if done >= fromUS {
				dones = append(dones, done)
			}
		}
		if int64(sm.dueUS) < fromUS {
			before = append(before, sm.latNS)
			continue
		}
		k := sliceOf(int64(sm.dueUS))
		if k < s.FirstCovered {
			continue // due after the fault but inside the slice it fell in
		}
		sl := &s.Slices[k]
		all = append(all, sm.latNS)
		sl.all = append(sl.all, sm.latNS)
		if i < nReads {
			sl.reads = append(sl.reads, sm.latNS)
		} else {
			sl.writes = append(sl.writes, sm.latNS)
		}
	}
	for k := range s.Slices {
		sl := &s.Slices[k]
		slices.Sort(sl.all)
		slices.Sort(sl.writes)
		slices.Sort(sl.reads)
		sl.N, sl.WriteN, sl.ReadN = len(sl.all), len(sl.writes), len(sl.reads)
		sl.P50 = time.Duration(rankQuantile(sl.all, 0.50))
		sl.P99 = time.Duration(rankQuantile(sl.all, 0.99))
		sl.WriteP50 = time.Duration(rankQuantile(sl.writes, 0.50))
		sl.ReadP50 = time.Duration(rankQuantile(sl.reads, 0.50))
	}
	slices.Sort(all)
	slices.Sort(before)
	s.N, s.BeforeN = len(all), len(before)
	s.P50 = time.Duration(rankQuantile(all, 0.50))
	s.BeforeP50 = time.Duration(rankQuantile(before, 0.50))

	slices.Sort(dones)
	prev := fromUS
	for _, d := range append(dones, winUS) {
		if gap := time.Duration(d-prev) * time.Microsecond; len(dones) > 0 && gap > s.MaxGapAfter {
			s.MaxGapAfter = gap
		}
		prev = d
	}
	return s
}
