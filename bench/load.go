package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

const (
	// warmup runs the workload's load before the window opens, so sessions
	// and lane pipelines are at steady state when recording starts. It also
	// outlasts the reference box's cold start: after a mostly single-threaded
	// set-up the second vCPU runs at about half speed for ≈0.7 s.
	warmup = 800 * time.Millisecond
	// drainLimit is how long after the window an op may still complete; one
	// that has not by then counts as failed.
	drainLimit = 5 * time.Second
)

// pass is one timed run of a workload's traffic against a driver.
type pass struct {
	w       *workload
	drv     driver
	clients *clientTable
	loops   int
	window  time.Duration
	seed    int64
	// drain waits for every issued op to complete (or ctx to expire).
	drain func(ctx context.Context) error
	// crash, when the workload has a fault, crashes one server per shard.
	crash func() error
	// nodes, on TCP, are the processes whose CPU is charged to the ops.
	nodes *nodeSet
}

// passResult is everything one pass observed from outside the program.
type passResult struct {
	Window    time.Duration
	Attempted int64 // ops due inside the window
	Failed    int64 // error completions + ops not completed drainLimit after it
	Sum       summary

	SelfCPU, NodeCPU time.Duration // consumed between the window's edges
	AllocBytes       uint64
	Allocs           uint64
	GCCPU            time.Duration
	HeapPeak         uint64
	PacerLagP99      time.Duration
}

func (r *passResult) opsPerSec() float64 { return float64(r.Sum.Completed) / r.Window.Seconds() }

// perOp divides a window total by the ops completed in the window.
func (r *passResult) perOp(total float64) float64 {
	if r.Sum.Completed == 0 {
		return 0
	}
	return total / float64(r.Sum.Completed)
}

// subSeed derives independent generator streams from the run seed
// (splitmix64 finalizer), so sessions and the pacer never share a sequence.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// run executes the pass: warm-up, the window with resource counters read at
// its edges, the optional crash, then the drain.
func (p *pass) run(ctx context.Context) (*passResult, error) {
	start := time.Now().Add(warmup)
	end := start.Add(p.window)
	rec := newRecorder(p.loops, start, p.window)
	res := &passResult{Window: p.window}

	var stop atomic.Bool
	stopped := make(chan struct{})
	var haltOnce sync.Once
	halt := func() {
		haltOnce.Do(func() {
			stop.Store(true)
			close(stopped)
		})
	}
	defer halt() // an early return must not leave the generator running
	var attempted atomic.Int64
	genDone := make(chan struct{})
	var pc *pacer
	if p.w.Open {
		pc = newPacer(wallClock{}, start.Add(-warmup), p.w.Rate, int(p.w.Rate*(p.window+warmup).Seconds())+1)
		go func() {
			defer close(genDone)
			p.paceOpen(pc, rec, start, end, stopped, &attempted)
		}()
	} else {
		if err := p.startClosed(rec, start, end, &stop, &attempted); err != nil {
			return nil, err
		}
		close(genDone)
	}

	var crashErr atomic.Pointer[error]
	if p.crash != nil && p.w.CrashAt > 0 {
		at := start.Add(time.Duration(p.w.CrashAt * float64(p.window)))
		t := time.AfterFunc(time.Until(at), func() {
			if err := p.crash(); err != nil {
				crashErr.Store(&err)
			}
		})
		defer t.Stop()
	}

	// CPU is read at every slice edge, so each slice has its own CPU-per-op;
	// a runtime timer's millisecond is precise enough for a slice.
	var heapPeak <-chan uint64
	var m0, m1 runtime.MemStats
	var gc0 time.Duration
	var selfAt, nodeAt [slicesPerPass + 1]time.Duration
	for k := 0; k <= slicesPerPass; k++ {
		edge := start.Add(p.window * time.Duration(k) / slicesPerPass)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Until(edge)):
		}
		if k == 0 {
			heapPeak = watchHeap(stopped)
			runtime.ReadMemStats(&m0)
			gc0 = gcCPU()
		}
		var err error
		if nodeAt[k], err = p.nodes.cpu(); err != nil {
			return nil, fmt.Errorf("reading node cpu: %w", err)
		}
		selfAt[k] = selfCPU()
	}
	gc1 := gcCPU()
	runtime.ReadMemStats(&m1)
	halt()
	<-genDone
	res.HeapPeak = <-heapPeak

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dctx, cancel := context.WithTimeout(ctx, drainLimit)
	defer cancel()
	if err := p.drain(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, fmt.Errorf("draining: %w", err)
	}
	if e := crashErr.Load(); e != nil {
		return nil, fmt.Errorf("injecting crash: %w", *e)
	}

	// Latency is covered from the crash's nominal instant — a slice edge —
	// not the moment the timer got to run a few hundred microseconds later.
	res.Sum = rec.summarize(time.Duration(p.w.CrashAt * float64(p.window)))
	for k := range res.Sum.Slices {
		res.Sum.Slices[k].CPU = selfAt[k+1] - selfAt[k] + nodeAt[k+1] - nodeAt[k]
	}
	res.Attempted = attempted.Load()
	// Every attempted op is recorded, failed with an error, or still
	// outstanding after the drain limit; the last two are the failures.
	res.Failed = res.Attempted - res.Sum.Recorded
	res.SelfCPU, res.NodeCPU = selfAt[slicesPerPass]-selfAt[0], nodeAt[slicesPerPass]-nodeAt[0]
	res.AllocBytes, res.Allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	res.GCCPU = gc1 - gc0
	if pc != nil {
		res.PacerLagP99 = pc.lagQuantile(0.99)
	}
	return res, nil
}

// paceOpen is the open loop: the pacer goroutine draws the read/write mix
// per arrival and issues onto round-robin clients; a busy client queues the
// arrival behind its current op (per-client serialization) instead of
// skipping it, and the wait is part of the op's latency.
func (p *pass) paceOpen(pc *pacer, rec *recorder, start, end time.Time, stopped <-chan struct{}, attempted *atomic.Int64) {
	rng := rand.New(rand.NewSource(subSeed(p.seed, 0)))
	t := p.clients
	var wi, ri int
	var inWindow int64
	pc.run(end, stopped, func(_ int64, intended time.Time) {
		if !intended.Before(start) {
			inWindow++
		}
		if rng.Float64() < p.w.ReadFrac {
			c := t.readers[ri%len(t.readers)]
			ri++
			p.drv.startRead(c, func(_ types.Value, err error) {
				rec.record(c.loop, false, intended, time.Now(), err)
			})
		} else {
			c := t.writers[wi%len(t.writers)]
			wi++
			p.drv.startWrite(c, t.value(c), func(err error) {
				rec.record(c.loop, true, intended, time.Now(), err)
			})
		}
	})
	attempted.Store(inWindow)
}

// startClosed launches the closed loop: every session keeps exactly one op
// in flight and issues its next from the previous one's completion callback,
// on whichever engine loop that fired. No generator goroutine exists — the
// store's own loops carry the load — so latency is service time and cannot
// suffer coordinated omission.
func (p *pass) startClosed(rec *recorder, start, end time.Time, stop *atomic.Bool, attempted *atomic.Int64) error {
	t := p.clients
	if !p.w.FloatingSessions && p.w.Sessions != len(t.all) {
		return fmt.Errorf("%s: %d bound sessions need %d clients, have %d", p.w.Name, p.w.Sessions, p.w.Sessions, len(t.all))
	}
	for i := 0; i < p.w.Sessions; i++ {
		rng := rand.New(rand.NewSource(subSeed(p.seed, uint64(i))))
		var own *client
		if !p.w.FloatingSessions {
			own = t.all[i]
		}
		var next func()
		next = func() {
			if stop.Load() {
				return
			}
			c := own
			if c == nil {
				if rng.Float64() < p.w.ReadFrac {
					c = t.readers[rng.Intn(len(t.readers))]
				} else {
					c = t.writers[rng.Intn(len(t.writers))]
				}
			}
			began := time.Now()
			if !began.Before(start) && began.Before(end) {
				attempted.Add(1)
			}
			if c.write {
				p.drv.startWrite(c, t.value(c), func(err error) {
					rec.record(c.loop, true, began, time.Now(), err)
					next()
				})
			} else {
				p.drv.startRead(c, func(_ types.Value, err error) {
					rec.record(c.loop, false, began, time.Now(), err)
					next()
				})
			}
		}
		next()
	}
	return nil
}

// gcCPU is the runtime's estimate of CPU time spent in the garbage
// collector so far (updated at the end of each GC cycle).
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// watchHeap samples the live-object heap every 50 ms until stopped and then
// delivers the peak. runtime/metrics reads do not stop the world.
func watchHeap(stopped <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > peak {
				peak = s[0].Value.Uint64()
			}
			select {
			case <-stopped:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}
