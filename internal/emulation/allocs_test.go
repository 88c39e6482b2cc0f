//go:build !race

package emulation_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/types"
)

// TestRoundAllocsCeiling pins what an operation costs the allocator, per
// construction. An abd-max write and read on the in-process lane are three
// rounds (collect, push; collect) and run to completion inline, so
// AllocsPerRun counts the whole op path below the handles: nothing. The
// rounds — fold, op batch, call slab — come recycled from their pool (before
// they did, the pair cost 32), and so do the handle's record and the
// construction's chain, callbacks bound once, with the history's pending-op
// entry handed back by value (before they did, 8: two pending-op records,
// two completion closures, four reducers and plans).
//
// In payload mode (ValueSize 32) an abd-max pair costs the write's value
// bytes: one payload and the one body that carries it, shared by every
// store's write-max (three payloads, one per store, before).
//
// An abd-cas pair is the same three rounds with the push run as one
// Algorithm 1 chain per store: one CAS each from the collected maximum, on a
// pooled per-store loop record whose CAS rides the record's own recycled
// one-op group. abdcore's push over the chains is a pooled attempt with its
// fold and callbacks bound once (before, a fold, its closure and a method
// value per store cost 5). The atomic read of a settled register writes
// nothing back, so both builds cost the same 0. An aac-max pair is the same
// push over k-writer cells, whose writes ride pooled records the same way,
// and whose queues of waiting write-maxes are pooled too: 0 (8 before). At
// k = 2 an aac-max collect is a server scan, whose in-process snapshot keeps
// its member lists, sorted copy and locks in the group's own storage: 0 (38
// while the scan made them per call). A regemu pair is Algorithm 2 — scan
// collects, a push batch made per write, per-writer state — and costs 10 (36
// while the scan made its scratch per call, 42 while it also made a slice of
// outcomes per server). Coded is pinned apart (TestCodedOpAllocCeiling), by
// bytes.
//
// The file is excluded under -race, where sync.Pool drops items on purpose.
func TestRoundAllocsCeiling(t *testing.T) {
	for _, tc := range []struct {
		kind      runner.Kind
		k         int
		atomic    bool
		valueSize int
		ceiling   float64
	}{
		{runner.KindABDMax, 1, false, 0, 0},
		{runner.KindABDMax, 1, false, 32, 2},
		{runner.KindCASMax, 1, false, 0, 0},
		{runner.KindCASMax, 1, true, 0, 0},
		{runner.KindAACMax, 1, false, 0, 0},
		{runner.KindAACMax, 2, false, 0, 0},
		{runner.KindRegEmu, 1, false, 0, 10},
	} {
		name := fmt.Sprintf("%s/atomic=%v", tc.kind, tc.atomic)
		if tc.k > 1 {
			name += fmt.Sprintf("/k=%d", tc.k)
		}
		if tc.valueSize > 0 {
			name += fmt.Sprintf("/payload=%d", tc.valueSize)
		}
		t.Run(name, func(t *testing.T) {
			env, err := runner.NewEnv(runner.ChaosServers(tc.kind), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, hist, err := runner.BuildWith(tc.kind, env.Fabric, tc.k, 1, runner.BuildOpts{Atomic: tc.atomic, ValueSize: tc.valueSize})
			if err != nil {
				t.Fatal(err)
			}
			hist.SetDiscard(true) // as the sharded store runs it: no history growth in the count
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}
			r := reg.NewReader()
			ctx := context.Background()
			// The completion callbacks are built once, outside the measured
			// pair, so the count holds nothing of the test's own.
			var v types.Value
			completed := 0
			writeDone := func(err error) {
				if err != nil {
					t.Errorf("write %d: %v", v, err)
				}
				completed++
			}
			readDone := func(got types.Value, err error) {
				if err != nil || got != v {
					t.Errorf("read = %d, %v; want %d", got, err, v)
				}
				completed++
			}
			pair := func() {
				v++
				w.StartWrite(ctx, v, writeDone)
				r.StartRead(ctx, readDone)
			}
			pair() // warm the pool and the route table
			if got := testing.AllocsPerRun(1000, pair); got > tc.ceiling {
				t.Fatalf("%s write+read pair allocates %.1f objects, ceiling %.0f: a round, an op record or a store chain is allocating more", tc.kind, got, tc.ceiling)
			} else {
				t.Logf("%s write+read pair: %.1f allocations", tc.kind, got)
			}
			if completed != 2*1002 {
				t.Fatalf("%d operations completed inline on the in-process lane, want %d", completed, 2*1002)
			}
		})
	}
}

// TestRoundAllocsCeilingLatencyLane is the same pair across an asynchronous
// lane: a zero-delay latency lane, each operation awaited. The three rounds'
// nine triggers are listed in flight on the round's own records, staged in its
// own storage and completed through callbacks bound when the slab was made,
// and the lane's event loop reuses its heap, completion buffers and read
// cache, so the hand-off adds nothing to the chain state's 0; before the
// hand-off was recycled the pair cost 66 (a record and two method values per
// trigger, the per-lane staging, the lanes' regrown completion queues).
//
// An operation completes at its quorum, one response early, and a round with
// a response outstanding cannot be recycled — the next one would take a fresh
// attempt from the allocator (AllocsPerRun measures on one P, where a lane's
// goroutine can go unscheduled for a whole time slice while the others
// ping-pong). So the pair also waits, spinning on a passing gate's count,
// until every low-level response is in: what is pinned is the steady state.
//
// An abd-cas pair costs what it costs in process, 0 (5 before the push over
// the chains was pooled): each store's CAS rides its loop record's recycled
// one-op group across the lane like a round's op.
func TestRoundAllocsCeilingLatencyLane(t *testing.T) {
	for _, tc := range []struct {
		kind    runner.Kind
		atomic  bool
		ceiling float64
	}{
		{runner.KindABDMax, false, 0},
		{runner.KindCASMax, false, 0},
		{runner.KindCASMax, true, 0},
	} {
		t.Run(fmt.Sprintf("%s/atomic=%v", tc.kind, tc.atomic), func(t *testing.T) {
			var responses atomic.Int64
			counting := fabric.GateFuncs{Respond: func(fabric.TriggerEvent, baseobj.Response) fabric.Decision {
				responses.Add(1)
				return fabric.Pass
			}}
			env, err := runner.NewEnv(runner.ChaosServers(tc.kind), counting,
				fabric.WithLanes(fabric.LatencyLanes(1, fabric.LatencyProfile{})))
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, hist, err := runner.BuildWith(tc.kind, env.Fabric, 1, 1, runner.BuildOpts{Atomic: tc.atomic})
			if err != nil {
				t.Fatal(err)
			}
			hist.SetDiscard(true)
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}
			r := reg.NewReader()
			ctx := context.Background()
			var v types.Value
			done := make(chan struct{}, 1)
			writeDone := func(err error) {
				if err != nil {
					t.Errorf("write %d: %v", v, err)
				}
				done <- struct{}{}
			}
			readDone := func(got types.Value, err error) {
				if err != nil || got != v {
					t.Errorf("read = %d, %v; want %d", got, err, v)
				}
				done <- struct{}{}
			}
			pair := func() {
				v++
				w.StartWrite(ctx, v, writeDone)
				<-done
				r.StartRead(ctx, readDone)
				<-done
				for want := env.Fabric.Triggers(); uint64(responses.Load()) != want; {
					runtime.Gosched()
				}
			}
			for i := 0; i < 10; i++ { // warm the pool, the lanes' heaps and their buffers
				pair()
			}
			if got := testing.AllocsPerRun(1000, pair); got > tc.ceiling {
				t.Fatalf("%s write+read pair on the latency lane allocates %.1f objects, ceiling %.0f: the lane hand-off or an op record is allocating again", tc.kind, got, tc.ceiling)
			} else {
				t.Logf("%s write+read pair on the latency lane: %.1f allocations", tc.kind, got)
			}
		})
	}
}
