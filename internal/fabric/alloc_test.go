//go:build !race

package fabric

import (
	"sync"
	"testing"

	"repro/internal/types"
)

// loopLane is a minimal asynchronous GroupLane: one goroutine applies and
// completes whatever it is handed, in order. It keeps to the lending rule — it
// reads the slice for the last time before it completes that slice's last op.
type loopLane struct {
	mb   chan []LaneOp
	one  chan LaneOp // single ops travel by value: the test lane allocates nothing either
	stop chan struct{}
	once sync.Once
}

func newLoopLane() *loopLane {
	// Room for a whole test batch: no hand-off blocks.
	l := &loopLane{mb: make(chan []LaneOp, 16), one: make(chan LaneOp, 16), stop: make(chan struct{})}
	go func() {
		for {
			select {
			case ops := <-l.mb:
				for i, n := 0, len(ops); i < n; i++ {
					apply, complete := ops[i].Apply, ops[i].Complete
					complete(apply())
				}
			case op := <-l.one:
				op.Complete(op.Apply())
			case <-l.stop:
				return
			}
		}
	}()
	return l
}

func (l *loopLane) Deliver(ev TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	l.one <- LaneOp{Ev: ev, Apply: apply, Complete: complete}
}
func (l *loopLane) DeliverGroup(ops []LaneOp) { l.mb <- ops }
func (l *loopLane) Close() error              { l.once.Do(func() { close(l.stop) }); return nil }

// TestGroupHandoffAllocCeiling pins the hand-off to an asynchronous lane at
// zero: on a recycled group a 3-op batch — one op per server, all on one
// goroutine-backed lane — lists its ops in flight on the group's own records,
// stages them in the group's own []LaneOp and completes through callbacks
// bound when the slab was made. At the parent commit the same batch cost 13:
// a record and two method values per op, the per-lane table and its slices.
// A lone op is a recycled one-op group, and costs the same nothing.
func TestGroupHandoffAllocCeiling(t *testing.T) {
	lane := newLoopLane()
	fab, objs := laneEnv(t, func(types.ServerID) Lane { return lane }, nil)
	for _, n := range []int{3, 1} {
		released := make(chan struct{}, 1)
		g := &Group{Released: func() { released <- struct{}{} }}
		batch := func() {
			fillReads(g, objs[:n])
			fab.TriggerBatch(1, g)
			<-released
		}
		batch() // make the slabs
		if got := testing.AllocsPerRun(1000, batch); got != 0 {
			t.Fatalf("a recycled %d-op batch on an asynchronous lane allocates %.1f objects, want 0", n, got)
		}
	}
	if n := len(fab.Pending()); n != 0 {
		t.Fatalf("%d operations still pending", n)
	}
}

// TestGroupReleaseAllocCeiling: releasing an op the apply gate held on an
// asynchronous lane lists the record it was parked on in flight again and
// hands the lane the callbacks that record already has, so the whole cycle —
// scatter, park, release, complete — still allocates nothing. At the parent
// commit the release made a second record and two more method values.
func TestGroupReleaseAllocCeiling(t *testing.T) {
	lane := newLoopLane()
	fab, objs := laneEnv(t, func(types.ServerID) Lane { return lane }, holdServer2Apply)
	released := make(chan struct{}, 1)
	g := &Group{Released: func() { released <- struct{}{} }}
	cycle := func() {
		fillReads(g, objs)
		fab.TriggerBatch(1, g)
		// Op 2 was parked inside the pass, and pins the group until released.
		if err := fab.Release(g.calls[2].ev.Token); err != nil {
			t.Fatal(err)
		}
		<-released
	}
	cycle()
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("scatter, hold and release of a recycled batch allocates %.1f objects, want 0", got)
	}
}

// TestGroupInProcHoldAllocCeiling: a gate hold on the in-process lane rides
// the op's own call like everywhere else, so scatter, hold, release and
// completion of a recycled batch allocate nothing, whichever gate held. At
// the parent commit every hold made a record of its own.
func TestGroupInProcHoldAllocCeiling(t *testing.T) {
	for phase, gate := range map[Phase]Gate{PhaseApply: holdServer2Apply, PhaseRespond: holdServer2} {
		fab, objs := laneEnv(t, groupLanes["inproc"], gate)
		g := new(Group)
		cycle := func() {
			fillReads(g, objs)
			fab.TriggerBatch(1, g)
			if err := fab.Release(g.calls[2].ev.Token); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if got := testing.AllocsPerRun(1000, cycle); got != 0 {
			t.Fatalf("scatter, %v hold and release of a recycled in-process batch allocates %.1f objects, want 0", phase, got)
		}
	}
}
