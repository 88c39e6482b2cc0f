//go:build !race

package lanenet

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// TestClientPipelineAllocCeiling pins what a round trip costs the client's
// allocator once the connection is warm: 64 reads enter in one hand-off, two
// per register, so every wire request carries one coalesced caller, and all
// 64 are answered before the next batch. The flusher's read map and request
// list, the coalesced callers' arrays and the slot table are all reused, so
// the count is the node's (it shares the process, and answers a payload-free
// read without allocating) plus nothing. Before the arrays were recycled and
// the map kept, a batch like this cost one map and 32 arrays.
func TestClientPipelineAllocCeiling(t *testing.T) {
	const depth, ceiling = 64, 0.1
	addrs, _ := startNodes(t, 1)
	c, err := Dial(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var left atomic.Int32
	var bad atomic.Int32
	answered := make(chan struct{}, 1)
	complete := func(resp baseobj.Response, err error) {
		if err != nil {
			bad.Add(1)
		}
		if left.Add(-1) == 0 {
			answered <- struct{}{}
		}
	}
	ops := make([]fabric.LaneOp, depth)
	for i := range ops {
		obj := types.ObjectID(i / 2)
		if i%2 == 0 {
			c.MirrorObject(baseobj.NewRegister(obj))
		}
		ops[i] = fabric.LaneOp{
			Ev:       fabric.TriggerEvent{Client: types.ClientID(i), Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}},
			Complete: complete,
		}
	}
	batch := func() {
		left.Store(depth)
		c.DeliverGroup(ops)
		<-answered
	}
	for i := 0; i < 10; i++ { // grow the queue, the write buffer, the ring and the spare arrays
		batch()
	}
	before := c.CoalescedReads()
	const runs = 200
	perBatch := testing.AllocsPerRun(runs, batch)
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d reads failed", n)
	}
	if got := c.CoalescedReads() - before; got != (runs+1)*depth/2 {
		t.Fatalf("%d reads coalesced over %d batches, want half of each", got, runs+1)
	}
	if perOp := perBatch / depth; perOp > ceiling {
		t.Fatalf("%.3f allocations per round trip (%.1f per %d-deep batch), ceiling %.1f: the flusher or the read loop is allocating again", perOp, perBatch, depth, ceiling)
	} else {
		t.Logf("%.3f allocations per round trip (%.1f per %d-deep batch)", perOp, perBatch, depth)
	}
}
