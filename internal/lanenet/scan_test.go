package lanenet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/types"
)

// scanNetEnv builds a single-node cluster hosting k registers behind TCP
// lanes — the shape a remote snapshot scan must read as one consistent cut.
func scanNetEnv(t *testing.T, k int) (*fabric.Fabric, []types.ObjectID, []*Client) {
	t.Helper()
	addrs, _ := startNodes(t, 1)
	maker, clients, err := Lanes(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(1)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, k)
	for i := range objs {
		obj, err := c.PlaceRegister(0, baseobj.WriterRange{})
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = obj
	}
	fab := fabric.New(c, fabric.WithLanes(maker))
	t.Cleanup(func() { fab.Close() })
	return fab, objs, clients
}

// awaitNetScan triggers one snapshot scan over objs and returns the
// observed timestamps in placement order.
func awaitNetScan(t *testing.T, fab *fabric.Fabric, client types.ClientID, objs []types.ObjectID) []uint64 {
	t.Helper()
	ts := make([]uint64, len(objs))
	var wg sync.WaitGroup
	wg.Add(len(objs))
	g := &fabric.Group{Ops: make([]fabric.BatchOp, len(objs)), Done: func(i int, o *fabric.Outcome) {
		if o.Err != nil {
			t.Errorf("scan read: %v", o.Err)
		}
		ts[i] = o.Resp.Val.TS
		wg.Done()
	}}
	for i, obj := range objs {
		g.Ops[i] = fabric.BatchOp{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}
	}
	fab.TriggerScan(client, g)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("remote scan never completed")
	}
	return ts
}

// TestTCPLaneScanSnapshotNoTornReads is the torn-scan regression over the
// wire: a writer bumps the node's registers to round r in placement order,
// so at every instant the stored timestamps are non-increasing along that
// order. Concurrent msgScan snapshots — applied under the node's exclusive
// lock — must never observe the torn shape, even though each scan travels
// as one pipelined frame among many in-flight requests.
func TestTCPLaneScanSnapshotNoTornReads(t *testing.T) {
	const k, rounds, scanners = 4, 25, 4
	fab, objs, _ := scanNetEnv(t, k)

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for r := 1; r <= rounds; r++ {
			for _, obj := range objs {
				o := await(t, fab, 0, obj, baseobj.Invocation{
					Op:  baseobj.OpWrite,
					Arg: types.TSValue{TS: uint64(r), Writer: 0, Val: types.Value(r)},
				})
				if o.Err != nil {
					t.Errorf("write round %d: %v", r, o.Err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client := types.ClientID(s + 1)
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				ts := awaitNetScan(t, fab, client, objs)
				for i := 1; i < len(ts); i++ {
					if ts[i] > ts[i-1] {
						t.Errorf("torn remote scan: %v (register %d ahead of %d)", ts, i, i-1)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestTCPLaneCrashBetweenDequeueAndWrite severs the connection inside the
// flusher's window between dequeuing a batch holding a scan and writing its
// frames: the write fails, the lane crashes, and the scan's ops must never
// complete — the remote twin of the event loop's dequeue-window crash.
func TestTCPLaneCrashBetweenDequeueAndWrite(t *testing.T) {
	addrs, _ := startNodes(t, 1)
	maker, clients, err := Lanes(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Install the hook before anything can queue: it fires on every flush
	// but only severs the transport once armed.
	var armed atomic.Bool
	clients[0].testHook = func() {
		if armed.Load() {
			clients[0].conn.Close()
		}
	}

	c, err := cluster.New(1)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, 3)
	for i := range objs {
		obj, err := c.PlaceRegister(0, baseobj.WriterRange{})
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = obj
	}
	fab := fabric.New(c, fabric.WithLanes(maker))
	t.Cleanup(func() { fab.Close() })

	// Warm every route so the scan batch holds no placements.
	for _, obj := range objs {
		if o := await(t, fab, 0, obj, baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil {
			t.Fatal(o.Err)
		}
	}

	armed.Store(true)
	var completed atomic.Int32
	g := &fabric.Group{Ops: make([]fabric.BatchOp, len(objs)), Done: func(int, *fabric.Outcome) { completed.Add(1) }}
	for i, obj := range objs {
		g.Ops[i] = fabric.BatchOp{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}
	}
	fab.TriggerScan(1, g)

	deadline := time.Now().Add(5 * time.Second)
	for fab.Cluster().Crashes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("severed write never crashed the server")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if n := completed.Load(); n != 0 {
		t.Fatalf("%d scan ops completed after crash in the flush window", n)
	}
}

// TestTCPLanePipelinedReadsCoalesce: reads of the same object drained in
// one flusher batch collapse onto one wire request, and the single response
// answers every caller correctly. The reads enter through DeliverGroup — one
// queue append under qmu, hence one drain — so the batch is deterministic.
func TestTCPLanePipelinedReadsCoalesce(t *testing.T) {
	fab, objs, clients := scanNetEnv(t, 1)
	o := await(t, fab, 0, objs[0], baseobj.Invocation{
		Op:  baseobj.OpWrite,
		Arg: types.TSValue{TS: 1, Writer: 0, Val: 42},
	})
	if o.Err != nil {
		t.Fatalf("write: %v", o.Err)
	}

	const readers = 16
	var wg sync.WaitGroup
	var bad atomic.Int64
	wg.Add(readers)
	ops := make([]fabric.LaneOp, readers)
	for i := range ops {
		ops[i] = fabric.LaneOp{
			Ev: fabric.TriggerEvent{Client: types.ClientID(i + 1), Object: objs[0], Inv: baseobj.Invocation{Op: baseobj.OpRead}},
			Complete: func(resp baseobj.Response, err error) {
				if err != nil || resp.Val.Val != 42 {
					bad.Add(1)
				}
				wg.Done()
			},
		}
	}
	clients[0].DeliverGroup(ops)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pipelined reads never completed")
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d coalesced reads returned the wrong value", n)
	}
	if got := clients[0].CoalescedReads(); got != readers-1 {
		t.Fatalf("coalesced %d reads, want %d: %d same-object reads in one batch share one request", got, readers-1, readers)
	}
}

// TestTCPLanePipelineManyInFlight floods one connection with concurrent
// writes — all multiplexed by request ID over the single pipelined socket —
// and checks the register converges on the highest timestamp.
func TestTCPLanePipelineManyInFlight(t *testing.T) {
	fab, objs, _ := scanNetEnv(t, 1)
	const writers = 64
	done := make([]<-chan fabric.Outcome, writers)
	for i := range done {
		done[i] = trigger(fab, 0, objs[0], baseobj.Invocation{
			Op:  baseobj.OpWrite,
			Arg: types.TSValue{TS: uint64(i + 1), Writer: 0, Val: types.Value(i + 1)},
		})
	}
	failed, timeout := 0, time.After(10*time.Second)
	for _, d := range done {
		select {
		case o := <-d:
			if o.Err != nil {
				failed++
			}
		case <-timeout:
			t.Fatal("pipelined writes never completed")
		}
	}
	if failed != 0 {
		t.Fatalf("%d pipelined writes failed", failed)
	}
	o := await(t, fab, 1, objs[0], baseobj.Invocation{Op: baseobj.OpRead})
	if o.Err != nil || o.Resp.Val.TS != writers {
		t.Fatalf("read after %d pipelined writes = %+v, want TS %d", writers, o, writers)
	}
}
