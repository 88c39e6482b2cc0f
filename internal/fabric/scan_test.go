package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// scanEnv builds a cluster whose single server hosts k registers — the
// shape a snapshot scan must read as one consistent cut.
func scanEnv(t *testing.T, k int, maker LaneMaker) (*Fabric, []types.ObjectID) {
	t.Helper()
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
	var opts []Option
	if maker != nil {
		opts = append(opts, WithLanes(maker))
	}
	fab := New(c, opts...)
	t.Cleanup(func() { fab.Close() })
	return fab, objs
}

// awaitScan triggers one snapshot scan over objs and returns the observed
// timestamps in placement order.
func awaitScan(t *testing.T, fab *Fabric, client types.ClientID, objs []types.ObjectID) []uint64 {
	t.Helper()
	ts := make([]uint64, len(objs))
	var wg sync.WaitGroup
	wg.Add(len(objs))
	g := &Group{Ops: make([]BatchOp, len(objs)), Done: func(i int, o *Outcome) {
		if o.Err != nil {
			t.Errorf("scan read: %v", o.Err)
		}
		ts[i] = o.Resp.Val.TS
		wg.Done()
	}}
	for i, obj := range objs {
		g.Ops[i] = BatchOp{Object: obj, Inv: readInv()}
	}
	fab.TriggerScan(client, g)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scan never completed")
	}
	return ts
}

// TestScanSnapshotNoTornReads is the torn-scan regression: a writer walks
// the server's registers in placement order, bumping each to round r before
// moving on, so at every instant the timestamps are non-increasing along
// the placement order. Concurrent snapshot scans — including many queued
// scans taken in one mailbox drain — must observe a consistent cut, never
// the torn shape (a later register ahead of an earlier one). Run under
// -race: the scans race the writer by design.
func TestScanSnapshotNoTornReads(t *testing.T) {
	backends := []struct {
		name  string
		maker LaneMaker
	}{
		{"inproc", nil},
		{"latency", LatencyLanes(11, LatencyProfile{Jitter: 30 * time.Microsecond})},
	}
	for _, be := range backends {
		be := be
		t.Run("lane="+be.name, func(t *testing.T) {
			const k, rounds, scanners = 4, 40, 6
			fab, objs := scanEnv(t, k, be.maker)

			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				for r := 1; r <= rounds; r++ {
					for _, obj := range objs {
						if o := waitOutcome(t, fab, 0, obj, writeInv(uint64(r), types.Value(r))); o.Err != nil {
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
						ts := awaitScan(t, fab, client, objs)
						for i := 1; i < len(ts); i++ {
							if ts[i] > ts[i-1] {
								t.Errorf("torn scan: %v (register %d ahead of %d)", ts, i, i-1)
								return
							}
						}
					}
				}(s)
			}
			wg.Wait()
		})
	}
}

// TestLatencyLaneCrashBetweenDequeueAndSnapshot crashes the server inside
// the event loop's window between dequeuing a scan group from the mailbox
// and drawing its delivery delay: the scan's ops must be dropped — never
// completed, never applied — exactly like any in-flight op on a crashed
// server.
func TestLatencyLaneCrashBetweenDequeueAndSnapshot(t *testing.T) {
	lane := NewLatencyLane(5, LatencyProfile{Base: 2 * time.Millisecond})
	fab, objs := scanEnv(t, 3, func(types.ServerID) Lane { return lane })

	var once sync.Once
	lane.testHook = func() {
		once.Do(func() {
			if err := fab.Crash(0); err != nil {
				t.Errorf("crash: %v", err)
			}
		})
	}

	var completed atomic.Int32
	g := &Group{Ops: make([]BatchOp, len(objs)), Done: func(int, *Outcome) { completed.Add(1) }}
	for i, obj := range objs {
		g.Ops[i] = BatchOp{Object: obj, Inv: readInv()}
	}
	fab.TriggerScan(1, g)

	// Wait well past the delivery delay: nothing may complete.
	time.Sleep(20 * time.Millisecond)
	if got := fab.Cluster().Crashes(); got != 1 {
		t.Fatalf("crashes = %d, want 1", got)
	}
	if n := completed.Load(); n != 0 {
		t.Fatalf("%d scan ops completed after crash in the dequeue window", n)
	}
	var dropped int
	for _, p := range fab.Pending() {
		if p.Phase == PhaseDropped {
			dropped++
		}
	}
	if dropped != len(objs) {
		t.Fatalf("dropped = %d, want %d", dropped, len(objs))
	}
}
