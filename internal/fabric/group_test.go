package fabric

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// groupLanes are the backends the group lifetime rule is pinned on: the
// in-process lane completes ops inside the dispatch pass (the pass's own
// reference is what keeps the slab alive under it), the latency lane from
// its event loops.
var groupLanes = map[string]LaneMaker{
	"inproc":  func(types.ServerID) Lane { return InProcLane{} },
	"latency": LatencyLanes(7, testProfile),
}

// holdServer2 holds every response of server 2 at the respond gate.
var holdServer2 = GateFuncs{Respond: func(ev TriggerEvent, _ baseobj.Response) Decision {
	if ev.Server == 2 {
		return Hold
	}
	return Pass
}}

// countedGroup is a read group over objs that counts completions and
// releases.
func countedGroup(objs []types.ObjectID) (g *Group, done, released *atomic.Int32) {
	done, released = new(atomic.Int32), new(atomic.Int32)
	g = &Group{
		Done:     func(int, Outcome) { done.Add(1) },
		Released: func() { released.Add(1) },
	}
	fillReads(g, objs)
	return g, done, released
}

func fillReads(g *Group, objs []types.ObjectID) {
	g.Ops = g.Ops[:0]
	for _, obj := range objs {
		g.Ops = append(g.Ops, BatchOp{Object: obj, Inv: readInv()})
	}
}

// waitUntil polls cond, failing the test if it stays false.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func waitCount(t *testing.T, what string, n *atomic.Int32, want int32) {
	t.Helper()
	waitUntil(t, what, func() bool { return n.Load() == want })
}

// awaitHeld waits until exactly one response is parked at the gate.
func awaitHeld(t *testing.T, fab *Fabric) {
	t.Helper()
	waitUntil(t, "one response held at the gate", func() bool {
		held := 0
		for _, p := range fab.Pending() {
			if p.Phase == PhaseRespond {
				held++
			}
		}
		return held == 1
	})
}

// TestGroupLaneLifetime pins the reference-count rule on both lanes: a group
// whose quorum (two of three ops) completed is NOT released while its third
// response is held at the gate; releasing that response releases the group
// exactly once, with its storage zeroed; and the released group, refilled,
// scatters again on the same slabs.
func TestGroupLaneLifetime(t *testing.T) {
	for name, maker := range groupLanes {
		t.Run(name, func(t *testing.T) {
			fab, objs := laneEnv(t, maker, holdServer2)
			g, done, released := countedGroup(objs)
			fab.TriggerBatch(1, g)
			waitCount(t, "completions with server 2 held", done, 2)
			awaitHeld(t, fab)
			if n := released.Load(); n != 0 {
				t.Fatalf("group released %d times with an op still held", n)
			}
			slab := &g.calls[0]

			if n := fab.ReleaseWhere(func(PendingOp) bool { return true }); n != 1 {
				t.Fatalf("released %d held ops, want 1", n)
			}
			waitCount(t, "completions after the release", done, 3)
			waitCount(t, "group releases", released, 1)
			for i := range g.Ops {
				if g.Ops[i].Object != 0 || g.calls[i].g != nil || g.calls[i].ev.Token != 0 {
					t.Fatalf("op %d not zeroed at release: %+v / %+v", i, g.Ops[i], g.calls[i].ev)
				}
			}

			fillReads(g, objs)
			fab.TriggerBatch(1, g)
			waitCount(t, "completions of the second scatter", done, 5)
			if &g.calls[0] != slab {
				t.Fatal("second scatter did not reuse the call slab")
			}
			awaitHeld(t, fab)
			fab.ReleaseWhere(func(PendingOp) bool { return true })
			waitCount(t, "completions of the second scatter", done, 6)
			waitCount(t, "group releases", released, 2)
		})
	}
}

// TestGroupLaneCrashNeverReleased: an op lost to a crash never completes, so
// its group is never released — it is garbage, not a pool entry — while
// Pending keeps reporting the dropped event, which lives in the lane's own
// table and not in the group's slab.
func TestGroupLaneCrashNeverReleased(t *testing.T) {
	for name, maker := range groupLanes {
		t.Run(name, func(t *testing.T) {
			fab, objs := laneEnv(t, maker, holdServer2)
			g, done, released := countedGroup(objs)
			fab.TriggerBatch(1, g)
			waitCount(t, "completions with server 2 held", done, 2)
			awaitHeld(t, fab)
			if err := fab.Crash(2); err != nil {
				t.Fatal(err)
			}
			if n := fab.ReleaseWhere(func(PendingOp) bool { return true }); n != 0 {
				t.Fatalf("released %d ops of a crashed server", n)
			}
			// Later rounds on the survivors come and go.
			for i := 0; i < 100; i++ {
				g2, done2, released2 := countedGroup(objs[:2])
				fab.TriggerBatch(1, g2)
				waitCount(t, "survivor completions", done2, 2)
				waitCount(t, "survivor group releases", released2, 1)
			}
			if d, r := done.Load(), released.Load(); d != 2 || r != 0 {
				t.Fatalf("crashed round: %d completions, %d releases; want 2 and 0", d, r)
			}
			pending := fab.Pending()
			if len(pending) != 1 || pending[0].Phase != PhaseDropped {
				t.Fatalf("Pending = %+v, want the one dropped op", pending)
			}
			ev := pending[0].Event
			if ev.Client != 1 || ev.Object != objs[2] || ev.Server != 2 || ev.Inv.Op != baseobj.OpRead || ev.Token == 0 {
				t.Fatalf("dropped event = %+v, want client 1's read of object %d on server 2", ev, objs[2])
			}
		})
	}
}
