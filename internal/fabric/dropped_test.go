package fabric

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/types"
)

// dropThreeWays loses one op to a crash of server 0 along each path that
// fills lane.dropped — a gate-held op and an in-flight op swept up by the
// Crash drain, and an op triggered on the already dead server — and returns
// what Pending must report for them plus weak handles on their one-op groups.
// The groups themselves go out of scope with this frame, the way a client's
// do once its quorum round completed without the dead server.
//
//go:noinline
func dropThreeWays(t *testing.T, fab *Fabric, obj types.ObjectID) (want []PendingOp, ops []weak.Pointer[testOp]) {
	t.Helper()
	held := trigger(fab, 0, obj, writeInv(1, 10))     // client 0's writes are gate-held
	inflight := trigger(fab, 1, obj, writeInv(2, 20)) // on the wire of a slow lane
	before := fab.Pending()
	if len(before) != 2 || before[0].Phase != PhaseApply || before[1].Phase != PhaseInFlight {
		t.Fatalf("Pending before the crash = %+v, want a held and an in-flight op", before)
	}
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	late := trigger(fab, 2, obj, readInv())
	for _, op := range []*testOp{held, inflight, late} {
		want = append(want, PendingOp{Event: op.Event(), Phase: PhaseDropped})
		ops = append(ops, weak.Make(op))
	}
	return want, ops
}

// TestDroppedOpsKeepOnlyTheirEvent pins both halves of the dropped-op
// contract: Pending and CoveredObjects report a crashed server's ops exactly
// as before — same events, token order, PhaseDropped — and the fabric holds
// nothing else of them, so a dropped op's call (and with it its group, the
// route and the completion closures it pins) is collectable as soon as its
// client lets go.
func TestDroppedOpsKeepOnlyTheirEvent(t *testing.T) {
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Client == 0 {
			return Hold
		}
		return Pass
	}}
	fab, objs := laneEnv(t, LatencyLanes(1, LatencyProfile{Base: 20 * time.Millisecond}), gate)
	want, ops := dropThreeWays(t, fab, objs[0])

	if got := fab.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pending after the crash =\n%+v\nwant\n%+v", got, want)
	}
	if got := fab.CoveredObjects(); len(got) != 1 || got[0] != objs[0] {
		t.Fatalf("CoveredObjects = %v, want [%d]", got, objs[0])
	}

	// The in-flight op's lane hand-off stays referenced by the lane's delay
	// heap until its delivery time passes, so poll the collector rather
	// than assert after one cycle.
	deadline := time.Now().Add(10 * time.Second)
	for i, name := range []string{"held", "in-flight", "triggered after the crash"} {
		for ops[i].Value() != nil {
			if time.Now().After(deadline) {
				t.Fatalf("the %s op's group is still reachable: the fabric pins dropped ops", name)
			}
			time.Sleep(5 * time.Millisecond)
			runtime.GC()
		}
	}
	if got := fab.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pending after the groups were collected =\n%+v\nwant\n%+v", got, want)
	}
}
