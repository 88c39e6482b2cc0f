package fabric

import (
	"context"
	"sync"
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

// holdServer2Apply holds every op of server 2 at the apply gate.
var holdServer2Apply = GateFuncs{Apply: func(ev TriggerEvent) Decision {
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
		Done:     func(int, *Outcome) { done.Add(1) },
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

// wireLane is an asynchronous GroupLane under the test's control: it keeps
// the very slices it is handed — the round's own staging, not copies — and
// completes nothing until told to, on the test's goroutine.
type wireLane struct {
	mu   sync.Mutex
	wire [][]LaneOp
}

func (w *wireLane) Deliver(ev TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	w.DeliverGroup([]LaneOp{{Ev: ev, Apply: apply, Complete: complete}})
}

func (w *wireLane) DeliverGroup(ops []LaneOp) {
	w.mu.Lock()
	w.wire = append(w.wire, ops)
	w.mu.Unlock()
}

func (w *wireLane) Close() error { return nil }

// take empties the wire.
func (w *wireLane) take() [][]LaneOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	wire := w.wire
	w.wire = nil
	return wire
}

// answer applies and completes everything on the wire, reading each slice for
// the last time before completing its last op, and reports how many ops.
func (w *wireLane) answer() int {
	n := 0
	for _, ops := range w.take() {
		for i, last := 0, len(ops)-1; i <= last; i++ {
			apply, complete := ops[i].Apply, ops[i].Complete
			complete(apply())
			n++
		}
	}
	return n
}

// wireEnv is laneEnv over one wireLane per server.
func wireEnv(t *testing.T, gate Gate) (*Fabric, []types.ObjectID, []*wireLane) {
	t.Helper()
	wires := []*wireLane{{}, {}, {}}
	fab, objs := laneEnv(t, func(s types.ServerID) Lane { return wires[s] }, gate)
	return fab, objs, wires
}

// quickProfile keeps the latency-lane lifetime tests short: thousands of
// rounds, each reordered by jitter.
var quickProfile = LatencyProfile{Base: 2 * time.Microsecond, Jitter: 20 * time.Microsecond}

// recordedGroup is a group of up to four ops that records each op's outcome
// and counts how often each index completed.
type recordedGroup struct {
	Group
	out      [4]Outcome
	hits     [4]atomic.Int32
	released atomic.Int32
}

func newRecordedGroup() *recordedGroup {
	g := new(recordedGroup)
	g.Done = func(i int, o *Outcome) { g.out[i] = *o; g.hits[i].Add(1) }
	g.Released = func() { g.released.Add(1) }
	return g
}

// heldRecord returns the record lane server holds under token, nil if none.
func heldRecord(fab *Fabric, server types.ServerID, token uint64) *call {
	l := fab.laneFor(server)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.held[token]
}

// TestGroupLaneRespondHeldRecordLifetime: on the latency lane a response the
// gate holds is parked on the group's own slab record — listed by Pending as
// held-respond — and that pins the group: its quorum of two completed, it is
// not released. Releasing the op releases the group once, records and staging
// zeroed but for the callbacks bound when the slab was made; and over hundreds
// of further rounds on the same slabs, each with its own straggler released
// late, every op completes exactly once with its own round's value.
func TestGroupLaneRespondHeldRecordLifetime(t *testing.T) {
	fab, objs := laneEnv(t, LatencyLanes(7, quickProfile), holdServer2)
	g := newRecordedGroup()
	// round scatters one op per server and returns once server 2's response is
	// the only thing outstanding; finish releases it and awaits the group.
	rounds := int32(0)
	round := func(inv func(i int) baseobj.Invocation) (token uint64) {
		g.Ops = g.Ops[:0]
		for i, obj := range objs {
			g.Ops = append(g.Ops, BatchOp{Object: obj, Inv: inv(i)})
		}
		fab.TriggerBatch(1, &g.Group)
		waitUntil(t, "the quorum and the held straggler", func() bool {
			p := fab.Pending()
			return g.hits[0].Load() == rounds+1 && g.hits[1].Load() == rounds+1 && len(p) == 1 && p[0].Phase == PhaseRespond
		})
		return fab.Pending()[0].Event.Token
	}
	finish := func(token uint64) {
		if err := fab.Release(token); err != nil {
			t.Fatal(err)
		}
		rounds++
		waitCount(t, "group releases", &g.released, rounds)
		for i := range objs {
			if n := g.hits[i].Load(); n != rounds {
				t.Fatalf("op %d completed %d times over %d rounds", i, n, rounds)
			}
		}
	}

	token := round(func(i int) baseobj.Invocation { return writeInv(1, types.Value(i)) })
	if h := heldRecord(fab, 2, token); h != &g.calls[2] {
		t.Fatalf("server 2's held response is parked on %p, want the group's record %p", h, &g.calls[2])
	}
	if n := g.released.Load(); n != 0 {
		t.Fatalf("group released %d times with a record parked", n)
	}
	recs, staging := g.calls, g.staging
	finish(token)
	for i := range recs {
		if h := &recs[i]; h.e != nil || h.lane != nil || h.g != nil || h.f != nil || h.next != nil || h.out.Resp.Op != 0 || h.applyFn == nil || h.completeFn == nil {
			t.Fatalf("record %d at release: %+v, want it zeroed but for its bound callbacks", i, h)
		}
		if op := &staging[i]; op.Ev.Token != 0 || op.Apply != nil || op.Complete != nil {
			t.Fatalf("staging %d not zeroed at release: %+v", i, op.Ev)
		}
	}

	for r := 1; r <= 300; r++ {
		finish(round(func(i int) baseobj.Invocation { return writeInv(uint64(r), types.Value(10*r+i)) }))
		finish(round(func(int) baseobj.Invocation { return readInv() }))
		for i := range objs {
			if o := g.out[i]; o.Err != nil || o.Resp.Val.Val != types.Value(10*r+i) {
				t.Fatalf("round %d: op %d read %+v, want value %d", r, i, o, 10*r+i)
			}
		}
		if &g.calls[:1][0] != &recs[0] || &g.staging[:1][0] != &staging[0] {
			t.Fatalf("round %d left the slabs the first round made", r)
		}
	}
}

// TestGroupLaneCrashOnTheWireNeverReleased: a server crashing with a group's
// op on the wire unlists the record and keeps only the event; the group is
// never released — its slabs stay the crashed round's, so the completion the
// lane delivers afterwards finds its own record, loses the claim and is
// discarded — while later rounds come and go on slabs of their own.
func TestGroupLaneCrashOnTheWireNeverReleased(t *testing.T) {
	fab, objs, wires := wireEnv(t, nil)
	g, done, released := countedGroup(objs)
	fab.TriggerBatch(1, g)
	if p := fab.Pending(); len(p) != 3 || p[2].Phase != PhaseInFlight || p[2].Event.Server != 2 {
		t.Fatalf("Pending with the round on the wire = %+v, want three ops in flight", p)
	}
	if err := fab.Crash(2); err != nil {
		t.Fatal(err)
	}
	lost := wires[2].take()
	if n := wires[0].answer() + wires[1].answer(); n != 2 || done.Load() != 2 {
		t.Fatalf("%d survivor ops answered, %d completed; want 2 and 2", n, done.Load())
	}
	check := func(when string) {
		t.Helper()
		p := fab.Pending()
		if len(p) != 1 || p[0].Phase != PhaseDropped || p[0].Event.Token != g.calls[2].ev.Token || p[0].Event.Object != objs[2] {
			t.Fatalf("Pending %s = %+v, want the one dropped op of server 2", when, p)
		}
		if d, r := done.Load(), released.Load(); d != 2 || r != 0 {
			t.Fatalf("%s: %d completions, %d releases; want 2 and 0", when, d, r)
		}
		if h := &g.calls[2]; h.g != g || h.next != nil {
			t.Fatalf("%s: record 2 = %+v, want the dropped op's, unlisted", when, h)
		}
	}
	check("after the crash")

	g2, done2, released2 := countedGroup(objs[:2])
	for i := int32(1); i <= 100; i++ {
		fillReads(g2, objs[:2])
		fab.TriggerBatch(1, g2)
		if n := wires[0].answer() + wires[1].answer(); n != 2 || done2.Load() != 2*i || released2.Load() != i {
			t.Fatalf("later round %d: %d answered, %d completed, %d releases", i, n, done2.Load(), released2.Load())
		}
	}

	late := lost[0][0] // the lane delivers the lost op after all
	late.Complete(late.Apply())
	check("after the late completion")
}

// tallyLane counts the ops its latency lane is handed.
type tallyLane struct {
	*LatencyLane
	handed atomic.Int32
}

func (l *tallyLane) Deliver(ev TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	l.handed.Add(1)
	l.LatencyLane.Deliver(ev, apply, complete)
}

func (l *tallyLane) DeliverGroup(ops []LaneOp) {
	l.handed.Add(int32(len(ops)))
	l.LatencyLane.DeliverGroup(ops)
}

func (l *tallyLane) DeliverScan(ops []LaneOp) {
	l.handed.Add(int32(len(ops)))
	l.LatencyLane.DeliverScan(ops)
}

// TestGroupLaneResizeFreezesBetweenStagingAndHandoff freezes server 1 in the
// middle of a dispatch pass: after the lookups counted a window for its lane,
// before its op is admitted (op 0's apply gate opens the swap and waits for
// the freeze). The frozen lane's op completes with a view-change error and is
// never handed to the lane — its window stays empty while its neighbours' are
// delivered — and the retry, on the same recycled slabs, finds the object on
// the joiner.
func TestGroupLaneResizeFreezesBetweenStagingAndHandoff(t *testing.T) {
	var mu sync.Mutex
	tallies := make(map[types.ServerID]*tallyLane)
	maker := func(s types.ServerID) Lane {
		l := &tallyLane{LatencyLane: NewLatencyLane(int64(s), quickProfile)}
		mu.Lock()
		tallies[s] = l
		mu.Unlock()
		return l
	}
	handed := func(s types.ServerID) int32 {
		mu.Lock()
		defer mu.Unlock()
		return tallies[s].handed.Load()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var fab *Fabric
	var armed atomic.Bool
	frozen, replaced := make(chan struct{}), make(chan error, 1)
	var joiner types.ServerID
	gate := GateFuncs{Apply: func(ev TriggerEvent) Decision {
		if ev.Server == 0 && armed.CompareAndSwap(true, false) {
			go func() {
				var err error
				joiner, err = swap(ctx, fab, 1)
				replaced <- err
			}()
			<-frozen
		}
		return Pass
	}}
	fab, objs := laneEnv(t, maker, gate)
	fab.HookTransition(func() { close(frozen) }, nil)

	g := newRecordedGroup()
	for i, obj := range objs {
		g.Ops = append(g.Ops, BatchOp{Object: obj, Inv: writeInv(1, types.Value(10+i))})
	}
	armed.Store(true)
	fab.TriggerBatch(1, &g.Group)
	waitCount(t, "group releases", &g.released, 1)
	if err := <-replaced; err != nil {
		t.Fatalf("swap of server 1: %v", err)
	}
	if g.out[0].Err != nil || g.out[2].Err != nil || !IsViewChange(g.out[1].Err) {
		t.Fatalf("outcomes %v / %v / %v, want a view-change error for the frozen lane's op only", g.out[0].Err, g.out[1].Err, g.out[2].Err)
	}
	if a, b, c := handed(0), handed(1), handed(2); a != 1 || b != 0 || c != 1 {
		t.Fatalf("lanes were handed %d / %d / %d ops, want 1 / 0 / 1: the bounced op must not be delivered", a, b, c)
	}

	g.Ops = append(g.Ops[:0], BatchOp{Object: objs[1], Inv: writeInv(1, 11)})
	for _, obj := range objs {
		g.Ops = append(g.Ops, BatchOp{Object: obj, Inv: readInv()})
	}
	fab.TriggerBatch(1, &g.Group) // a 4-op round: the slabs grow and are rebound
	waitCount(t, "group releases", &g.released, 2)
	if srv, err := fab.ServerFor(objs[1]); err != nil || srv != joiner {
		t.Fatalf("object %d on server %d (%v), want the joiner %d", objs[1], srv, err, joiner)
	}
	if handed(joiner) != 2 || handed(1) != 0 {
		t.Fatalf("retry: joiner handed %d ops, leaver %d; want 2 and 0", handed(joiner), handed(1))
	}
}

// TestGroupLaneApplyHeldReleaseRelistsItsRecord: an op the apply gate held on
// an asynchronous lane is parked on its slab record, and Release lists that
// same record in flight again and hands the lane its bound callbacks — no
// second record.
func TestGroupLaneApplyHeldReleaseRelistsItsRecord(t *testing.T) {
	fab, objs, wires := wireEnv(t, holdServer2Apply)
	g, done, released := countedGroup(objs)
	fab.TriggerBatch(1, g)
	token, rec := g.calls[2].ev.Token, &g.calls[2]
	if h := heldRecord(fab, 2, token); h != rec || h.phase != PhaseApply {
		t.Fatalf("apply-held op parked on %p, want the group's record %p in phase held-apply", h, rec)
	}
	if n := len(wires[2].take()); n != 0 {
		t.Fatalf("a held op reached its lane (%d hand-offs)", n)
	}
	if err := fab.Release(token); err != nil {
		t.Fatal(err)
	}
	l := fab.laneFor(2)
	l.mu.Lock()
	relisted := l.inflight.next == rec && l.inflightN == 1 && rec.phase == PhaseInFlight
	l.mu.Unlock()
	if !relisted {
		t.Fatalf("after Release the lane's in-flight list does not hold the op's own record %p", rec)
	}
	if n := wires[0].answer() + wires[1].answer() + wires[2].answer(); n != 3 {
		t.Fatalf("%d ops on the wire after the release, want 3", n)
	}
	if d, r := done.Load(), released.Load(); d != 3 || r != 1 {
		t.Fatalf("%d completions, %d releases; want 3 and 1", d, r)
	}
}

// TestGroupInProcHoldRidesItsCall: the in-process lane keeps the same one
// record per op as the others. An op either gate holds is parked on its own
// slot of the group's call slab — nothing is made for the hold — and pins the
// group until it is released; recycled, the group parks its next straggler on
// the same slot.
func TestGroupInProcHoldRidesItsCall(t *testing.T) {
	for phase, gate := range map[Phase]Gate{PhaseApply: holdServer2Apply, PhaseRespond: holdServer2} {
		t.Run(phase.String(), func(t *testing.T) {
			fab, objs := laneEnv(t, groupLanes["inproc"], gate)
			g, done, released := countedGroup(objs)
			var slot *call
			for round := int32(1); round <= 3; round++ {
				fillReads(g, objs)
				fab.TriggerBatch(1, g)
				if slot == nil {
					slot = &g.calls[2]
				}
				token := g.calls[2].ev.Token
				if h := heldRecord(fab, 2, token); h != slot || h.phase != phase {
					t.Fatalf("round %d: held op parked on %p, want the group's call %p in phase %v", round, h, slot, phase)
				}
				if d, r := done.Load(), released.Load(); d != 3*round-1 || r != round-1 {
					t.Fatalf("round %d with op 2 held: %d completions, %d releases", round, d, r)
				}
				if err := fab.Release(token); err != nil {
					t.Fatal(err)
				}
				if d, r := done.Load(), released.Load(); d != 3*round || r != round {
					t.Fatalf("round %d after the release: %d completions, %d releases", round, d, r)
				}
				if slot.g != nil || slot.e != nil || slot.next != nil || slot.applyFn == nil {
					t.Fatalf("round %d: released slot = %+v, want it zeroed but for its bound callbacks", round, slot)
				}
			}
		})
	}
}
