package lanenet

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// TestPlaceFrameCarriesState pins the stateful placement semantics: a fresh
// placement materializes the object at the carried state (this IS the state
// transfer onto a replacement node), while a re-place of an existing object
// ignores the state — the node's copy is authoritative.
func TestPlaceFrameCarriesState(t *testing.T) {
	p := placeReq{obj: 7, kind: baseobj.KindMaxRegister, state: baseobj.State{Val: types.TSValue{TS: 3, Writer: 1, Val: 42}}}
	pd, err := decodePlace(appendPlace(nil, p)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pd.state, p.state) {
		t.Fatalf("place state round trip = %+v, want %+v", pd.state, p.state)
	}

	node := NewNode()
	tbl := node.table("")
	tbl.place(p)
	var resp applyResp
	tbl.apply(&applyReq{req: 1, obj: 7, client: 0, inv: baseobj.Invocation{Op: baseobj.OpReadMax}}, &resp)
	if resp.status != statusOK || resp.resp.Val.Val != 42 {
		t.Fatalf("read after stateful place = %+v, want val 42", resp)
	}
	// Re-placing must not roll the object back.
	tbl.place(placeReq{obj: 7, kind: baseobj.KindMaxRegister, state: baseobj.State{Val: types.TSValue{TS: 99, Val: -5}}})
	tbl.apply(&applyReq{req: 2, obj: 7, client: 0, inv: baseobj.Invocation{Op: baseobj.OpReadMax}}, &resp)
	if resp.status != statusOK || resp.resp.Val.Val != 42 {
		t.Fatalf("read after re-place = %+v, want the original val 42", resp)
	}
}

// TestReplaceMigratesToFreshNode runs the full reconfiguration over the
// network lane: a register's authoritative state lives in a storage node,
// a one-for-one Resize reads it over the wire at the freeze point and re-places
// it — via a stateful place frame — on a different node dialed by a fresh
// client. The new session identity is the join.
func TestReplaceMigratesToFreshNode(t *testing.T) {
	fab, objs, _, oldNodes := netEnv(t, 3)
	if o := await(t, fab, 0, objs[0], baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 4, Writer: 0, Val: 77}}); o.Err != nil {
		t.Fatalf("write: %v", o.Err)
	}

	addrs, freshNodes := startNodes(t, 1)
	joiner, err := Dial(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	maker := func(types.ServerID) fabric.Lane { return joiner }
	res, err := fab.Resize(context.Background(), fabric.ResizeSpec{Join: []fabric.LaneMaker{maker}, Leave: []types.ServerID{0}}, nil)
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	newID := res.Joined[0]

	if s, err := fab.Cluster().Delta(objs[0]); err != nil || s != newID {
		t.Fatalf("Delta = %d, %v; want joiner %d", s, err, newID)
	}
	if o := await(t, fab, 1, objs[0], baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil || o.Resp.Val.Val != 77 {
		t.Fatalf("read after migration = %+v, want val 77 from the fresh node", o)
	}
	// The first routed op mirrored the object — with its transferred state —
	// onto the fresh node via a stateful place frame.
	if got := freshNodes[0].NumObjects(); got != 1 {
		t.Fatalf("fresh node hosts %d objects after the migration, want 1", got)
	}
	if o := await(t, fab, 0, objs[0], baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 5, Writer: 0, Val: 78}}); o.Err != nil {
		t.Fatalf("write after migration: %v", o.Err)
	}
	// The leave was clean: no server crashed, and the departed node's
	// connection closed without tripping reconnect-as-crash.
	if got := fab.Cluster().Crashes(); got != 0 {
		t.Fatalf("Crashes = %d after a clean replacement, want 0", got)
	}
	_ = oldNodes
}

// TestDrainFinishesInFlightThenLeaves pins the graceful-drain contract: a
// draining node answers the frames it already accepted (the response
// arrives, flushed, before the connection closes), refuses new
// connections, and Drain returns with every serving goroutine gone.
func TestDrainFinishesInFlightThenLeaves(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode()
	go node.Serve(l)

	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MirrorObject(baseobj.NewMaxRegister(1))
	deliver := func(tok uint64, inv baseobj.Invocation) fabric.Outcome {
		done := make(chan fabric.Outcome, 1)
		c.Deliver(fabric.TriggerEvent{Token: tok, Client: 0, Object: 1, Server: 0, Inv: inv},
			nil, func(resp baseobj.Response, err error) {
				done <- fabric.Outcome{Resp: resp, Err: err}
			})
		select {
		case o := <-done:
			return o
		case <-time.After(5 * time.Second):
			t.Fatal("delivery never completed")
			return fabric.Outcome{}
		}
	}
	if o := deliver(1, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: types.TSValue{TS: 1, Val: 5}}); o.Err != nil {
		t.Fatalf("write before drain: %v", o.Err)
	}

	// Clean leave: close the listener, then drain. The already-served
	// write must have been answered and flushed; afterwards the node
	// accepts nothing.
	l.Close()
	drained := make(chan struct{})
	go func() {
		node.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned")
	}
	if _, err := Dial(l.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after listener close + drain")
	}
}
