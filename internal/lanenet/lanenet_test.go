package lanenet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/types"
)

// startNodes starts n in-process storage nodes on ephemeral ports and
// returns their addresses. The protocol and node code are identical to
// cmd/lanenode; the process-level path is covered by the runner's TCP
// chaos suite.
func startNodes(t *testing.T, n int) ([]string, []*Node) {
	t.Helper()
	addrs := make([]string, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		node := NewNode()
		go node.Serve(l)
		addrs[i] = l.Addr().String()
		nodes[i] = node
	}
	return addrs, nodes
}

// netEnv builds an n-server cluster with one register per server and a
// fabric whose lanes speak TCP to the started nodes.
func netEnv(t *testing.T, n int) (*fabric.Fabric, []types.ObjectID, []*Client, []*Node) {
	t.Helper()
	addrs, nodes := startNodes(t, n)
	maker, clients, err := Lanes(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, n)
	for s := 0; s < n; s++ {
		obj, err := c.PlaceRegister(types.ServerID(s), baseobj.WriterRange{})
		if err != nil {
			t.Fatal(err)
		}
		objs[s] = obj
	}
	fab := fabric.New(c, fabric.WithLanes(maker))
	t.Cleanup(func() { fab.Close() })
	return fab, objs, clients, nodes
}

// await triggers an op and blocks until it completes or times out.
func await(t *testing.T, fab *fabric.Fabric, client types.ClientID, obj types.ObjectID, inv baseobj.Invocation) fabric.Outcome {
	t.Helper()
	done := make(chan fabric.Outcome, 1)
	call := fab.TriggerFn(client, obj, inv, func(o fabric.Outcome) { done <- o })
	return awaitDone(t, call, done)
}

// awaitDone blocks until call's completion callback fed done.
func awaitDone(t *testing.T, call *fabric.Call, done <-chan fabric.Outcome) fabric.Outcome {
	t.Helper()
	select {
	case o := <-done:
		return o
	case <-time.After(5 * time.Second):
		t.Fatalf("call %d never completed over the network lane", call.Token())
		return fabric.Outcome{}
	}
}

// TestProtoRoundTrip pins the wire encoding of every message type.
func TestProtoRoundTrip(t *testing.T) {
	p := placeReq{obj: 7, kind: baseobj.KindRegister, writers: baseobj.WriterRange{Lo: 0, Hi: 3}}
	pd, err := decodePlace(appendPlace(nil, p)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if pd.obj != p.obj || pd.kind != p.kind || pd.writers != p.writers {
		t.Fatalf("place round trip = %+v, want %+v", pd, p)
	}

	a := applyReq{
		req: 42, obj: 7, client: 3,
		inv: baseobj.Invocation{
			Op:  baseobj.OpCAS,
			Arg: types.TSValue{TS: 1, Writer: 2, Val: 3},
			Exp: types.TSValue{TS: 4, Writer: -1, Val: -9},
			New: types.TSValue{TS: 5, Writer: 0, Val: 11},
		},
	}
	ad, err := decodeApply(appendApply(nil, a)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ad, a) {
		t.Fatalf("apply round trip = %+v, want %+v", ad, a)
	}

	r := applyResp{req: 42, status: statusOther, resp: baseobj.Response{Op: baseobj.OpCAS, Val: a.inv.Exp}, msg: "boom"}
	rd, err := decodeResp(appendResp(nil, r)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd, r) {
		t.Fatalf("resp round trip = %+v, want %+v", rd, r)
	}
}

// TestProtoPayloadRoundTrip pins the wire encoding of the payload- and
// fragment-carrying message extensions added for coded storage.
func TestProtoPayloadRoundTrip(t *testing.T) {
	frag := baseobj.Fragment{
		TS:        types.TSValue{TS: 9, Writer: 2, Val: 77},
		Index:     3,
		K:         3,
		Length:    1 << 16,
		Committed: true,
		Data:      types.Payload{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4},
	}

	// Apply carrying a write payload.
	a := applyReq{
		req: 1, obj: 5, client: 2,
		inv: baseobj.Invocation{
			Op:   baseobj.OpWrite,
			Arg:  types.TSValue{TS: 3, Writer: 2, Val: 44},
			Data: types.PayloadFor(44, 64),
		},
	}
	ad, err := decodeApply(appendApply(nil, a)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ad, a) {
		t.Fatalf("payload apply round trip = %+v, want %+v", ad, a)
	}

	// Apply carrying a fragment put.
	af := applyReq{
		req: 2, obj: 5, client: 2,
		inv: baseobj.Invocation{Op: baseobj.OpPutFrag, Frag: &frag},
	}
	afd, err := decodeApply(appendApply(nil, af)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(afd, af) {
		t.Fatalf("fragment apply round trip = %+v, want %+v", afd, af)
	}

	// Response carrying payload bytes and a fragment list.
	pending := frag
	pending.Committed = false
	pending.Index = 4
	r := applyResp{
		req: 3, status: statusOK,
		resp: baseobj.Response{
			Op:    baseobj.OpGetFrags,
			Val:   types.TSValue{TS: 9, Writer: 2, Val: 77},
			Data:  types.PayloadFor(77, 32),
			Frags: []baseobj.Fragment{frag, pending},
		},
	}
	rd, err := decodeResp(appendResp(nil, r)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd, r) {
		t.Fatalf("fragment resp round trip = %+v, want %+v", rd, r)
	}

	// Placement carrying full transferred state.
	p := placeReq{
		obj: 7, kind: baseobj.KindFragStore,
		state: baseobj.State{
			Val:   types.TSValue{TS: 9, Writer: 2, Val: 77},
			Data:  types.PayloadFor(77, 16),
			Frags: []baseobj.Fragment{frag},
		},
	}
	pd, err := decodePlace(appendPlace(nil, p)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pd, p) {
		t.Fatalf("state place round trip = %+v, want %+v", pd, p)
	}
}

// TestNetworkLaneReadYourWrite drives real read/write traffic through TCP
// lanes: state lives in the nodes, not the local cluster objects.
func TestNetworkLaneReadYourWrite(t *testing.T) {
	fab, objs, _, nodes := netEnv(t, 3)
	if o := await(t, fab, 0, objs[1], baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1, Writer: 0, Val: 10}}); o.Err != nil {
		t.Fatalf("write: %v", o.Err)
	}
	if o := await(t, fab, 1, objs[1], baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil || o.Resp.Val.Val != 10 {
		t.Fatalf("read = %+v, want 10", o)
	}
	// The authoritative object lives remotely: exactly one object was
	// mirrored to node 1, none elsewhere.
	if nodes[1].NumObjects() != 1 || nodes[0].NumObjects() != 0 {
		t.Fatalf("node objects = [%d %d %d], want [0 1 0]",
			nodes[0].NumObjects(), nodes[1].NumObjects(), nodes[2].NumObjects())
	}
	// And the local mirror object was never applied to.
	obj, err := fab.Cluster().Object(objs[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.PeekState().Val; got != types.ZeroTSValue {
		t.Fatalf("local mirror mutated: %v (state must live in the node)", got)
	}
}

// TestNetworkLaneProtocolErrorsRoundTrip: canonical base-object errors
// must survive the wire so errors.Is keeps working.
func TestNetworkLaneProtocolErrorsRoundTrip(t *testing.T) {
	addrs, _ := startNodes(t, 1)
	maker, _, err := Lanes(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(1)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := c.PlaceRegister(0, baseobj.WriterRange{Lo: 0, Hi: 1})
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c, fabric.WithLanes(maker))
	t.Cleanup(func() { fab.Close() })

	// Clients 5 and 1 — the range's Hi — are outside the writer range
	// [0, 1): the remote register must enforce the mirrored bound, and let
	// writer 0 through.
	checkRange := func(where string) {
		t.Helper()
		for _, w := range []types.ClientID{5, 1} {
			o := await(t, fab, w, obj, baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1, Writer: w}})
			if !errors.Is(o.Err, baseobj.ErrUnauthorizedWriter) {
				t.Fatalf("%s: write by %d err = %v, want ErrUnauthorizedWriter", where, w, o.Err)
			}
		}
		if o := await(t, fab, 0, obj, baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1, Writer: 0}}); o.Err != nil {
			t.Fatalf("%s: write by writer 0: %v", where, o.Err)
		}
	}
	checkRange("placed")
	// Wrong op kind round-trips too.
	o := await(t, fab, 0, obj, baseobj.Invocation{Op: baseobj.OpCAS})
	if !errors.Is(o.Err, baseobj.ErrWrongOp) {
		t.Fatalf("wrong-op err = %v, want ErrWrongOp", o.Err)
	}
	// Moved by a Replace onto a fresh node, the register keeps its range: the
	// stateful place frame carries it.
	fresh, _ := startNodes(t, 1)
	joiner, err := Dial(fresh[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Replace(context.Background(), 0, func(types.ServerID) fabric.Lane { return joiner }); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	checkRange("moved")
	// A peer's place frame with an inverted range is refused.
	inverted := appendPlace(nil, placeReq{obj: 2, kind: baseobj.KindRegister, writers: baseobj.WriterRange{Lo: 3, Hi: 2}})
	if _, err := decodePlace(inverted[1:]); err == nil {
		t.Fatal("decodePlace accepted the writer range [3, 2)")
	}
}

// TestDisconnectIsCrash is the reconnect-as-crash test: severing a node's
// connection mid-run must crash that server on the fabric — in-flight ops
// become PhaseDropped and stay pending forever — while quorums over the
// surviving servers keep completing.
func TestDisconnectIsCrash(t *testing.T) {
	fab, objs, clients, _ := netEnv(t, 3)
	// Warm every route (mirrors objects) with one read per server.
	for _, obj := range objs {
		if o := await(t, fab, 0, obj, baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil {
			t.Fatal(o.Err)
		}
	}

	// Sever server 2's connection, then trigger on it.
	if err := clients[2].conn.Close(); err != nil {
		t.Fatal(err)
	}
	late := fab.Trigger(0, objs[2], baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1, Writer: 0, Val: 5}})

	// The crash hook fires from the read loop; wait for the fabric to
	// observe it.
	deadline := time.Now().Add(5 * time.Second)
	for fab.Cluster().Crashes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never crashed the server")
		}
		time.Sleep(time.Millisecond)
	}
	if !clients[2].Crashed() {
		t.Fatal("client lane not marked crashed")
	}

	// The late op must never complete (dropped or never delivered), and
	// must be visible as pending.
	time.Sleep(10 * time.Millisecond)
	if _, ok := late.Outcome(); ok {
		t.Fatal("op on disconnected lane completed")
	}

	// The other servers still serve a quorum.
	for _, obj := range objs[:2] {
		if o := await(t, fab, 1, obj, baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil {
			t.Fatalf("surviving server read: %v", o.Err)
		}
	}
}

// TestNodeDeathBeforeHookInstallStillCrashes covers the wiring race: the
// node dies after Dial but before the fabric installs the crash hook. The
// late-installed hook must still fire, so the fabric observes the crash
// instead of treating a dead node as a live server with ops in flight.
func TestNodeDeathBeforeHookInstallStillCrashes(t *testing.T) {
	addrs, _ := startNodes(t, 1)
	maker, clients, err := Lanes(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Sever the transport and wait until the read loop marks the lane
	// crashed — all before any fabric exists.
	clients[0].conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !clients[0].Crashed() {
		if time.Now().After(deadline) {
			t.Fatal("lane never observed the severed transport")
		}
		time.Sleep(time.Millisecond)
	}
	c, err := cluster.New(1)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c, fabric.WithLanes(maker))
	t.Cleanup(func() { fab.Close() })
	if got := fab.Cluster().Crashes(); got != 1 {
		t.Fatalf("crashes after wiring a dead lane = %d, want 1", got)
	}
}

// TestCrashDuringRemoteScan mirrors the regemu crash-during-scan semantics
// onto the network lane: ops in flight to a node when its connection dies
// are dropped, so a gather can never count them.
func TestCrashDuringRemoteScan(t *testing.T) {
	fab, objs, clients, _ := netEnv(t, 3)
	for _, obj := range objs {
		if o := await(t, fab, 0, obj, baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	// Kill server 0's transport and immediately scatter reads everywhere:
	// server 0's reads must stay pending, others must respond.
	clients[0].conn.Close()
	done := make([]chan fabric.Outcome, len(objs))
	g := &fabric.Group{Ops: make([]fabric.BatchOp, len(objs)), Done: func(i int, o fabric.Outcome) { done[i] <- o }}
	for i, obj := range objs {
		done[i] = make(chan fabric.Outcome, 1)
		g.Ops[i] = fabric.BatchOp{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}
	}
	fab.TriggerBatch(1, g)
	for _, i := range []int{1, 2} {
		select {
		case o := <-done[i]:
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("batch op %d never completed over the network lane", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fab.Cluster().Crashes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never crashed the server")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done[0]:
		t.Fatal("scan op on dead server completed")
	default:
	}
}

// TestMultiTableNode hosts two independent single-server environments on
// ONE storage node through named tables: both fabrics' object ids start at
// zero, so without the per-connection table bind their placements would
// collide in the node's object map. Each table must see only its own
// shard's writes.
func TestMultiTableNode(t *testing.T) {
	addrs, nodes := startNodes(t, 1)
	vals := []types.Value{10, 20}
	for shard := 0; shard < 2; shard++ {
		client, err := Dial(addrs[0], time.Second, WithTable(fmt.Sprintf("s%d", shard)))
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(1)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := c.PlaceRegister(0, baseobj.WriterRange{})
		if err != nil {
			t.Fatal(err)
		}
		if obj != 0 {
			t.Fatalf("shard %d object id = %d, want 0 (the collision under test)", shard, obj)
		}
		fab := fabric.New(c, fabric.WithLanes(func(types.ServerID) fabric.Lane { return client }))
		t.Cleanup(func() { fab.Close() })
		v := types.TSValue{TS: 1, Writer: 0, Val: vals[shard]}
		if o := await(t, fab, 0, obj, baseobj.Invocation{Op: baseobj.OpWrite, Arg: v}); o.Err != nil {
			t.Fatalf("shard %d write: %v", shard, o.Err)
		}
		if o := await(t, fab, 0, obj, baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil || o.Resp.Val.Val != vals[shard] {
			t.Fatalf("shard %d read = %+v, want %d", shard, o, vals[shard])
		}
	}
	// Both shards' object 0 coexist: one per table, never merged.
	if got := nodes[0].NumObjects(); got != 2 {
		t.Fatalf("node hosts %d objects, want 2 (one per table)", got)
	}
	if got := nodes[0].NumTables(); got != 3 {
		t.Fatalf("node has %d tables, want 3 (default + 2 shard tables)", got)
	}
}

// TestBindRoundTrip pins the msgBind wire encoding.
func TestBindRoundTrip(t *testing.T) {
	for _, name := range []string{"", "s0", "shard-17"} {
		got, err := decodeBind(appendBind(nil, name)[1:])
		if err != nil {
			t.Fatal(err)
		}
		if got != name {
			t.Fatalf("bind round trip = %q, want %q", got, name)
		}
	}
	if _, err := decodeBind([]byte{0, 5, 'x'}); err == nil {
		t.Fatal("truncated bind decoded without error")
	}
}
