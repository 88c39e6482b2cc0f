package lanenet

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// Malformed inbound bytes, as a peer of either end might send them. Each is
// a whole write: header plus whatever body follows.
var (
	hostileOversized = []byte{0xff, 0xff, 0xff, 0xff}
	hostileZeroLen   = []byte{0, 0, 0, 0}
	hostileUnknown   = []byte{0, 0, 0, 2, 0x7f, 0}
	hostileTruncated = []byte{0, 0, 0, 40, msgResp, 1, 2, 3} // 40 promised, 4 sent, then EOF
)

// threeValueCAS is the apply frame that sampled msgApply while an
// invocation carried three values and a payload: a CAS with an Arg (1, 2, 3),
// an Exp, a New and the payload 01 02 03. No op ever sent it, and the
// two-value invocation cannot hold it.
const threeValueCAS = "0000005602000000000000002a00000007000000030500000000000000010000000200000000000000030000000000000004fffffffffffffffffffffff7000000000000000500000000000000000000000b0000000301020300"

// rawApply frames a msgApply of request 42 on object 7 by client 3 slot by
// slot — op, the Arg, Exp and New slots, a payload and an optional fragment —
// including combinations no encoder of the two-value invocation writes.
func rawApply(op baseobj.OpCode, arg, exp, nw types.TSValue, payload types.Payload, frag *baseobj.Fragment) []byte {
	b, start := beginFrame(nil)
	b = append(b, msgApply)
	b = binary.BigEndian.AppendUint64(b, 42)
	b = binary.BigEndian.AppendUint32(b, 7)
	b = binary.BigEndian.AppendUint32(b, 3)
	b = append(b, byte(op))
	b = appendPayload(appendTSValue(appendTSValue(appendTSValue(b, arg), exp), nw), payload)
	if frag == nil {
		b = append(b, 0)
	} else {
		b = appendFragment(append(b, 1), frag)
	}
	b, _ = endFrame(b, start)
	return b
}

// unholdable is an apply frame an invocation of an op code and two values
// cannot hold: decodeApply rejects it with an error, and a node drops the
// connection that sent it.
type unholdable struct {
	name  string
	frame []byte
}

var unholdableApplies = func() []unholdable {
	one, two, zero := types.TSValue{TS: 1, Writer: 2, Val: 3}, types.TSValue{TS: 5, Val: 11}, types.ZeroTSValue
	return []unholdable{
		{"three-value cas with a payload", rawApply(baseobj.OpCAS, one, types.TSValue{TS: 4, Writer: -1, Val: -9}, two, types.Payload{1, 2, 3}, nil)},
		{"cas with an arg", rawApply(baseobj.OpCAS, one, zero, two, nil, nil)},
		{"cas with a payload", rawApply(baseobj.OpCAS, zero, one, two, types.Payload{1}, nil)},
		{"write with a new value", rawApply(baseobj.OpWrite, one, zero, two, nil, nil)},
		{"read-max with a payload", rawApply(baseobj.OpReadMax, zero, zero, zero, types.Payload{1}, nil)},
		{"write-max with a fragment", rawApply(baseobj.OpWriteMax, one, zero, zero, nil, &sampleFrag)},
		{"put-frag with a payload and a fragment", rawApply(baseobj.OpPutFrag, zero, zero, zero, types.Payload{1}, &sampleFrag)},
	}
}()

// TestDecodeRejectsUnholdableApply: every frame an invocation cannot hold is
// an error, not a silently dropped value or body. The first is the
// three-value sample byte for byte.
func TestDecodeRejectsUnholdableApply(t *testing.T) {
	if got := hex.EncodeToString(unholdableApplies[0].frame); got != threeValueCAS {
		t.Fatalf("rawApply wrote the three-value sample as\n%s\nwant\n%s", got, threeValueCAS)
	}
	for _, u := range unholdableApplies {
		var a applyReq
		if err := decodeApply(u.frame[5:], &a); err == nil {
			t.Errorf("%s decoded as %+v, want an error", u.name, a.inv)
		}
	}
}

// lyingFrame frames a body whose u16 count at countOff claims 65,535
// entries that the remaining bytes cannot hold.
func lyingFrame(t *testing.T, body []byte, countOff int) []byte {
	t.Helper()
	binary.BigEndian.PutUint16(body[countOff:], 0xffff)
	return frameOf(t, body)
}

// TestHostileClientCannotHurtNode: truncated, oversized, zero-length,
// unknown-type and count-lying frames each cost the sender its connection —
// never a panic, a hang, or an allocation sized by the lie — and the node
// keeps serving everyone else.
func TestHostileClientCannotHurtNode(t *testing.T) {
	node := NewNode()
	placeNoFrags := appendPlace(nil, placeReq{obj: 1, kind: baseobj.KindFragStore})
	cases := map[string][]byte{
		"oversized":           hostileOversized,
		"zero-length":         hostileZeroLen,
		"unknown type":        hostileUnknown,
		"truncated":           hostileTruncated,
		"lying scan count":    lyingFrame(t, appendScan(nil, 1, sampleScan), 9),
		"lying fragment list": lyingFrame(t, placeNoFrags, len(placeNoFrags)-2),
		"lying payload size":  frameOf(t, append(encodeApply(nil, applyReq{req: 1})[:1+8+4+4+1+60], 0x00, 0x7f, 0xff, 0xff)),
	}
	for _, u := range unholdableApplies {
		cases[u.name] = u.frame
	}
	for name, bytes := range cases {
		t.Run(name, func(t *testing.T) {
			peer, served := net.Pipe()
			done := make(chan struct{})
			go func() {
				node.ServeConn(served)
				close(done)
			}()
			if _, err := peer.Write(bytes); err != nil {
				t.Fatal(err)
			}
			if name == "truncated" {
				peer.Close() // EOF inside the promised body
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("node kept the connection after a malformed frame")
			}
			peer.Close()
		})
	}

	// The node is unharmed: a well-behaved connection still gets answers.
	peer, served := net.Pipe()
	go node.ServeConn(served)
	defer peer.Close()
	good := append(frameOf(t, appendPlace(nil, placeReq{obj: 9, kind: baseobj.KindMaxRegister})),
		frameOf(t, encodeApply(nil, applyReq{req: 1, obj: 9, inv: baseobj.Invocation{Op: baseobj.OpReadMax}}))...)
	go func() { _, _ = peer.Write(good) }()
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := newFrameReader(peer).next()
	if err != nil {
		t.Fatalf("node stopped serving after the hostile connections: %v", err)
	}
	if r, err := decodedResp(body[1:]); err != nil || r.req != 1 || r.status != statusOK {
		t.Fatalf("response after the hostile connections = %+v, %v", r, err)
	}
}

// pipeClient is a Client over net.Pipe with the test playing the node.
type pipeClient struct {
	c     *Client
	peer  net.Conn
	in    *frameReader // requests the client wrote
	hooks atomic.Int32 // crash-hook firings
}

func newPipeClient(t *testing.T, conn func(net.Conn) net.Conn) *pipeClient {
	t.Helper()
	clientEnd, peer := net.Pipe()
	if conn != nil {
		clientEnd = conn(clientEnd)
	}
	pc := &pipeClient{c: newClient(clientEnd, nil), peer: peer, in: newFrameReader(peer)}
	pc.c.SetCrashHook(func() { pc.hooks.Add(1) })
	t.Cleanup(func() {
		pc.c.Close()
		peer.Close()
	})
	return pc
}

// request reads the next frame the client sent and returns a copy.
func (pc *pipeClient) request(t *testing.T) []byte {
	t.Helper()
	_ = pc.peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := pc.in.next()
	if err != nil {
		t.Fatalf("reading the client's request: %v", err)
	}
	return append([]byte(nil), body...)
}

// send writes raw bytes to the client as the node would.
func (pc *pipeClient) send(t *testing.T, b []byte) {
	t.Helper()
	_ = pc.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := pc.peer.Write(b); err != nil {
		t.Fatalf("writing to the client: %v", err)
	}
}

// awaitCrash waits for the lane to crash and checks the hook fired once.
func (pc *pipeClient) awaitCrash(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pc.hooks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed response never crashed the lane")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	if !pc.c.Crashed() || pc.hooks.Load() != 1 {
		t.Fatalf("crashed=%v, hook fired %d times, want one crash", pc.c.Crashed(), pc.hooks.Load())
	}
}

// deliverRead queues one read and returns a channel closed on completion.
func (pc *pipeClient) deliverRead(obj types.ObjectID) chan struct{} {
	done := make(chan struct{})
	pc.c.Deliver(fabric.TriggerEvent{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}, nil,
		func(baseobj.Response, error) { close(done) })
	return done
}

// TestHostileNodeCrashesOnlyTheLane: every malformed response is a lane
// crash (hook once, pending ops never complete), never a panic or a hang.
func TestHostileNodeCrashesOnlyTheLane(t *testing.T) {
	cases := map[string]func(t *testing.T, pc *pipeClient, req uint64) []byte{
		"oversized":       func(*testing.T, *pipeClient, uint64) []byte { return hostileOversized },
		"zero-length":     func(*testing.T, *pipeClient, uint64) []byte { return hostileZeroLen },
		"unknown type":    func(*testing.T, *pipeClient, uint64) []byte { return hostileUnknown },
		"truncated frame": func(*testing.T, *pipeClient, uint64) []byte { return hostileTruncated },
		"truncated body": func(t *testing.T, _ *pipeClient, req uint64) []byte {
			return frameOf(t, appendResp(nil, &applyResp{req: req})[:20])
		},
		"lying result count": func(t *testing.T, _ *pipeClient, req uint64) []byte {
			return lyingFrame(t, appendScanResp(nil, req, nil), 9)
		},
		"lying fragment list": func(t *testing.T, _ *pipeClient, req uint64) []byte {
			body := appendResp(nil, &applyResp{req: req})
			return lyingFrame(t, body, len(body)-2)
		},
		"scan answer to a plain request": func(t *testing.T, _ *pipeClient, req uint64) []byte {
			return frameOf(t, appendScanResp(nil, req, sampleScanResp))
		},
	}
	for name, reply := range cases {
		t.Run(name, func(t *testing.T) {
			pc := newPipeClient(t, nil)
			done := pc.deliverRead(1)
			a, err := decodedApply(pc.request(t)[1:])
			if err != nil {
				t.Fatal(err)
			}
			pc.send(t, reply(t, pc, a.req))
			if name == "truncated frame" {
				pc.peer.Close() // EOF inside the promised body
			}
			pc.awaitCrash(t)
			select {
			case <-done:
				t.Fatal("op completed on a crashed lane")
			default:
			}
		})
	}

	t.Run("scan member count mismatch", func(t *testing.T) {
		pc := newPipeClient(t, nil)
		completed := make(chan struct{}, 2)
		ops := make([]fabric.LaneOp, 2)
		for i := range ops {
			ops[i] = fabric.LaneOp{
				Ev:       fabric.TriggerEvent{Object: types.ObjectID(i), Inv: baseobj.Invocation{Op: baseobj.OpRead}},
				Complete: func(baseobj.Response, error) { completed <- struct{}{} },
			}
		}
		pc.c.DeliverScan(ops)
		req, _, err := decodeScan(pc.request(t)[1:])
		if err != nil {
			t.Fatal(err)
		}
		pc.send(t, frameOf(t, appendScanResp(nil, req, sampleScanResp[:1])))
		pc.awaitCrash(t)
		if len(completed) != 0 {
			t.Fatal("scan member completed from a short scan response")
		}
	})

	t.Run("plain answer to a scan", func(t *testing.T) {
		pc := newPipeClient(t, nil)
		pc.c.DeliverScan([]fabric.LaneOp{{
			Ev:       fabric.TriggerEvent{Object: 1, Inv: baseobj.Invocation{Op: baseobj.OpRead}},
			Complete: func(baseobj.Response, error) { t.Error("scan member completed from a plain response") },
		}})
		req, _, err := decodeScan(pc.request(t)[1:])
		if err != nil {
			t.Fatal(err)
		}
		pc.send(t, frameOf(t, appendResp(nil, &applyResp{req: req})))
		pc.awaitCrash(t)
	})
}

// TestUnknownRequestIDIsIgnored: a response for an id that was never issued,
// or was already answered, is dropped without disturbing the lane — as an
// unknown map key was before the slot table.
func TestUnknownRequestIDIsIgnored(t *testing.T) {
	pc := newPipeClient(t, nil)
	done := pc.deliverRead(1)
	a, err := decodedApply(pc.request(t)[1:])
	if err != nil {
		t.Fatal(err)
	}
	answer := frameOf(t, appendResp(nil, &applyResp{req: a.req, resp: baseobj.Response{Op: baseobj.OpRead}}))
	never := frameOf(t, appendResp(nil, &applyResp{req: a.req + 64}))
	pc.send(t, append(append(append([]byte(nil), never...), answer...), answer...)) // never-issued, real, already-taken
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the real response never completed its op")
	}
	again := pc.deliverRead(2)
	b, err := decodedApply(pc.request(t)[1:])
	if err != nil {
		t.Fatal(err)
	}
	pc.send(t, frameOf(t, appendResp(nil, &applyResp{req: b.req, resp: baseobj.Response{Op: baseobj.OpRead}})))
	select {
	case <-again:
	case <-time.After(5 * time.Second):
		t.Fatal("lane stopped completing after stray responses")
	}
	if pc.c.Crashed() || pc.hooks.Load() != 0 {
		t.Fatal("stray responses crashed the lane")
	}
}

// TestOversizedInvocationFailsOnlyItself: an invocation too large to frame
// is the client's bad input, not a server fault. It completes with
// ErrFrameTooLarge, nothing reaches the wire, no crash is charged to the f
// budget, and the lane keeps serving.
func TestOversizedInvocationFailsOnlyItself(t *testing.T) {
	fab, objs, clients, _ := netEnv(t, 1)
	huge := baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1, Val: 1}, Body: &baseobj.Fragment{Data: make(types.Payload, maxFrame+1)}}
	if o := await(t, fab, 0, objs[0], huge); !errors.Is(o.Err, ErrFrameTooLarge) {
		t.Fatalf("oversized write completed with %v, want ErrFrameTooLarge", o.Err)
	}
	ok := baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 2, Val: 5}}
	if o := await(t, fab, 0, objs[0], ok); o.Err != nil {
		t.Fatalf("write after the oversized one: %v", o.Err)
	}
	if o := await(t, fab, 1, objs[0], baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil || o.Resp.Val.Val != 5 {
		t.Fatalf("read = %+v, want the second write (the oversized one never applied)", o)
	}
	if clients[0].Crashed() || fab.Cluster().Crashes() != 0 {
		t.Fatal("a client-side oversize frame was charged as a server crash")
	}
	if got := fab.Pending(); len(got) != 0 {
		t.Fatalf("%d ops left pending", len(got))
	}
}

// readCountingConn counts the Read calls that returned data.
type readCountingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestResponseBurstCostsOneRead pins the syscall shape: K response frames
// that arrive together are taken in by at most two reads of the connection
// (two per frame — header, then body — before the buffered reader).
func TestResponseBurstCostsOneRead(t *testing.T) {
	const k = 200
	var counted *readCountingConn
	pc := newPipeClient(t, func(c net.Conn) net.Conn {
		counted = &readCountingConn{Conn: c}
		return counted
	})
	var completed atomic.Int64
	done := make(chan struct{})
	for i := 0; i < k; i++ {
		// Writes never coalesce, so the burst is k requests and k responses.
		pc.c.Deliver(fabric.TriggerEvent{Object: 1, Inv: baseobj.Invocation{Op: baseobj.OpWrite}}, nil,
			func(baseobj.Response, error) {
				if completed.Add(1) == k {
					close(done)
				}
			})
	}
	var burst []byte
	for i := 0; i < k; i++ {
		a, err := decodedApply(pc.request(t)[1:])
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, frameOf(t, appendResp(nil, &applyResp{req: a.req, resp: baseobj.Response{Op: baseobj.OpWrite}}))...)
	}
	if len(burst) >= frameBufSize {
		t.Fatalf("burst of %d bytes does not fit one buffer fill", len(burst))
	}
	before := counted.reads.Load()
	pc.send(t, burst)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d responses completed", completed.Load(), k)
	}
	if got := counted.reads.Load() - before; got > 2 {
		t.Fatalf("%d response frames took %d reads of the connection, want at most 2", k, got)
	}
}

// TestOversizedPlacementCrashesLane: a placement too large to frame has no
// caller to fail — the node can never host the object — so the lane goes
// down as it would had the node rejected the frame, without writing it.
func TestOversizedPlacementCrashesLane(t *testing.T) {
	pc := newPipeClient(t, nil)
	reg := baseobj.NewRegister(1)
	if _, err := reg.Apply(0, &baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1}, Body: &baseobj.Fragment{Data: make(types.Payload, maxFrame+1)}}); err != nil {
		t.Fatal(err)
	}
	pc.c.MirrorObject(reg)
	pc.awaitCrash(t)
}
