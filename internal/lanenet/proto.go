// Package lanenet is the network lane backend: a small length-prefixed TCP
// protocol between a fabric's per-server dispatch lanes and per-server
// storage nodes (cmd/lanenode), plus the node itself.
//
// The fabric side (Client) implements fabric.Lane: object placement is
// mirrored to the node on an object copy's first use (fabric.ObjectMirror),
// low-level invocations are framed requests matched to responses by a
// request id, and a broken connection is mapped onto the paper's fail-stop
// model through fabric.CrashReporter — the lane's server crashes, every
// in-flight and future operation on it becomes PhaseDropped, and nothing
// reconnects (reconnect-as-crash). That keeps the emulation-level quorum
// arguments exactly as strong over real sockets as over function calls: a
// construction tolerating f crashed servers tolerates f dead nodes.
//
// The node side (Node) is deliberately dumb storage: it hosts base objects
// keyed by cluster-wide object id and applies invocations atomically, in
// arrival order per connection. All adversarial behaviour (holds, releases,
// crashes) stays on the fabric side, where the Gate lives; the network
// contributes only genuine asynchrony.
//
// Framing. A frame is a u32 big-endian length followed by that many body
// bytes, the first of which is the message type. Both ends read through one
// frameReader — a frameBufSize buffered reader, so a burst of frames costs
// one read(2) — and write through the beginFrame/endFrame pair, which
// back-patches the length behind a body that an appendX encoder wrote
// straight into the destination buffer. The reader's contract: the slice
// next returns is a view into the read buffer, valid only until the
// following next or ready call. Every decodeX therefore copies what it
// keeps (payloadAt, string conversions, freshly made slices) and retains no
// sub-slice of its input; a decoder that breaks this rule corrupts the
// values of earlier frames (TestDecodeDoesNotAliasWindow).
package lanenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// Message types.
const (
	// msgPlace mirrors an object placement (client -> node, no reply).
	msgPlace byte = 1
	// msgApply requests one invocation (client -> node).
	msgApply byte = 2
	// msgResp answers one msgApply (node -> client).
	msgResp byte = 3
	// msgScan requests a whole all-read group answered from one consistent
	// snapshot (client -> node).
	msgScan byte = 4
	// msgScanResp answers one msgScan with per-member results in request
	// order (node -> client).
	msgScanResp byte = 5
	// msgBind switches the connection onto a named object table
	// (client -> node, no reply). One node process hosts several shards'
	// tables over one listener; a client that never binds stays on the
	// default table, so pre-bind peers interoperate unchanged.
	msgBind byte = 6
)

// Response statuses. Canonical base-object errors travel as codes so the
// client can rehydrate the sentinel errors tests match with errors.Is.
const (
	statusOK byte = iota
	statusWrongOp
	statusUnauthorizedWriter
	statusUnknownObject
	statusOther
)

// maxFrame bounds a frame so a corrupt length prefix cannot allocate
// unboundedly. Frames now carry real value payloads — a replicated
// 64 KiB read response, or a fragment store's whole pending set — so the
// bound admits several large stripes per frame with room to spare.
const maxFrame = 8 << 20

// placeReq is the decoded form of msgPlace.
type placeReq struct {
	obj     types.ObjectID
	kind    baseobj.Kind
	writers baseobj.WriterRange
	// state is the object's full state at mirror time (TSValue plus
	// payload bytes plus fragments). A fresh placement is materialized at
	// this state, which is what carries transferred state onto a
	// replacement server's node; re-placements of an already-hosted
	// object ignore it (the node's copy is authoritative).
	state baseobj.State
}

// applyReq is the decoded form of msgApply.
type applyReq struct {
	req    uint64
	obj    types.ObjectID
	client types.ClientID
	inv    baseobj.Invocation
}

// applyResp is the decoded form of msgResp.
type applyResp struct {
	req    uint64
	status byte
	resp   baseobj.Response
	msg    string
}

// frameBufSize is the read-buffer size of both ends: one socket read
// collects up to this many bytes of queued frames, and a frame that fits is
// decoded in place. The node's response buffer flushes at the same size.
const frameBufSize = 64 << 10

// ErrFrameTooLarge completes an invocation whose encoding exceeds maxFrame.
// The frame was never written, so the op never applied; the connection and
// every other operation on it are unaffected.
var ErrFrameTooLarge = errors.New("lanenet: frame too large")

// beginFrame reserves a frame's length prefix at the end of b and returns
// the grown buffer plus the frame's start offset for endFrame.
func beginFrame(b []byte) ([]byte, int) {
	return append(b, 0, 0, 0, 0), len(b)
}

// endFrame back-patches the length prefix of the frame begun at start. A
// body beyond maxFrame is cut back out of the buffer and reported as
// ErrFrameTooLarge: the peer's reader would reject it and drop the
// connection, so it must not reach the wire.
func endFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 4
	if n > maxFrame {
		return b[:start], fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// frameReader reads length-prefixed frames through a frameBufSize buffer.
type frameReader struct {
	br *bufio.Reader
	// held is the buffered length of the frame last returned as a view; it
	// is discarded when the next frame is asked for, which is what keeps
	// the view valid in between.
	held int
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, frameBufSize)}
}

// release discards the frame the previous next returned.
func (fr *frameReader) release() {
	if fr.held > 0 {
		_, _ = fr.br.Discard(fr.held) // cannot fail: held bytes are buffered
		fr.held = 0
	}
}

// next blocks for one frame and returns its body. A frame that fits the
// buffer is returned as a view into it, valid until the following next or
// ready call; a larger one (up to maxFrame) is copied out into a fresh
// slice.
func (fr *frameReader) next() ([]byte, error) {
	fr.release()
	hdr, err := fr.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, fmt.Errorf("lanenet: oversized frame (%d bytes)", n)
	}
	if 4+n <= fr.br.Size() {
		frame, err := fr.br.Peek(4 + n)
		if err != nil {
			return nil, err
		}
		fr.held = 4 + n
		return frame[4:], nil
	}
	_, _ = fr.br.Discard(4) // cannot fail: the header was just peeked
	body := make([]byte, n)
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ready reports whether a whole frame is already buffered, so that next
// returns it without touching the socket. A frame larger than the buffer is
// never ready; the blocking next handles it (and rejects oversized ones).
func (fr *frameReader) ready() bool {
	fr.release()
	if fr.br.Buffered() < 4 {
		return false
	}
	hdr, _ := fr.br.Peek(4)
	return fr.br.Buffered()-4 >= int(binary.BigEndian.Uint32(hdr))
}

// appendTSValue encodes a timestamped value (20 bytes).
func appendTSValue(b []byte, v types.TSValue) []byte {
	b = binary.BigEndian.AppendUint64(b, v.TS)
	b = binary.BigEndian.AppendUint32(b, uint32(v.Writer))
	b = binary.BigEndian.AppendUint64(b, uint64(v.Val))
	return b
}

// tsValueAt decodes a timestamped value at offset off.
func tsValueAt(b []byte, off int) (types.TSValue, int, error) {
	if len(b) < off+20 {
		return types.TSValue{}, 0, fmt.Errorf("lanenet: truncated ts-value")
	}
	v := types.TSValue{
		TS:     binary.BigEndian.Uint64(b[off:]),
		Writer: types.ClientID(int32(binary.BigEndian.Uint32(b[off+8:]))),
		Val:    types.Value(binary.BigEndian.Uint64(b[off+12:])),
	}
	return v, off + 20, nil
}

// appendPayload encodes a byte-slice payload: u32 length + bytes.
func appendPayload(b []byte, p types.Payload) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// payloadAt decodes a payload at offset off. Empty payloads decode to
// nil so payload-free frames stay allocation-free.
func payloadAt(b []byte, off int) (types.Payload, int, error) {
	if len(b) < off+4 {
		return nil, 0, fmt.Errorf("lanenet: truncated payload length")
	}
	n := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if n > maxFrame || len(b) < off+n {
		return nil, 0, fmt.Errorf("lanenet: truncated payload (%d bytes)", n)
	}
	if n == 0 {
		return nil, off, nil
	}
	p := make(types.Payload, n)
	copy(p, b[off:off+n])
	return p, off + n, nil
}

// minFragmentSize is the encoding of a fragment with an empty payload.
const minFragmentSize = 20 + 9 + 4

// appendFragment encodes one erasure-coded fragment: TSValue (20) +
// index u16 + k u16 + stripe length u32 + committed flag + payload.
func appendFragment(b []byte, f baseobj.Fragment) []byte {
	b = appendTSValue(b, f.TS)
	b = binary.BigEndian.AppendUint16(b, uint16(f.Index))
	b = binary.BigEndian.AppendUint16(b, uint16(f.K))
	b = binary.BigEndian.AppendUint32(b, uint32(f.Length))
	committed := byte(0)
	if f.Committed {
		committed = 1
	}
	b = append(b, committed)
	return appendPayload(b, f.Data)
}

// fragmentAt decodes one fragment at offset off.
func fragmentAt(b []byte, off int) (baseobj.Fragment, int, error) {
	var f baseobj.Fragment
	var err error
	if f.TS, off, err = tsValueAt(b, off); err != nil {
		return f, 0, err
	}
	if len(b) < off+9 {
		return f, 0, fmt.Errorf("lanenet: truncated fragment header")
	}
	f.Index = int(binary.BigEndian.Uint16(b[off:]))
	f.K = int(binary.BigEndian.Uint16(b[off+2:]))
	f.Length = int(binary.BigEndian.Uint32(b[off+4:]))
	f.Committed = b[off+8] == 1
	if f.Data, off, err = payloadAt(b, off+9); err != nil {
		return f, 0, err
	}
	return f, off, nil
}

// appendFragList encodes a fragment list: u16 count + fragments.
func appendFragList(b []byte, frags []baseobj.Fragment) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(frags)))
	for _, f := range frags {
		b = appendFragment(b, f)
	}
	return b
}

// fragListAt decodes a fragment list at offset off.
func fragListAt(b []byte, off int) ([]baseobj.Fragment, int, error) {
	if len(b) < off+2 {
		return nil, 0, fmt.Errorf("lanenet: truncated fragment list")
	}
	n := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if n == 0 {
		return nil, off, nil
	}
	// The count is the peer's claim: check the bytes can hold it before it
	// sizes an allocation.
	if len(b)-off < n*minFragmentSize {
		return nil, 0, fmt.Errorf("lanenet: fragment list claims %d fragments in %d bytes", n, len(b)-off)
	}
	frags := make([]baseobj.Fragment, n)
	var err error
	for i := 0; i < n; i++ {
		if frags[i], off, err = fragmentAt(b, off); err != nil {
			return nil, 0, err
		}
	}
	return frags, off, nil
}

// appendPlace encodes a msgPlace body: object id (u32), kind (u8), the
// writer range's Lo and Hi (u32 each; 0, 0 is unrestricted), then the state
// — TSValue, payload, fragment list.
func appendPlace(b []byte, p placeReq) []byte {
	b = append(b, msgPlace)
	b = binary.BigEndian.AppendUint32(b, uint32(p.obj))
	b = append(b, byte(p.kind))
	b = binary.BigEndian.AppendUint32(b, uint32(p.writers.Lo))
	b = binary.BigEndian.AppendUint32(b, uint32(p.writers.Hi))
	b = appendTSValue(b, p.state.Val)
	b = appendPayload(b, p.state.Data)
	return appendFragList(b, p.state.Frags)
}

// decodePlace decodes a msgPlace body (after the type byte).
func decodePlace(b []byte) (placeReq, error) {
	if len(b) < 13 {
		return placeReq{}, fmt.Errorf("lanenet: truncated place")
	}
	p := placeReq{
		obj:  types.ObjectID(int32(binary.BigEndian.Uint32(b))),
		kind: baseobj.Kind(b[4]),
		writers: baseobj.WriterRange{
			Lo: types.ClientID(int32(binary.BigEndian.Uint32(b[5:]))),
			Hi: types.ClientID(int32(binary.BigEndian.Uint32(b[9:]))),
		},
	}
	if p.writers.Hi < p.writers.Lo {
		return placeReq{}, fmt.Errorf("lanenet: place writer range [%d, %d) is inverted", p.writers.Lo, p.writers.Hi)
	}
	var err error
	off := 13
	if p.state.Val, off, err = tsValueAt(b, off); err != nil {
		return placeReq{}, err
	}
	if p.state.Data, off, err = payloadAt(b, off); err != nil {
		return placeReq{}, err
	}
	if p.state.Frags, _, err = fragListAt(b, off); err != nil {
		return placeReq{}, err
	}
	return p, nil
}

// appendApply encodes a msgApply body: the fixed header and TSValue
// arguments, the invocation payload, and (for OpPutFrag) the fragment,
// flagged by a presence byte.
func appendApply(b []byte, a applyReq) []byte {
	b = append(b, msgApply)
	b = binary.BigEndian.AppendUint64(b, a.req)
	b = binary.BigEndian.AppendUint32(b, uint32(a.obj))
	b = binary.BigEndian.AppendUint32(b, uint32(a.client))
	b = append(b, byte(a.inv.Op))
	b = appendTSValue(b, a.inv.Arg)
	b = appendTSValue(b, a.inv.Exp)
	b = appendTSValue(b, a.inv.New)
	b = appendPayload(b, a.inv.Data)
	if a.inv.Frag == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return appendFragment(b, *a.inv.Frag)
}

// decodeApply decodes a msgApply body (after the type byte).
func decodeApply(b []byte) (applyReq, error) {
	if len(b) < 8+4+4+1+3*20 {
		return applyReq{}, fmt.Errorf("lanenet: truncated apply")
	}
	a := applyReq{
		req:    binary.BigEndian.Uint64(b),
		obj:    types.ObjectID(int32(binary.BigEndian.Uint32(b[8:]))),
		client: types.ClientID(int32(binary.BigEndian.Uint32(b[12:]))),
	}
	a.inv.Op = baseobj.OpCode(b[16])
	var err error
	off := 17
	if a.inv.Arg, off, err = tsValueAt(b, off); err != nil {
		return applyReq{}, err
	}
	if a.inv.Exp, off, err = tsValueAt(b, off); err != nil {
		return applyReq{}, err
	}
	if a.inv.New, off, err = tsValueAt(b, off); err != nil {
		return applyReq{}, err
	}
	if a.inv.Data, off, err = payloadAt(b, off); err != nil {
		return applyReq{}, err
	}
	if len(b) < off+1 {
		return applyReq{}, fmt.Errorf("lanenet: truncated apply fragment flag")
	}
	if b[off] == 1 {
		var f baseobj.Fragment
		if f, _, err = fragmentAt(b, off+1); err != nil {
			return applyReq{}, err
		}
		a.inv.Frag = &f
	}
	return a, nil
}

// minRespBodySize is the encoding of a response body with no message, no
// payload and no fragments.
const minRespBodySize = 2 + 20 + 2 + 4 + 2

// maxRespMsg clips a response's error text: it is diagnostic only, and a
// pathological message must not blow the frame bound.
const maxRespMsg = 1024

// appendRespBody encodes one response body (shared by msgResp and
// msgScanResp members): status, op, TSValue, message, payload bytes,
// fragment list.
func appendRespBody(b []byte, r applyResp) []byte {
	msg := r.msg
	if len(msg) > maxRespMsg {
		msg = msg[:maxRespMsg]
	}
	b = append(b, r.status, byte(r.resp.Op))
	b = appendTSValue(b, r.resp.Val)
	b = binary.BigEndian.AppendUint16(b, uint16(len(msg)))
	b = append(b, msg...)
	b = appendPayload(b, r.resp.Data)
	return appendFragList(b, r.resp.Frags)
}

// respBodyAt decodes one response body at offset off.
func respBodyAt(b []byte, off int) (applyResp, int, error) {
	if len(b) < off+minRespBodySize {
		return applyResp{}, 0, fmt.Errorf("lanenet: truncated response body")
	}
	r := applyResp{status: b[off]}
	r.resp.Op = baseobj.OpCode(b[off+1])
	var err error
	if r.resp.Val, off, err = tsValueAt(b, off+2); err != nil {
		return applyResp{}, 0, err
	}
	if len(b) < off+2 {
		return applyResp{}, 0, fmt.Errorf("lanenet: truncated response message length")
	}
	m := int(binary.BigEndian.Uint16(b[off:]))
	if len(b) < off+2+m {
		return applyResp{}, 0, fmt.Errorf("lanenet: truncated response message")
	}
	r.msg = string(b[off+2 : off+2+m])
	off += 2 + m
	if r.resp.Data, off, err = payloadAt(b, off); err != nil {
		return applyResp{}, 0, err
	}
	if r.resp.Frags, off, err = fragListAt(b, off); err != nil {
		return applyResp{}, 0, err
	}
	return r, off, nil
}

// appendResp encodes a msgResp body.
func appendResp(b []byte, r applyResp) []byte {
	b = append(b, msgResp)
	b = binary.BigEndian.AppendUint64(b, r.req)
	return appendRespBody(b, r)
}

// scanEntry is one member of a msgScan request: a read invocation addressed
// by object. Reads carry no arguments, so the op code is the whole
// invocation.
type scanEntry struct {
	obj    types.ObjectID
	client types.ClientID
	op     baseobj.OpCode
}

// appendScan encodes a msgScan body: one request id for the whole group
// plus 9 bytes per member.
func appendScan(b []byte, req uint64, ops []scanEntry) []byte {
	b = append(b, msgScan)
	b = binary.BigEndian.AppendUint64(b, req)
	b = binary.BigEndian.AppendUint16(b, uint16(len(ops)))
	for _, e := range ops {
		b = binary.BigEndian.AppendUint32(b, uint32(e.obj))
		b = binary.BigEndian.AppendUint32(b, uint32(e.client))
		b = append(b, byte(e.op))
	}
	return b
}

// decodeScan decodes a msgScan body (after the type byte).
func decodeScan(b []byte) (uint64, []scanEntry, error) {
	if len(b) < 10 {
		return 0, nil, fmt.Errorf("lanenet: truncated scan")
	}
	req := binary.BigEndian.Uint64(b)
	n := int(binary.BigEndian.Uint16(b[8:]))
	if len(b) < 10+9*n {
		return 0, nil, fmt.Errorf("lanenet: truncated scan member list")
	}
	ops := make([]scanEntry, n)
	for i := 0; i < n; i++ {
		off := 10 + 9*i
		ops[i] = scanEntry{
			obj:    types.ObjectID(int32(binary.BigEndian.Uint32(b[off:]))),
			client: types.ClientID(int32(binary.BigEndian.Uint32(b[off+4:]))),
			op:     baseobj.OpCode(b[off+8]),
		}
	}
	return req, ops, nil
}

// appendScanResp encodes a msgScanResp body: the group's request id plus
// per-member results in request order.
func appendScanResp(b []byte, req uint64, results []applyResp) []byte {
	b = append(b, msgScanResp)
	b = binary.BigEndian.AppendUint64(b, req)
	b = binary.BigEndian.AppendUint16(b, uint16(len(results)))
	for _, r := range results {
		b = appendRespBody(b, r)
	}
	return b
}

// decodeScanResp decodes a msgScanResp body (after the type byte).
func decodeScanResp(b []byte) (uint64, []applyResp, error) {
	if len(b) < 10 {
		return 0, nil, fmt.Errorf("lanenet: truncated scan response")
	}
	req := binary.BigEndian.Uint64(b)
	n := int(binary.BigEndian.Uint16(b[8:]))
	// As in fragListAt: the claimed count must fit before it allocates.
	if len(b)-10 < n*minRespBodySize {
		return 0, nil, fmt.Errorf("lanenet: scan response claims %d results in %d bytes", n, len(b)-10)
	}
	results := make([]applyResp, 0, n)
	off := 10
	for i := 0; i < n; i++ {
		r, next, err := respBodyAt(b, off)
		if err != nil {
			return 0, nil, fmt.Errorf("lanenet: scan result %d: %w", i, err)
		}
		r.req = req
		off = next
		results = append(results, r)
	}
	return req, results, nil
}

// appendBind encodes a msgBind body.
func appendBind(b []byte, table string) []byte {
	b = append(b, msgBind)
	b = binary.BigEndian.AppendUint16(b, uint16(len(table)))
	return append(b, table...)
}

// decodeBind decodes a msgBind body (after the type byte).
func decodeBind(b []byte) (string, error) {
	if len(b) < 2 {
		return "", fmt.Errorf("lanenet: truncated bind")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", fmt.Errorf("lanenet: truncated bind table name")
	}
	return string(b[2 : 2+n]), nil
}

// decodeResp decodes a msgResp body (after the type byte).
func decodeResp(b []byte) (applyResp, error) {
	if len(b) < 8 {
		return applyResp{}, fmt.Errorf("lanenet: truncated response")
	}
	r, _, err := respBodyAt(b, 8)
	if err != nil {
		return applyResp{}, err
	}
	r.req = binary.BigEndian.Uint64(b)
	return r, nil
}
