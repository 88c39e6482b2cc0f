package lanenet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/types"
)

// frameOf frames one encoded body the way both ends do.
func frameOf(t testing.TB, body []byte) []byte {
	t.Helper()
	b, start := beginFrame(nil)
	b, err := endFrame(append(b, body...), start)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeApply is appendApply of a whole request record.
func encodeApply(b []byte, a applyReq) []byte {
	return appendApply(b, a.req, a.obj, a.client, &a.inv)
}

// decodedApply is decodeApply into a fresh record.
func decodedApply(b []byte) (a applyReq, err error) {
	err = decodeApply(b, &a)
	return a, err
}

// decodedResp is decodeResp into a fresh record.
func decodedResp(b []byte) (r applyResp, err error) {
	err = decodeResp(b, &r)
	return r, err
}

// Sample messages: one of every type, with and without the payload and
// fragment carriers.
var (
	sampleFrag = baseobj.Fragment{
		TS: types.TSValue{TS: 9, Writer: 2, Val: 77}, Index: 3, K: 3, Length: 1 << 16, Committed: true,
		Data: types.Payload{0xde, 0xad, 0xbe, 0xef},
	}
	samplePending = baseobj.Fragment{
		TS: types.TSValue{TS: 9, Writer: 2, Val: 77}, Index: 4, K: 3, Length: 1 << 16,
		Data: types.Payload{0xde, 0xad, 0xbe, 0xef},
	}
	sampleApplyCAS = applyReq{req: 42, obj: 7, client: 3, inv: baseobj.Invocation{
		Op:  baseobj.OpCAS,
		Exp: types.TSValue{TS: 4, Writer: -1, Val: -9},
		Arg: types.TSValue{TS: 5, Writer: 0, Val: 11},
	}}
	sampleApplyWriteMax = applyReq{req: 45, obj: 8, client: 1, inv: baseobj.Invocation{
		Op:   baseobj.OpWriteMax,
		Arg:  types.TSValue{TS: 1, Writer: 2, Val: 3},
		Body: &baseobj.Fragment{Data: types.Payload{1, 2, 3}},
	}}
	sampleApplyFrag = applyReq{req: 43, obj: 5, client: 2, inv: baseobj.Invocation{Op: baseobj.OpPutFrag, Body: &sampleFrag}}
	sampleResp      = applyResp{req: 42, status: statusOther, msg: "boom", resp: baseobj.Response{
		Op: baseobj.OpGetFrags, Val: types.TSValue{TS: 9, Writer: 2, Val: 77},
		Data: types.Payload{9, 8}, Frags: []baseobj.Fragment{sampleFrag, samplePending},
	}}
	sampleScan     = []scanEntry{{obj: 1, client: 2, op: baseobj.OpRead}, {obj: 300, client: -1, op: baseobj.OpReadMax}}
	sampleScanResp = []applyResp{
		{req: 44, status: statusOK, resp: baseobj.Response{Op: baseobj.OpRead, Val: types.TSValue{TS: 6, Writer: 1, Val: 12}}},
		{req: 44, status: statusUnknownObject, msg: "object 300 not hosted"},
	}
	samplePlace = placeReq{obj: 7, kind: baseobj.KindFragStore, writers: baseobj.WriterRange{Lo: 1, Hi: 4},
		state: baseobj.State{Val: types.TSValue{TS: 9, Writer: 2, Val: 77}, Data: types.Payload{5, 6, 7}, Frags: []baseobj.Fragment{sampleFrag}}}
)

// goldenFrames pins the wire bytes of one frame of every type. The hex was
// produced by the pre-append encoders (encodeX + writeFrame at PR 15), so a
// match is the check that the in-place encoders left the format alone. The
// place frame's hex was written by hand when its writer list became the
// fixed writer range: Lo and Hi as two u32s after the kind byte. The two
// plain apply frames' hex was produced by the encoder of the three-value
// invocation (Arg, Exp, New and a payload field) for the same CAS and
// write-max, so a match is the check that the two-value invocation kept the
// wire layout: a CAS's new value in the New slot, a write's payload in the
// payload field.
var goldenFrames = []struct {
	name string
	body func() []byte
	hex  string
}{
	{"apply cas", func() []byte { return encodeApply(nil, sampleApplyCAS) },
		"0000005302000000000000002a00000007000000030500000000000000000000000000000000000000000000000000000004fffffffffffffffffffffff7000000000000000500000000000000000000000b0000000000"},
	{"apply write-max+payload", func() []byte { return encodeApply(nil, sampleApplyWriteMax) },
		"0000005602000000000000002d0000000800000001040000000000000001000000020000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000000000000301020300"},
	{"apply+fragment", func() []byte { return encodeApply(nil, sampleApplyFrag) },
		"0000007802000000000000002b0000000500000002060000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000000000900000002000000000000004d00030003000100000100000004deadbeef"},
	{"resp", func() []byte { return appendResp(nil, &sampleResp) },
		"0000007703000000000000002a0407000000000000000900000002000000000000004d0004626f6f6d0000000209080002000000000000000900000002000000000000004d00030003000100000100000004deadbeef000000000000000900000002000000000000004d00040003000100000000000004deadbeef"},
	{"scan", func() []byte { return appendScan(nil, 44, sampleScan) },
		"0000001d04000000000000002c00020000000100000002010000012cffffffff03"},
	{"scanResp", func() []byte { return appendScanResp(nil, 44, sampleScanResp) },
		"0000005c05000000000000002c00020001000000000000000600000001000000000000000c00000000000000000300000000000000000000000000000000000000000000156f626a65637420333030206e6f7420686f73746564000000000000"},
	{"place", func() []byte { return appendPlace(nil, samplePlace) },
		"0000005001000000070400000001000000040000000000000009" +
			"00000002000000000000004d000000030506070001000000000000000900000002000000000000004d00030003000100000100000004deadbeef"},
	{"bind", func() []byte { return appendBind(nil, "shard-17") },
		"0000000b06000873686172642d3137"},
}

// goldenStream returns every golden frame back to back.
func goldenStream(t testing.TB) []byte {
	t.Helper()
	var stream []byte
	for _, g := range goldenFrames {
		b, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b...)
	}
	return stream
}

// decoded is what decodeFrame recovered from one frame body.
type decoded struct {
	place    placeReq
	apply    applyReq
	resp     applyResp
	scanReq  uint64
	scan     []scanEntry
	scanResp []applyResp
	bind     string
}

// decodeFrame runs the decoder for the body's message type; ok is false
// when the body is malformed or of unknown type.
func decodeFrame(body []byte) (d decoded, ok bool) {
	if len(body) == 0 {
		return d, false
	}
	var err error
	switch body[0] {
	case msgPlace:
		d.place, err = decodePlace(body[1:])
	case msgApply:
		err = decodeApply(body[1:], &d.apply)
	case msgResp:
		err = decodeResp(body[1:], &d.resp)
	case msgScan:
		d.scanReq, d.scan, err = decodeScan(body[1:])
	case msgScanResp:
		d.scanReq, d.scanResp, err = decodeScanResp(body[1:])
	case msgBind:
		d.bind, err = decodeBind(body[1:])
	default:
		return d, false
	}
	return d, err == nil
}

// reencode encodes a decoded message back into a body of the given type.
func reencode(typ byte, d decoded) []byte {
	switch typ {
	case msgPlace:
		return appendPlace(nil, d.place)
	case msgApply:
		return encodeApply(nil, d.apply)
	case msgResp:
		return appendResp(nil, &d.resp)
	case msgScan:
		return appendScan(nil, d.scanReq, d.scan)
	case msgScanResp:
		return appendScanResp(nil, d.scanReq, d.scanResp)
	default:
		return appendBind(nil, d.bind)
	}
}

// TestGoldenWireBytes: the append encoders produce exactly the pinned
// frames, and the pinned frames decode to the sample messages.
func TestGoldenWireBytes(t *testing.T) {
	for _, g := range goldenFrames {
		if got := hex.EncodeToString(frameOf(t, g.body())); got != g.hex {
			t.Errorf("%s frame =\n%s\nwant\n%s", g.name, got, g.hex)
		}
	}
	want := []decoded{
		{apply: sampleApplyCAS}, {apply: sampleApplyWriteMax}, {apply: sampleApplyFrag}, {resp: sampleResp},
		{scanReq: 44, scan: sampleScan}, {scanReq: 44, scanResp: sampleScanResp},
		{place: samplePlace}, {bind: "shard-17"},
	}
	fr := newFrameReader(bytes.NewReader(goldenStream(t)))
	for i, g := range goldenFrames {
		body, err := fr.next()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got, ok := decodeFrame(body)
		if !ok || !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s decoded = %+v (ok=%v), want %+v", g.name, got, ok, want[i])
		}
	}
}

// FuzzFrameDecode feeds an arbitrary byte stream through the frame reader
// and every decoder: whatever the peer sends, decoding must not panic, and
// a body that decodes must survive an encode/decode round trip unchanged.
func FuzzFrameDecode(f *testing.F) {
	stream := goldenStream(f)
	f.Add(stream)
	for off := 0; off < len(stream); {
		n := 4 + int(binary.BigEndian.Uint32(stream[off:]))
		f.Add(stream[off : off+n])
		off += n
	}
	f.Add([]byte{0, 0, 0, 11, msgScanResp, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff}) // count-lying scan response
	for _, u := range unholdableApplies {
		f.Add(u.frame)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := newFrameReader(bytes.NewReader(stream))
		for {
			body, err := fr.next()
			if err != nil {
				return
			}
			first, ok := decodeFrame(body)
			if !ok {
				continue
			}
			if len(first.resp.msg) > maxRespMsg {
				first.resp.msg = first.resp.msg[:maxRespMsg] // the encoder clips
			}
			for i := range first.scanResp {
				if m := &first.scanResp[i].msg; len(*m) > maxRespMsg {
					*m = (*m)[:maxRespMsg]
				}
			}
			again, ok := decodeFrame(reencode(body[0], first))
			if !ok || !reflect.DeepEqual(again, first) {
				t.Fatalf("round trip of type %d changed the message:\n%+v\n%+v (ok=%v)", body[0], first, again, ok)
			}
		}
	})
}

// TestDecodeDoesNotAliasWindow pins the view-lifetime rule: a decoder
// copies what it keeps. Every frame is decoded from the reader's window,
// the window is then overwritten, and the decoded message must not change.
func TestDecodeDoesNotAliasWindow(t *testing.T) {
	fr := newFrameReader(bytes.NewReader(goldenStream(t)))
	for _, g := range goldenFrames {
		body, err := fr.next()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got, ok := decodeFrame(body)
		if !ok {
			t.Fatalf("%s: golden frame did not decode", g.name)
		}
		typ := body[0]
		for i := range body {
			body[i] = 0xaa
		}
		want, _ := decodeFrame(g.body())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (type %d) changed when its window was overwritten:\n%+v\nwant\n%+v", g.name, typ, got, want)
		}
	}
}

// TestFrameLargerThanBufferFallsBack: a frame that cannot fit the read
// buffer takes the copied path and leaves the reader in sync for the
// in-place frames around it.
func TestFrameLargerThanBufferFallsBack(t *testing.T) {
	big := sampleApplyWriteMax
	big.inv.Body = &baseobj.Fragment{Data: types.PayloadFor(5, frameBufSize)}
	small := frameOf(t, appendResp(nil, &sampleResp))
	var stream []byte
	stream = append(stream, small...)
	stream = append(stream, frameOf(t, encodeApply(nil, big))...)
	stream = append(stream, small...)

	fr := newFrameReader(bytes.NewReader(stream))
	for i, want := range []decoded{{resp: sampleResp}, {apply: big}, {resp: sampleResp}} {
		body, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, ok := decodeFrame(body); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d did not survive the reader (ok=%v)", i, ok)
		}
	}
	if fr.ready() {
		t.Fatal("reader reports a frame ready past the end of the stream")
	}
}

// TestLargeValuesOverTCPLane drives both reader paths end to end: a 64 KiB
// replicated payload (request and response frames larger than the buffer,
// so both ends fall back to the copied read) and a coded fragment of a
// 64 KiB value striped three ways (decoded in place).
func TestLargeValuesOverTCPLane(t *testing.T) {
	addrs, _ := startNodes(t, 1)
	maker, _, err := Lanes(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.PlaceRegister(0, baseobj.WriterRange{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := c.PlaceFragStore(0)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c, fabric.WithLanes(maker))
	t.Cleanup(func() { fab.Close() })

	value := types.PayloadFor(7, 64<<10)
	ts := types.TSValue{TS: 1, Writer: 0, Val: 7}
	if o := await(t, fab, 0, reg, baseobj.Invocation{Op: baseobj.OpWrite, Arg: ts, Body: &baseobj.Fragment{Data: value}}); o.Err != nil {
		t.Fatalf("64 KiB write: %v", o.Err)
	}
	if o := await(t, fab, 1, reg, baseobj.Invocation{Op: baseobj.OpRead}); o.Err != nil || !bytes.Equal(o.Resp.Data, value) {
		t.Fatalf("64 KiB read: err=%v, %d bytes back, equal=%v", o.Err, len(o.Resp.Data), bytes.Equal(o.Resp.Data, value))
	}

	frag := baseobj.Fragment{TS: ts, Index: 1, K: 3, Length: len(value), Data: value[: len(value)/3 : len(value)/3]}
	if 4+200+len(frag.Data) >= frameBufSize {
		t.Fatalf("fragment of %d bytes would not take the in-place path", len(frag.Data))
	}
	sent := frag
	sent.Data = frag.Data.Clone()
	if o := await(t, fab, 0, store, baseobj.Invocation{Op: baseobj.OpPutFrag, Body: &sent}); o.Err != nil {
		t.Fatalf("put-frag: %v", o.Err)
	}
	o := await(t, fab, 1, store, baseobj.Invocation{Op: baseobj.OpGetFrags})
	if o.Err != nil || len(o.Resp.Frags) != 1 || !reflect.DeepEqual(o.Resp.Frags[0], frag) {
		t.Fatalf("get-frags: err=%v, %d fragments, want the stored one back", o.Err, len(o.Resp.Frags))
	}
}

var allocSink []byte

// TestCodecAllocations: encoding an apply into a sized buffer and decoding
// a payload-free response from a window allocate nothing.
func TestCodecAllocations(t *testing.T) {
	a := applyReq{req: 9, obj: 7, client: 3, inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 4, Val: 2}}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		b, start := beginFrame(buf[:0])
		b, _ = endFrame(appendApply(b, a.req, a.obj, a.client, &a.inv), start)
		allocSink = b
	}); n != 0 {
		t.Errorf("appendApply into a sized buffer: %v allocs, want 0", n)
	}

	window := appendResp(nil, &applyResp{req: 9, status: statusOK, resp: baseobj.Response{Op: baseobj.OpRead, Val: types.TSValue{TS: 4, Val: 2}}})
	var r applyResp
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeResp(window[1:], &r); err != nil || r.req != 9 {
			t.Fatal("response did not decode")
		}
	}); n != 0 {
		t.Errorf("decodeResp of a payload-free response: %v allocs, want 0", n)
	}
}

// TestLyingCountsDoNotSizeAllocations: a count from the wire is checked
// against the bytes present before it sizes anything.
func TestLyingCountsDoNotSizeAllocations(t *testing.T) {
	scanResp := make([]byte, 10)
	binary.BigEndian.PutUint16(scanResp[8:], 0xffff)
	fragList := []byte{0xff, 0xff, 0, 0, 0}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, errScan := decodeScanResp(scanResp)
	_, _, errFrags := fragListAt(fragList, 0)
	runtime.ReadMemStats(&after)
	if errScan == nil || errFrags == nil {
		t.Fatalf("lying counts decoded: scan response err=%v, fragment list err=%v", errScan, errFrags)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Fatalf("decoding two lying counts allocated %d bytes", grew)
	}
}
