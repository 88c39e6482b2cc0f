package types

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Payload is the byte-slice value representation: the variable-length
// bytes a register physically stores for one logical Value. The logical
// domain stays the int64 Value — every checker, history, and sweep works
// on Values — while Payload is what travels in frames, lands in object
// tables, and is striped by the erasure coder. The two are linked by a
// deterministic, self-verifying codec: PayloadFor(v, size) embeds v in
// the first 8 bytes and fills the rest with a splitmix stream derived
// from v, so Value() can both recover v and detect any corrupted or
// cross-write-mixed byte.
type Payload []byte

// MinPayloadSize is the smallest payload that can carry a Value.
const MinPayloadSize = 8

// PayloadFor materializes the payload for v at the given size (clamped
// up to MinPayloadSize): 8-byte big-endian value, then the verification
// fill.
func PayloadFor(v Value, size int) Payload {
	if size < MinPayloadSize {
		size = MinPayloadSize
	}
	p := make(Payload, size)
	PutPayload(p, v)
	return p
}

// PutPayload writes the payload for v into p in place, filling all of
// len(p) ≥ MinPayloadSize bytes: what PayloadFor(v, len(p)) returns, in a
// buffer the caller sized (the coded register builds its payloads in a
// buffer its stripes can alias). On amd64 machines with AVX-512
// (cpufeat.AVX512GFNI) the fill's whole 64-byte blocks come from a vector
// kernel, eight words a step (payload_amd64.s); the Go loops write the rest,
// and everything on other machines, byte for byte the same.
func PutPayload(p []byte, v Value) { putPayload(p, v, true) }

// putPayload is PutPayload; with vector false it leaves every block to the Go
// loops, the vector kernel's test oracle.
func putPayload(p []byte, v Value, vector bool) {
	binary.BigEndian.PutUint64(p, uint64(v))
	x := fillSeed(v)
	blocks := 0
	if vector {
		blocks = fillWide(p[MinPayloadSize:], x)
	}
	off := MinPayloadSize + 64*blocks
	x += uint64(8*blocks) * fillGamma
	// Four words a step, one bounds check for the four; then a word at a
	// time.
	for ; off+32 <= len(p); off += 32 {
		q := p[off : off+32 : off+32]
		x0 := x + fillGamma
		x1 := x0 + fillGamma
		x2 := x1 + fillGamma
		x = x2 + fillGamma
		binary.BigEndian.PutUint64(q, fillMix(x0))
		binary.BigEndian.PutUint64(q[8:], fillMix(x1))
		binary.BigEndian.PutUint64(q[16:], fillMix(x2))
		binary.BigEndian.PutUint64(q[24:], fillMix(x))
	}
	for ; off+8 <= len(p); off += 8 {
		x += fillGamma
		binary.BigEndian.PutUint64(p[off:], fillMix(x))
	}
	if off < len(p) {
		var tail [8]byte
		binary.BigEndian.PutUint64(tail[:], fillMix(x+fillGamma))
		copy(p[off:], tail[:])
	}
}

// Value recovers the logical value, verifying the fill byte-for-byte. A
// payload assembled from fragments of two different writes fails here —
// this is the torn-stripe detector.
func (p Payload) Value() (Value, error) {
	if len(p) < MinPayloadSize {
		return 0, fmt.Errorf("types: payload too short (%d bytes)", len(p))
	}
	v := Value(binary.BigEndian.Uint64(p))
	if i := PayloadMismatch(v, 0, p); i >= 0 {
		return 0, fmt.Errorf("types: payload corrupt at byte %d (value %d)", i, v)
	}
	return v, nil
}

// PayloadMismatch compares b with bytes [off, off+len(b)) of v's payload and
// returns the payload offset of the first byte that differs, or −1 when all
// of them match. It allocates nothing, so a payload held in pieces — the
// data shards of a stripe — is verified where it lies, piece by piece. On
// amd64 machines with AVX-512 a vector kernel compares whole 64-byte blocks
// of fill words first (payload_amd64.s) and stops at the first block that
// differs; the Go loops resume there and name the byte.
func PayloadMismatch(v Value, off int, b []byte) int { return payloadMismatch(v, off, b, true) }

// payloadMismatch is PayloadMismatch; with vector false it leaves every block
// to the Go loops, the vector kernel's test oracle.
func payloadMismatch(v Value, off int, b []byte, vector bool) int {
	// A payload is a run of 8-byte big-endian words: word 0 is v, word w ≥ 1
	// the fill's w-th output. The value word and a piece of a word the range
	// starts inside go bytewise; whole fill words go as integers, the fill
	// stream advanced a step per word.
	for len(b) > 0 && (off < MinPayloadSize || off%8 != 0) {
		n := min(8-off%8, len(b))
		if i := wordMismatch(payloadWord(v, off/8), off%8, b[:n]); i >= 0 {
			return off + i
		}
		off, b = off+n, b[n:]
	}
	if len(b) == 0 {
		return -1
	}
	x := fillSeed(v) + uint64(off/8-1)*fillGamma
	words := len(b) &^ 7
	blocks := 0
	if vector {
		blocks = matchWide(b, x)
	}
	i := 64 * blocks
	x += uint64(8*blocks) * fillGamma
	// Four words a step while all of them match; the word loop below resumes
	// at a step holding a mismatch and names its byte.
	for ; i+32 <= words; i += 32 {
		q := b[i : i+32 : i+32]
		x0 := x + fillGamma
		x1 := x0 + fillGamma
		x2 := x1 + fillGamma
		x3 := x2 + fillGamma
		if (binary.BigEndian.Uint64(q)^fillMix(x0))|(binary.BigEndian.Uint64(q[8:])^fillMix(x1))|
			(binary.BigEndian.Uint64(q[16:])^fillMix(x2))|(binary.BigEndian.Uint64(q[24:])^fillMix(x3)) != 0 {
			break
		}
		x = x3
	}
	for ; i < words; i += 8 {
		x += fillGamma
		if got, want := binary.BigEndian.Uint64(b[i:i+8]), fillMix(x); got != want {
			return off + i + bits.LeadingZeros64(got^want)/8
		}
	}
	if i := wordMismatch(fillMix(x+fillGamma), 0, b[words:]); i >= 0 {
		return off + words + i
	}
	return -1
}

// Clone returns an independent copy (nil stays nil).
func (p Payload) Clone() Payload {
	if p == nil {
		return nil
	}
	c := make(Payload, len(p))
	copy(c, p)
	return c
}

// The fill is a splitmix64 stream seeded from the value: fill word w ≥ 1 is
// fillMix(fillSeed(v) + w·fillGamma), so any word can be computed on its own.
const fillGamma = 0x9e3779b97f4a7c15

func fillSeed(v Value) uint64 { return uint64(v) ^ fillGamma }

func fillMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// payloadWord returns word w of v's payload as a big-endian integer.
func payloadWord(v Value, w int) uint64 {
	if w == 0 {
		return uint64(v)
	}
	return fillMix(fillSeed(v) + uint64(w)*fillGamma)
}

// wordMismatch compares b with the bytes of the big-endian word w from
// byte lo on and returns the index into b of the first that differs, or −1.
func wordMismatch(w uint64, lo int, b []byte) int {
	var want [8]byte
	binary.BigEndian.PutUint64(want[:], w)
	for i := range b {
		if b[i] != want[lo+i] {
			return i
		}
	}
	return -1
}
