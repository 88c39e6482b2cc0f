package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpufeat"
)

func TestPayloadRoundTrip(t *testing.T) {
	for _, v := range []Value{0, 1, -1, 42, 1 << 40, -(1 << 40)} {
		for _, size := range []int{0, 1, 8, 9, 64, 1024, 64 << 10} {
			p := PayloadFor(v, size)
			if len(p) < MinPayloadSize {
				t.Fatalf("payload shorter than minimum: %d", len(p))
			}
			if size >= MinPayloadSize && len(p) != size {
				t.Fatalf("PayloadFor(%d, %d) has %d bytes", v, size, len(p))
			}
			got, err := p.Value()
			if err != nil {
				t.Fatalf("Value() for v=%d size=%d: %v", v, size, err)
			}
			if got != v {
				t.Fatalf("round trip %d -> %d", v, got)
			}
		}
	}
}

func TestPayloadDetectsCorruption(t *testing.T) {
	p := PayloadFor(7, 256)
	for _, idx := range []int{0, 7, 8, 100, 255} {
		q := p.Clone()
		q[idx] ^= 0x01
		if _, err := q.Value(); err == nil {
			t.Fatalf("corruption at byte %d undetected", idx)
		}
	}
}

func TestPayloadDetectsMix(t *testing.T) {
	// Splicing halves of two different writes' payloads must not verify —
	// this is what makes a torn (mixed-fragment) reconstruction visible.
	a, b := PayloadFor(1, 128), PayloadFor(2, 128)
	mix := append(a[:64].Clone(), b[64:]...)
	if _, err := Payload(mix).Value(); err == nil {
		t.Fatal("mixed payload verified")
	}
}

func TestPayloadDeterministic(t *testing.T) {
	if !bytes.Equal(PayloadFor(9, 512), PayloadFor(9, 512)) {
		t.Fatal("PayloadFor not deterministic")
	}
	if bytes.Equal(PayloadFor(9, 512)[8:], PayloadFor(10, 512)[8:]) {
		t.Fatal("fill does not depend on value")
	}
}

func TestPayloadClone(t *testing.T) {
	if Payload(nil).Clone() != nil {
		t.Fatal("nil clone not nil")
	}
	p := PayloadFor(3, 32)
	c := p.Clone()
	c[9] ^= 0xff
	if p[9] == c[9] {
		t.Fatal("clone aliases original")
	}
}

// TestPayloadGoldenBytes pins the codec's bytes: per size, the SHA-256 of the
// payloads of six values laid end to end. The sizes cover a bare value
// prefix, one-byte and seven-byte tails, a word short of a cache line, a
// 1 KiB payload with a one-byte tail and the 64 KiB value of the coded
// workload. Fragments, stored bytes and wire frames all carry these bytes.
func TestPayloadGoldenBytes(t *testing.T) {
	golden := []struct {
		size   int
		digest string
	}{
		{8, "d2d301d704f18840c720e48b274afee04738f35a9a43ec588154de3d7e75e7e5"},
		{9, "7b5a54d0b1b7a5279f210272552477c0f97daf3ad7229382d5364e5dc1c954e2"},
		{15, "6ba35795bc476678208b2a0a915e2187affcfae29a249d65cc9bf20f9d74e251"},
		{63, "0507d99141b89189598ea16a699d8bf82d1440edb4836ce7d4eefd37eb066230"},
		{1025, "7fd8d2fffea55655d3a41ba6315e9c2c275494bd72e69760b09fe8e78e9c3d78"},
		{64 << 10, "acec1533eb1323313ecdfec9a4f5def69baa748c17d5fb08b6ee6994f089027f"},
	}
	for _, g := range golden {
		h := sha256.New()
		for _, v := range []Value{0, 1, -1, 42, 1 << 40, -(1 << 40)} {
			h.Write(PayloadFor(v, g.size))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.digest {
			t.Errorf("size %d: payload digest %s, want %s", g.size, got, g.digest)
		}
	}
}

// TestPayloadValueNamesFirstCorruptByte checks that Value reports the first
// corrupt byte exactly: a flip inside a fill word (with a later one that must
// not be named) and a flip in the one-byte tail after the last whole word.
func TestPayloadValueNamesFirstCorruptByte(t *testing.T) {
	p := PayloadFor(7, 1025)
	for _, c := range []struct {
		flips []int
		want  int
	}{
		{[]int{100, 200}, 100},
		{[]int{203}, 203},
		{[]int{1024}, 1024},
	} {
		q := p.Clone()
		for _, i := range c.flips {
			q[i] ^= 0x80
		}
		_, err := q.Value()
		if err == nil {
			t.Fatalf("flips at %v undetected", c.flips)
		}
		if want := fmt.Sprintf("corrupt at byte %d ", c.want); !strings.Contains(err.Error(), want) {
			t.Errorf("flips at %v: %v, want it to name byte %d", c.flips, err, c.want)
		}
	}
}

// TestPayloadMismatchPieces verifies a payload cut into pieces at every
// alignment: the pieces of a clean payload match, and a flipped byte is named
// by the piece holding it, at its offset in the whole payload.
func TestPayloadMismatchPieces(t *testing.T) {
	p := PayloadFor(-5, 100)
	for cut := 1; cut <= 17; cut++ {
		for flip := -1; flip < len(p); flip += 7 {
			q := p.Clone()
			if flip >= 0 {
				q[flip] ^= 0x10
			}
			got := -1
			for off := 0; off < len(q) && got < 0; off += cut {
				got = PayloadMismatch(-5, off, q[off:min(off+cut, len(q))])
			}
			if got != flip {
				t.Fatalf("cut %d, flip at %d: PayloadMismatch named %d", cut, flip, got)
			}
		}
	}
}

// TestPayloadKernelsAgree compares the payload kernels picked for this
// machine with the Go loops alone (vector false), byte for byte and offset for
// offset. The fill: every length from 0 to 200 bytes and 64 KiB + 5. The
// check: pieces starting at payload offsets 0–15, clean and with one byte
// corrupted — at every position of the first three 64-byte blocks of the
// piece and at random later ones — must be named at the same offset by both.
func TestPayloadKernelsAgree(t *testing.T) {
	if !cpufeat.AVX512GFNI {
		t.Skip("no vector kernel on this machine: the payload codec runs the Go loops")
	}
	const v = Value(-77)
	for _, n := range append(seq(0, 200), 64<<10+5) {
		got, want := make([]byte, n+MinPayloadSize), make([]byte, n+MinPayloadSize)
		PutPayload(got, v)
		putPayload(want, v, false)
		if !bytes.Equal(got, want) {
			t.Fatalf("fill of %d bytes differs from the Go loop's at byte %d", len(got), payloadMismatch(v, 0, got, false))
		}
	}
	p := PayloadFor(v, 64<<10+5)
	rng := rand.New(rand.NewSource(1))
	for off := 0; off < 16; off++ {
		piece := p[off:]
		flips := append([]int{-1}, seq(0, 3*64-1)...)
		for range 64 {
			flips = append(flips, 3*64+rng.Intn(len(piece)-3*64))
		}
		for _, flip := range flips {
			b := bytes.Clone(piece)
			if flip >= 0 {
				b[flip] ^= byte(1 + rng.Intn(255))
			}
			got, want := PayloadMismatch(v, off, b), payloadMismatch(v, off, b, false)
			if got != want {
				t.Fatalf("piece at offset %d, byte %d corrupted: the kernel names %d, the Go loop %d", off, flip, got, want)
			}
			if flip >= 0 && got != off+flip || flip < 0 && got != -1 {
				t.Fatalf("piece at offset %d, byte %d corrupted: PayloadMismatch named %d", off, flip, got)
			}
		}
	}
}

// FuzzPayloadMismatch cross-checks PayloadMismatch, as picked for this
// machine, against the Go loops alone on fuzzed bytes laid over a payload: a
// piece of v's payload starting at off, with the fuzzed bytes written over it
// from at.
func FuzzPayloadMismatch(f *testing.F) {
	f.Add(int64(3), uint16(0), uint16(300), uint16(64), []byte{0})
	f.Add(int64(-1), uint16(13), uint16(1000), uint16(700), []byte("stray"))
	f.Add(int64(1<<40), uint16(8), uint16(129), uint16(200), []byte{})
	if !cpufeat.AVX512GFNI {
		f.Skip("no vector kernel on this machine: the payload codec runs the Go loops")
	}
	f.Fuzz(func(t *testing.T, v int64, off, n, at uint16, over []byte) {
		b := PayloadFor(Value(v), int(off)+int(n))[off:]
		if int(at) < len(b) {
			copy(b[at:], over)
		}
		got, want := PayloadMismatch(Value(v), int(off), b), payloadMismatch(Value(v), int(off), b, false)
		if got != want {
			t.Fatalf("%d bytes at offset %d: the kernel names %d, the Go loop %d", len(b), off, got, want)
		}
	})
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

func BenchmarkPayloadFor64K(b *testing.B) {
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PayloadFor(Value(i), 64<<10)
	}
}

func BenchmarkPayloadValue64K(b *testing.B) {
	p := PayloadFor(3, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Value(); err != nil {
			b.Fatal(err)
		}
	}
}
