package coded

import (
	"bytes"
	"testing"

	"repro/internal/cpufeat"
)

func TestGFTables(t *testing.T) {
	// exp/log are inverse bijections on the non-zero elements.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		if seen[gfExp[i]] {
			t.Fatalf("gfExp not injective at %d", i)
		}
		seen[gfExp[i]] = true
		if gfLog[gfExp[i]] != byte(i) {
			t.Fatalf("gfLog(gfExp(%d)) = %d", i, gfLog[gfExp[i]])
		}
	}
	if seen[0] {
		t.Fatal("gfExp produced 0")
	}
}

func TestGFFieldAxioms(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			ab, ba := gfMul(byte(a), byte(b)), gfMul(byte(b), byte(a))
			if ab != ba {
				t.Fatalf("mul not commutative at %d,%d", a, b)
			}
			if b != 0 {
				if gfMul(gfDiv(byte(a), byte(b)), byte(b)) != byte(a) {
					t.Fatalf("div/mul mismatch at %d,%d", a, b)
				}
			}
		}
		if gfMul(byte(a), 1) != byte(a) || gfMul(byte(a), 0) != 0 {
			t.Fatalf("identity/zero law broken at %d", a)
		}
		if a != 0 && gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inverse broken at %d", a)
		}
	}
	// Spot-check associativity and distributivity on a generator-spanning
	// sample (full triple loop is 16M iterations; the sample covers every
	// residue class of the log table).
	for a := 1; a < 256; a += 7 {
		for b := 1; b < 256; b += 11 {
			for c := 0; c < 256; c += 13 {
				x, y, z := byte(a), byte(b), byte(c)
				if gfMul(gfMul(x, y), z) != gfMul(x, gfMul(y, z)) {
					t.Fatalf("mul not associative at %d,%d,%d", a, b, c)
				}
				if gfMul(x, y^z) != gfMul(x, y)^gfMul(x, z) {
					t.Fatalf("mul not distributive at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestGFPow(t *testing.T) {
	for base := 0; base < 256; base++ {
		want := byte(1)
		for e := 0; e < 10; e++ {
			if got := gfPow(byte(base), e); got != want {
				t.Fatalf("gfPow(%d,%d) = %d, want %d", base, e, got, want)
			}
			want = gfMul(want, byte(base))
		}
	}
}

// TestMulRowAdd checks both kernels — the Go kernel and the one mulRowsAdd
// picked for this machine — against gfMul for every coefficient over every
// row length from 0 to three 64-byte vector steps and seven bytes, so each
// length reaches the word or vector loop, its byte tail, or both. Each pass
// accumulates three rows: a pair (the coefficient under test and its
// complement, which must not leak into each other) and an odd last row.
func TestMulRowAdd(t *testing.T) {
	const maxLen = 3*64 + 7
	src := make([]byte, maxLen)
	for i := range src {
		src[i] = byte(i*37 + 11)
	}
	src[3], src[17], src[40] = 0, 0xff, 0xf0
	for _, k := range []struct {
		name string
		fn   func(dst [][]byte, coef []byte, src []byte)
	}{{"go", mulRowsAddGo}, {"picked", mulRowsAdd}} {
		for c := 0; c < 256; c++ {
			coef := []byte{byte(c), byte(255 - c), byte(c) ^ 0x5a}
			for n := 0; n <= maxLen; n++ {
				dst := [][]byte{make([]byte, n+1), make([]byte, n+1), make([]byte, n+1)}
				for r := range dst {
					for i := range dst[r] {
						dst[r][i] = byte(9 * (i + r))
					}
				}
				k.fn(dst, coef, src[:n])
				for r, d := range dst {
					for i := 0; i < n; i++ {
						if want := byte(9*(i+r)) ^ gfMul(src[i], coef[r]); d[i] != want {
							t.Fatalf("%s: c=%d len=%d row %d idx %d: got %d want %d", k.name, coef[r], n, r, i, d[i], want)
						}
					}
					if d[n] != byte(9*(n+r)) {
						t.Fatalf("%s: c=%d len=%d row %d: wrote past the row", k.name, coef[r], n, r)
					}
				}
			}
		}
	}
}

// kernelsAgree runs the Go kernel and mulRowsAdd on copies of the same rows
// — each row placed dstOff bytes into its buffer, src srcOff bytes into its
// own, with guard bytes on both sides — and fails unless every buffer ends
// byte-for-byte equal and the guards are untouched.
func kernelsAgree(t *testing.T, coef []byte, src []byte, srcOff, dstOff int) {
	t.Helper()
	const guard = 40
	sbuf := make([]byte, srcOff+len(src)+guard)
	copy(sbuf[srcOff:], src)
	s := sbuf[srcOff : srcOff+len(src)]
	fresh := func() ([][]byte, [][]byte) {
		bufs, rows := make([][]byte, len(coef)), make([][]byte, len(coef))
		for r := range bufs {
			bufs[r] = make([]byte, dstOff+len(src)+guard)
			for i := range bufs[r] {
				bufs[r][i] = byte(i*13 + r*71 + 5)
			}
			rows[r] = bufs[r][dstOff : dstOff+len(src)]
		}
		return bufs, rows
	}
	want, wantRows := fresh()
	got, gotRows := fresh()
	mulRowsAddGo(wantRows, coef, s)
	mulRowsAdd(gotRows, coef, s)
	for r := range want {
		if !bytes.Equal(got[r], want[r]) {
			j := 0
			for got[r][j] == want[r][j] {
				j++
			}
			t.Fatalf("coef %v len %d src+%d dst+%d: row %d differs at buffer byte %d (row byte %d): got %#x, Go kernel %#x",
				coef, len(src), srcOff, dstOff, r, j, j-dstOff, got[r][j], want[r][j])
		}
	}
}

// TestMulRowsAddKernelsAgree compares the kernel mulRowsAdd picked for this
// machine with the Go kernel byte for byte: every coefficient, at every
// length from 0 to 130 bytes and at 64 KiB + 5, with source and destination
// offsets 0–31 (the source offset steps with the coefficient, the
// destination offset with the length, so every pair of offsets is met), on
// three rows — an odd count, the Go kernel's aliased last row.
func TestMulRowsAddKernelsAgree(t *testing.T) {
	if !cpufeat.AVX512GFNI {
		t.Skip("no vector kernel on this machine: mulRowsAdd is the Go kernel")
	}
	lengths := make([]int, 0, 132)
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 64<<10+5)
	src := payloadFor(11, 64<<10+5)
	for c := 0; c < 256; c++ {
		coef := []byte{byte(c), byte(c + 85), byte(c + 170)}
		for _, n := range lengths {
			kernelsAgree(t, coef, src[:n], c%32, (c/32+n)%32)
		}
	}
}

// FuzzMulRowsAdd cross-checks the picked kernel against the Go kernel on
// fuzzed source bytes, coefficients (one row each, up to eight rows) and
// offsets.
func FuzzMulRowsAdd(f *testing.F) {
	f.Add([]byte("a coded stripe's parity rows"), []byte{2, 0, 255}, uint8(0), uint8(0))
	f.Add(payloadFor(5, 100), []byte{0x1d}, uint8(31), uint8(7))
	f.Add(payloadFor(6, 300), []byte{1, 2, 3, 4, 5}, uint8(3), uint8(29))
	if !cpufeat.AVX512GFNI {
		f.Skip("no vector kernel on this machine: mulRowsAdd is the Go kernel")
	}
	f.Fuzz(func(t *testing.T, src, coef []byte, srcOff, dstOff uint8) {
		if len(coef) == 0 || len(coef) > 8 {
			return
		}
		kernelsAgree(t, coef, src, int(srcOff%32), int(dstOff%32))
	})
}
