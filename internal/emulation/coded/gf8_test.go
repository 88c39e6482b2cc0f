package coded

import "testing"

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

// TestMulRowAdd checks the word kernel against gfMul for every coefficient
// over every row length from 0 to three words and seven bytes, so each
// length reaches the word loop, its byte tail, or both. Each pass
// accumulates three rows: a pair (the coefficient under test and its
// complement, which must not leak into each other) and an odd last row.
func TestMulRowAdd(t *testing.T) {
	const maxLen = 3*8 + 7
	src := make([]byte, maxLen)
	for i := range src {
		src[i] = byte(i*37 + 11)
	}
	src[3], src[17] = 0, 0xff
	for c := 0; c < 256; c++ {
		coef := []byte{byte(c), byte(255 - c), byte(c) ^ 0x5a}
		for n := 0; n <= maxLen; n++ {
			dst := [][]byte{make([]byte, n+1), make([]byte, n+1), make([]byte, n+1)}
			for r := range dst {
				for i := range dst[r] {
					dst[r][i] = byte(9 * (i + r))
				}
			}
			mulRowsAdd(dst, coef, src[:n])
			for r, d := range dst {
				for i := 0; i < n; i++ {
					if want := byte(9*(i+r)) ^ gfMul(src[i], coef[r]); d[i] != want {
						t.Fatalf("c=%d len=%d row %d idx %d: got %d want %d", coef[r], n, r, i, d[i], want)
					}
				}
				if d[n] != byte(9*(n+r)) {
					t.Fatalf("c=%d len=%d row %d: wrote past the row", coef[r], n, r)
				}
			}
		}
	}
}
