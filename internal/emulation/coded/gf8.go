// Package coded implements k-of-n erasure-coded register storage: a
// systematic Reed–Solomon coder over GF(2^8) and a register construction
// that stripes each written value into n timestamped fragments (one per
// server), any k of which reconstruct the payload. The coded register
// reuses the rounds engine for fragment scatter/gather and the fragment
// store base object (baseobj.FragStore) for per-server storage, so it
// rides every lane backend, the chaos gate, and view-based
// reconfiguration unchanged.
//
// The space story follows Spiegelman–Cassuto–Chockler: a read quorum of
// n−f servers intersects a completed write's n−f acked set in at least
// n−2f servers, so reconstruction from any read quorum requires
// k ≤ n−2f. At n=5, f=1 coding stores |v|/3 bytes per server (beating
// 2f+1 whole replicas); at f=2 the bound forces k=1 — whole-value
// replication — which is exactly the coded lower bound's message.
//
// A coded op runs at memory speed: a write's data shards alias its payload,
// and a read whose gather holds every data shard checks the value on the
// shards where they lie (types.PayloadMismatch) with no decode and no payload
// buffer; only a missing data shard is rebuilt, and the payload is assembled
// only for an atomic read's write-back. The parity rows and the rebuilt
// shards come from one multiply-accumulate, mulRowsAdd, with two kernels
// behind it. On amd64 machines with AVX-512 and GFNI it runs a vector kernel
// that multiplies 64 bytes per step by one 8×8 bit matrix per coefficient
// (VGF2P8AFFINEQB); everywhere else it runs a word-wide table kernel in plain
// Go. The choice is made once, when the program starts, by
// cpufeat.AVX512GFNI — there is nothing to configure. The Go kernel stays as
// the fallback and as the oracle the vector kernel is tested against byte
// for byte (TestMulRowsAddKernelsAgree, FuzzMulRowsAdd).
package coded

import "encoding/binary"

// GF(2^8) arithmetic with the AES-independent primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11d), the conventional choice for storage codes.
// Multiplication and inversion go through log/exp tables built once at
// package init; the generator is 2. The Go row kernel reads a full 256×256
// product table, also built at init; the GFNI kernel (gf8_amd64.go) reads its
// own bit matrices, derived without these, so a wrong entry in either set
// shows as a disagreement between the kernels.

const gfPoly = 0x11d

var (
	gfExp [510]byte // gfExp[i] = 2^i, doubled so mul can skip a mod 255
	gfLog [256]byte // gfLog[x] for x != 0
	// gfMulTable[c][x] = c·x: the rows the Go kernel builds its pair tables
	// from, and the GFNI kernel's byte tail.
	gfMulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 510; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := range gfMulTable {
		for x := range gfMulTable[c] {
			gfMulTable[c][x] = gfMul(byte(c), byte(x))
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; b must be non-zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("coded: GF(2^8) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a non-zero element.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfPow returns base^exp.
func gfPow(base byte, exp int) byte {
	if exp == 0 {
		return 1
	}
	if base == 0 {
		return 0
	}
	return gfExp[(int(gfLog[base])*exp)%255]
}

// mulRowsAddGo is the portable kernel: it accumulates dst[r] ^= coef[r]·src
// for every row r, the encode/decode hot loop, in plain Go. Rows go two at a
// time, in one pass over src, through a pair table: entry x holds both
// coefficients' products of the byte value x, row r's in the low half and row
// r+1's in the high half, and shifted copies of it place those products at
// byte 1, 2 or 3 of each half. Eight lookups ORed together, one per byte of an
// 8-byte word of src, multiply the word into both rows, and each row is XORed
// a word at a time. An odd last row pairs with the zero coefficient and writes
// its own row twice. Every dst row must be at least as long as src.
func mulRowsAddGo(dst [][]byte, coef []byte, src []byte) {
	var pair [4][256]uint64
	for r := 0; r < len(dst); r += 2 {
		d0, d1 := dst[r], dst[r]
		t0, t1 := &gfMulTable[coef[r]], &gfMulTable[0]
		if r+1 < len(dst) {
			d1, t1 = dst[r+1], &gfMulTable[coef[r+1]]
		}
		for x := range pair[0] {
			p := uint64(t0[x]) | uint64(t1[x])<<32
			pair[0][x], pair[1][x], pair[2][x], pair[3][x] = p, p<<8, p<<16, p<<24
		}
		mulPairAdd(d0[:len(src)], d1[:len(src)], src, &pair)
	}
}

// mulPairAdd is mulRowsAddGo's pass over src for one pair of rows.
func mulPairAdd(d0, d1, src []byte, pair *[4][256]uint64) {
	t0, t1, t2, t3 := &pair[0], &pair[1], &pair[2], &pair[3]
	words := len(src) &^ 7
	for i := 0; i < words; i += 8 {
		s := src[i : i+8 : i+8]
		lo := t0[s[0]] | t1[s[1]] | t2[s[2]] | t3[s[3]]
		hi := t0[s[4]] | t1[s[5]] | t2[s[6]] | t3[s[7]]
		// d1 may alias d0 (an odd row): finish d0's word before reading d1's.
		binary.LittleEndian.PutUint64(d0[i:], binary.LittleEndian.Uint64(d0[i:])^(lo&0xffffffff|hi<<32))
		binary.LittleEndian.PutUint64(d1[i:], binary.LittleEndian.Uint64(d1[i:])^(lo>>32|hi&^0xffffffff))
	}
	for i := words; i < len(src); i++ {
		p := t0[src[i]]
		d0[i] ^= byte(p)
		d1[i] ^= byte(p >> 32)
	}
}
