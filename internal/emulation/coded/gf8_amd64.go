package coded

import "repro/internal/cpufeat"

// gfAffine[c] is multiplication by c as the 8×8 bit matrix VGF2P8AFFINEQB
// reads: byte 7−i of the word is output bit i's row, whose bit j is bit i of
// c·2^j, so the product's bit i is the parity of that row ANDed with the
// source byte. The matrices are derived by shift-and-reduce, independently of
// the Go kernel's log tables — a package-level var initialises before init
// fills gfMulTable, so they could not be read from it anyway — and a wrong
// entry in either shows as a disagreement between the kernels.
var gfAffine = affineMatrices()

func affineMatrices() *[256]uint64 {
	var m [256]uint64
	for c := range m {
		p := c // c·2^j
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				m[c] |= uint64(p>>i&1) << (8*(7-i) + j)
			}
			if p <<= 1; p&0x100 != 0 {
				p ^= gfPoly
			}
		}
	}
	return &m
}

// mulRowsAdd accumulates dst[r] ^= coef[r]·src for every row r, the
// encode/decode hot loop, with the GFNI kernel where the machine has AVX-512
// and GFNI (cpufeat.AVX512GFNI) and the Go kernel elsewhere. Every dst row
// must be at least as long as src.
func mulRowsAdd(dst [][]byte, coef []byte, src []byte) {
	if !cpufeat.AVX512GFNI {
		mulRowsAddGo(dst, coef, src)
		return
	}
	body := len(src) &^ 63
	for r, d := range dst {
		d = d[:len(src)]
		mulAddGFNI(gfAffine[coef[r]], d, src)
		t := &gfMulTable[coef[r]]
		for i := body; i < len(src); i++ {
			d[i] ^= t[src[i]]
		}
	}
}

// mulAddGFNI sets dst[i] ^= c·src[i] for i below len(src) rounded down to a
// multiple of 64, where mat is gfAffine[c]; dst must be at least that long.
//
//go:noescape
func mulAddGFNI(mat uint64, dst, src []byte)
