package types

import "repro/internal/cpufeat"

// fillWide writes the whole 64-byte blocks of p with the fill that follows
// state x — word j of block b is fillMix(x + (8b+j+1)·fillGamma), big-endian
// — and returns how many it wrote: all of them on a machine with AVX-512
// (cpufeat.AVX512GFNI), eight words a step, and none elsewhere.
func fillWide(p []byte, x uint64) int {
	if !cpufeat.AVX512GFNI {
		return 0
	}
	fillBlocks(p, x)
	return len(p) / 64
}

// matchWide compares the whole 64-byte blocks of b with the fill that follows
// state x, as fillWide lays it out, and returns how many leading blocks match:
// it stops at the first block that differs. It compares none without AVX-512.
func matchWide(b []byte, x uint64) int {
	if !cpufeat.AVX512GFNI {
		return 0
	}
	return matchBlocks(b, x)
}

//go:noescape
func fillBlocks(p []byte, x uint64)

//go:noescape
func matchBlocks(b []byte, x uint64) int
