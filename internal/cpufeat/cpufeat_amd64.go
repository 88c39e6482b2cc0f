package cpufeat

// AVX512GFNI is true when the CPU has AVX-512 F, DQ and BW and GFNI, and the
// OS saves the state they use: XCR0 bits 1 and 2 (XMM and YMM) and 5, 6 and 7
// (the opmask registers and all 32 ZMM registers in full).
var AVX512GFNI = detect()

func detect() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	const (
		avx512f  = 1 << 16 // EBX
		avx512dq = 1 << 17 // EBX
		avx512bw = 1 << 30 // EBX
		gfni     = 1 << 8  // ECX
	)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512dq|avx512bw) == avx512f|avx512dq|avx512bw && ecx7&gfni != 0
}

// cpuid runs CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)
