package coded

// haveAVX2 is true when both the CPU and the OS support AVX2 (CPUID leaf 7
// names it, and XGETBV shows the OS saves the YMM registers): mulRowsAdd then
// runs the vector kernel. Read once, at package initialisation.
var haveAVX2 = cpuHasAVX2()

// gfNibbles[c] holds the AVX2 kernel's two 16-entry tables for coefficient c:
// bytes 0–15 are c·x and bytes 16–31 are c·(x<<4) for every nibble x, so a
// byte's product is the XOR of its low nibble's and its high nibble's entry.
// The tables are derived by shift-and-reduce, independently of the Go
// kernel's log tables.
var gfNibbles = nibbleTables()

func nibbleTables() *[256][32]byte {
	var t [256][32]byte
	for c := range t {
		var pow [8]byte // pow[i] = c·2^i
		pow[0] = byte(c)
		for i := 1; i < 8; i++ {
			p := int(pow[i-1]) << 1
			if p&0x100 != 0 {
				p ^= gfPoly
			}
			pow[i] = byte(p)
		}
		for x := 0; x < 16; x++ {
			for i := 0; i < 4; i++ {
				if x>>i&1 != 0 {
					t[c][x] ^= pow[i]
					t[c][16+x] ^= pow[i+4]
				}
			}
		}
	}
	return &t
}

// mulRowsAdd accumulates dst[r] ^= coef[r]·src for every row r, the
// encode/decode hot loop, with the AVX2 kernel where the machine has it and
// the Go kernel elsewhere. Every dst row must be at least as long as src.
func mulRowsAdd(dst [][]byte, coef []byte, src []byte) {
	if !haveAVX2 {
		mulRowsAddGo(dst, coef, src)
		return
	}
	body := len(src) &^ 31
	for r, d := range dst {
		d = d[:len(src)]
		mulAddAVX2(&gfNibbles[coef[r]], d, src)
		t := &gfMulTable[coef[r]]
		for i := body; i < len(src); i++ {
			d[i] ^= t[src[i]]
		}
	}
}

// mulAddAVX2 sets dst[i] ^= c·src[i] for i below len(src) rounded down to a
// multiple of 32, where tbl is gfNibbles[c]; dst must be at least that long.
//
//go:noescape
func mulAddAVX2(tbl *[32]byte, dst, src []byte)

// cpuid runs CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
