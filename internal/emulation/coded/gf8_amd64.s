#include "textflag.h"

// func mulAddGFNI(mat uint64, dst, src []byte)
//
// The coefficient's bit matrix is broadcast to every qword of Z0; each 64-byte
// step multiplies the source bytes by it with one VGF2P8AFFINEQB and XORs the
// products into dst.
TEXT ·mulAddGFNI(SB), NOSPLIT, $0-56
	MOVQ mat+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $6, CX
	JZ   done
	VPBROADCASTQ AX, Z0

loop:
	VMOVDQU64      (SI), Z1
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VPXORQ         (DI), Z1, Z1
	VMOVDQU64      Z1, (DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	DECQ           CX
	JNZ            loop
	VZEROUPPER

done:
	RET
