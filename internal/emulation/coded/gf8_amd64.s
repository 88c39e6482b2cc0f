#include "textflag.h"

// func mulAddAVX2(tbl *[32]byte, dst, src []byte)
//
// Each 32-byte step splits the source bytes into low and high nibbles, looks
// both up with VPSHUFB in the coefficient's two 16-entry tables (broadcast to
// both 128-bit lanes), XORs the two products and XORs the sum into dst.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $5, CX
	JZ   done
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
