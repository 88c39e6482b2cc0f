#include "textflag.h"

// The splitmix64 constants, for VPBROADCASTQ: the step of one 64-byte block
// (eight words: 8·fillGamma mod 2^64) and fillMix's two multipliers.
DATA fillConst<>+0(SB)/8, $0xf1bbcdcbfa53e0a8
DATA fillConst<>+8(SB)/8, $0xbf58476d1ce4e5b9
DATA fillConst<>+16(SB)/8, $0x94d049bb133111eb
GLOBL fillConst<>(SB), RODATA|NOPTR, $24

// Word j of a block is one step further along the stream: lane j adds
// (j+1)·fillGamma mod 2^64 to the state.
DATA fillLanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA fillLanes<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA fillLanes<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA fillLanes<>+24(SB)/8, $0x78dde6e5fd29f054
DATA fillLanes<>+32(SB)/8, $0x1715609f7c746c69
DATA fillLanes<>+40(SB)/8, $0xb54cda58fbbee87e
DATA fillLanes<>+48(SB)/8, $0x538454127b096493
DATA fillLanes<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL fillLanes<>(SB), RODATA|NOPTR, $64

// VPSHUFB indices reversing the bytes of each qword: the fill is big-endian.
DATA bswapQ<>+0(SB)/8, $0x0001020304050607
DATA bswapQ<>+8(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapQ<>+16(SB)/8, $0x0001020304050607
DATA bswapQ<>+24(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapQ<>+32(SB)/8, $0x0001020304050607
DATA bswapQ<>+40(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapQ<>+48(SB)/8, $0x0001020304050607
DATA bswapQ<>+56(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapQ<>(SB), RODATA|NOPTR, $64

// FILL_SETUP loads the state x (in AX) into Z0 as the eight words' states and
// the constants into Z1–Z4.
#define FILL_SETUP \
	VPBROADCASTQ AX, Z0                \
	VPADDQ       fillLanes<>(SB), Z0, Z0 \
	VPBROADCASTQ fillConst<>+0(SB), Z1 \
	VPBROADCASTQ fillConst<>+8(SB), Z2 \
	VPBROADCASTQ fillConst<>+16(SB), Z3 \
	VMOVDQU64    bswapQ<>(SB), Z4

// FILL_BLOCK leaves the next block's eight words in Z5, big-endian, and steps
// the states in Z0 a block on: fillMix with VPMULLQ, then VPSHUFB.
#define FILL_BLOCK \
	VPSRLQ  $30, Z0, Z5 \
	VPXORQ  Z0, Z5, Z5  \
	VPMULLQ Z2, Z5, Z5  \
	VPSRLQ  $27, Z5, Z6 \
	VPXORQ  Z6, Z5, Z5  \
	VPMULLQ Z3, Z5, Z5  \
	VPSRLQ  $31, Z5, Z6 \
	VPXORQ  Z6, Z5, Z5  \
	VPSHUFB Z4, Z5, Z5  \
	VPADDQ  Z1, Z0, Z0

// func fillBlocks(p []byte, x uint64)
TEXT ·fillBlocks(SB), NOSPLIT, $0-32
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ x+24(FP), AX
	SHRQ $6, CX
	JZ   filled
	FILL_SETUP

fill:
	FILL_BLOCK
	VMOVDQU64 Z5, (DI)
	ADDQ      $64, DI
	DECQ      CX
	JNZ       fill
	VZEROUPPER

filled:
	RET

// func matchBlocks(b []byte, x uint64) int
TEXT ·matchBlocks(SB), NOSPLIT, $0-40
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	MOVQ x+24(FP), AX
	XORQ DX, DX
	SHRQ $6, CX
	JZ   matched
	FILL_SETUP

match:
	FILL_BLOCK
	VPCMPUQ  $4, (SI), Z5, K1
	KORTESTB K1, K1
	JNE      differs
	ADDQ     $64, SI
	INCQ     DX
	CMPQ     DX, CX
	JNE      match

differs:
	VZEROUPPER

matched:
	MOVQ DX, ret+32(FP)
	RET
