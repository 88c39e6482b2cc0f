//go:build !amd64

package coded

// haveAVX2 is false off amd64: the Go kernel is the only one.
const haveAVX2 = false

// mulRowsAdd accumulates dst[r] ^= coef[r]·src for every row r with the Go
// kernel. Every dst row must be at least as long as src.
func mulRowsAdd(dst [][]byte, coef []byte, src []byte) { mulRowsAddGo(dst, coef, src) }
