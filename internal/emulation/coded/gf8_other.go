//go:build !amd64

package coded

// mulRowsAdd accumulates dst[r] ^= coef[r]·src for every row r with the Go
// kernel, the only one off amd64. Every dst row must be at least as long as
// src.
func mulRowsAdd(dst [][]byte, coef []byte, src []byte) { mulRowsAddGo(dst, coef, src) }
