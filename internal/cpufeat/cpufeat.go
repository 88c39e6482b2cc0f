// Package cpufeat answers the one CPU-feature question the data path asks:
// may the AVX-512 kernels run here? The erasure coder's GF(2^8)
// multiply-accumulate (coded.mulRowsAdd) and the payload codec's fill and
// check (types.PutPayload, types.PayloadMismatch) each have an assembly
// kernel for such machines and a Go kernel for every other one; both read
// AVX512GFNI, which is settled once, when the program starts, so the choice
// is made in one place and there is nothing to configure.
package cpufeat
