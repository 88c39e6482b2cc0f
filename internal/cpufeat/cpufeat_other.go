//go:build !amd64

package cpufeat

// AVX512GFNI is false off amd64: every kernel runs in Go.
const AVX512GFNI = false
