//go:build !amd64

package types

// fillWide writes no block off amd64: PutPayload's Go loop writes them all.
func fillWide(p []byte, x uint64) int { return 0 }

// matchWide compares no block off amd64: PayloadMismatch's Go loop compares
// them all.
func matchWide(b []byte, x uint64) int { return 0 }
