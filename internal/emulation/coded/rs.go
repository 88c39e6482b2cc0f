package coded

import (
	"errors"
	"fmt"
	"slices"
)

// Coder is a systematic k-of-n Reed–Solomon erasure coder over GF(2^8).
// Encode splits a payload into k data fragments and derives n−k parity
// fragments; Decode reconstructs the payload from any k fragments
// (identified by index). A Coder is immutable and safe for concurrent
// use.
type Coder struct {
	k, n int
	// matrix is the n×k encode matrix: row i dotted with the k data
	// fragments yields fragment i. The top k rows are the identity
	// (systematic), obtained by normalizing a Vandermonde matrix —
	// every k-row submatrix of a Vandermonde matrix over distinct
	// points is invertible, and column operations preserve that.
	matrix [][]byte
}

// ErrShort reports that fewer than k fragments were supplied to Decode.
var ErrShort = errors.New("coded: not enough fragments to reconstruct")

// NewCoder builds a k-of-n coder. Requires 1 ≤ k ≤ n ≤ 255.
func NewCoder(k, n int) (*Coder, error) {
	if k < 1 || n < k || n > 255 {
		return nil, fmt.Errorf("coded: invalid parameters k=%d n=%d (need 1 <= k <= n <= 255)", k, n)
	}
	// Vandermonde rows over the distinct points 0..n-1: row i =
	// [i^0, i^1, ..., i^(k-1)] (with 0^0 = 1).
	vm := make([][]byte, n)
	for i := 0; i < n; i++ {
		vm[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			vm[i][j] = gfPow(byte(i), j)
		}
	}
	// Normalize to systematic form: apply column operations until the
	// top k×k block is the identity. Column ops multiply every row by
	// the same invertible k×k matrix on the right, so the any-k-rows-
	// invertible property survives.
	for c := 0; c < k; c++ {
		if vm[c][c] == 0 {
			swap := -1
			for c2 := c + 1; c2 < k; c2++ {
				if vm[c][c2] != 0 {
					swap = c2
					break
				}
			}
			if swap < 0 {
				return nil, fmt.Errorf("coded: degenerate Vandermonde matrix at k=%d n=%d", k, n)
			}
			for r := 0; r < n; r++ {
				vm[r][c], vm[r][swap] = vm[r][swap], vm[r][c]
			}
		}
		inv := gfInv(vm[c][c])
		for r := 0; r < n; r++ {
			vm[r][c] = gfMul(vm[r][c], inv)
		}
		for c2 := 0; c2 < k; c2++ {
			if c2 == c || vm[c][c2] == 0 {
				continue
			}
			f := vm[c][c2]
			for r := 0; r < n; r++ {
				vm[r][c2] ^= gfMul(vm[r][c], f)
			}
		}
	}
	return &Coder{k: k, n: n, matrix: vm}, nil
}

// K returns the reconstruction threshold.
func (c *Coder) K() int { return c.k }

// N returns the total fragment count.
func (c *Coder) N() int { return c.n }

// FragmentSize returns the per-fragment byte size for a payload of the
// given length: ceil(length/k), never zero so fragments of an empty
// payload still carry their timestamp.
func (c *Coder) FragmentSize(length int) int {
	if length <= 0 {
		return 1
	}
	return (length + c.k - 1) / c.k
}

// Encode stripes data into n fragments of FragmentSize(len(data)) bytes
// each. The first k fragments are the zero-padded data shards
// (systematic); the rest are parity.
//
// The data shards are consecutive FragmentSize pieces of the stripe: data,
// extended to k·FragmentSize bytes when its capacity covers that and the
// padding there is zero — a payload built for it, as the coded register's
// are. Every shard that lies whole in the stripe aliases data's array; the
// rest of the stripe, zero-padded, and the parity rows share one fresh
// buffer, so a payload built for its stripe allocates only the parity rows.
// Aliasing is safe because nobody writes either side afterwards: a payload
// is immutable once built, and a fragment store owns the Data it is handed
// (baseobj.Invocation.Body) and never modifies it. A caller that goes on to
// modify data must encode a copy.
func (c *Coder) Encode(data []byte) [][]byte {
	fs := c.FragmentSize(len(data))
	stripe := data
	if span := c.k * fs; cap(data) >= span && !slices.ContainsFunc(data[len(data):span], func(b byte) bool { return b != 0 }) {
		stripe = data[:span]
	}
	whole := min(len(stripe)/fs, c.k)
	rest := make([]byte, (c.n-whole)*fs)
	copy(rest, stripe[whole*fs:])
	frags := make([][]byte, c.n)
	for i := range frags {
		if i < whole {
			frags[i] = stripe[i*fs : (i+1)*fs : (i+1)*fs]
		} else {
			o := (i - whole) * fs
			frags[i] = rest[o : o+fs : o+fs]
		}
	}
	var coef [255]byte
	for j := 0; j < c.k; j++ {
		for i := c.k; i < c.n; i++ {
			coef[i-c.k] = c.matrix[i][j]
		}
		mulRowsAdd(frags[c.k:], coef[:c.n-c.k], frags[j])
	}
	return frags
}

// Decode reconstructs a payload of the given length from any k
// fragments, supplied as a fragment-index → bytes map. Every supplied
// fragment must have FragmentSize(length) bytes; extras beyond k are
// ignored deterministically (lowest indexes win).
func (c *Coder) Decode(length int, frags map[int][]byte) ([]byte, error) {
	fs := c.FragmentSize(length)
	have := make([][]byte, c.n)
	out := make([]byte, c.k*fs)
	for i, f := range frags {
		if i >= 0 && i < c.n {
			have[i] = f
		}
		if i >= 0 && i < c.k {
			copy(out[i*fs:(i+1)*fs], f)
		}
	}
	if err := c.rebuild(have, fs, out); err != nil {
		return nil, err
	}
	return out[:length], nil
}

// rebuild makes frags[:k] hold every data shard. frags is indexed by
// fragment position, nil where absent; each missing data shard j is
// computed from the lowest k present fragments into stripe[j·fs:(j+1)·fs]
// (stripe holds k·fs zero bytes there; nil allocates one). The lowest k
// fragments include every present data shard, so a stripe whose data shards
// are all present takes no arithmetic and no memory. The fragments used must
// be fs bytes long.
func (c *Coder) rebuild(frags [][]byte, fs int, stripe []byte) error {
	rows := make([]int, 0, c.k)
	for i := 0; i < c.n && len(rows) < c.k; i++ {
		if f := frags[i]; f != nil {
			if len(f) != fs {
				return fmt.Errorf("coded: fragment %d has %d bytes, want %d", i, len(f), fs)
			}
			rows = append(rows, i)
		}
	}
	if len(rows) < c.k {
		return fmt.Errorf("%w: have %d of %d", ErrShort, len(rows), c.k)
	}
	if rows[c.k-1] < c.k {
		return nil
	}
	inv, err := c.invert(rows)
	if err != nil {
		return err
	}
	if stripe == nil {
		stripe = make([]byte, c.k*fs)
	}
	var missing []int
	var dst [][]byte
	for j := 0; j < c.k; j++ {
		if frags[j] == nil {
			missing = append(missing, j)
			dst = append(dst, stripe[j*fs:(j+1)*fs:(j+1)*fs])
		}
	}
	// Missing shard j = row j of the inverse dotted with the chosen
	// fragments: one pass over each fragment accumulates every missing shard.
	coef := make([]byte, len(missing))
	for r, ri := range rows {
		for m, j := range missing {
			coef[m] = inv[j][r]
		}
		mulRowsAdd(dst, coef, frags[ri])
	}
	for m, j := range missing {
		frags[j] = dst[m]
	}
	return nil
}

// invert returns the inverse of the k×k submatrix of the encode matrix at
// the given rows, by Gauss–Jordan on [sub | I].
func (c *Coder) invert(rows []int) ([][]byte, error) {
	aug := make([][]byte, c.k)
	for r, ri := range rows {
		aug[r] = make([]byte, 2*c.k)
		copy(aug[r], c.matrix[ri])
		aug[r][c.k+r] = 1
	}
	for col := 0; col < c.k; col++ {
		piv := -1
		for r := col; r < c.k; r++ {
			if aug[r][col] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, fmt.Errorf("coded: singular submatrix for rows %v", rows)
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := gfInv(aug[col][col])
		for j := 0; j < 2*c.k; j++ {
			aug[col][j] = gfMul(aug[col][j], inv)
		}
		for r := 0; r < c.k; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			f := aug[r][col]
			for j := 0; j < 2*c.k; j++ {
				aug[r][j] ^= gfMul(aug[col][j], f)
			}
		}
	}
	for r := range aug {
		aug[r] = aug[r][c.k:]
	}
	return aug, nil
}
