package coded

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// payloadFor builds a deterministic pseudo-random payload.
func payloadFor(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestCoderValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 3}, {-1, 2}, {4, 3}, {1, 0}, {2, 256}} {
		if _, err := NewCoder(bad[0], bad[1]); err == nil {
			t.Fatalf("NewCoder(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestCoderSystematic(t *testing.T) {
	c, err := NewCoder(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := payloadFor(1, 300)
	frags := c.Encode(data)
	fs := c.FragmentSize(len(data))
	for j := 0; j < 3; j++ {
		want := make([]byte, fs)
		copy(want, data[j*fs:min(len(data), (j+1)*fs)])
		if !bytes.Equal(frags[j], want) {
			t.Fatalf("fragment %d is not the systematic data shard", j)
		}
	}
}

// TestCoderGoldenFragments pins the fragment bytes Encode produces — what
// fragment stores hold and wire frames carry — as one SHA-256 per geometry
// over the fragments of payloads from 0 bytes to 64 KiB. Each payload is
// encoded twice: as a plain slice, and built in a buffer whose capacity
// covers the stripe, whose data shards Encode must alias rather than copy.
func TestCoderGoldenFragments(t *testing.T) {
	golden := []struct {
		k, n   int
		digest string
	}{
		{3, 5, "a2e62f1a6585c3bcdb0c498aabb4c27391084c96440561a98c8ad7906c3267a9"},
		{2, 4, "d1f55250245f7ece37ee939024a79da578226eb8cdfab17c76e79beaac6b6a98"},
		{1, 3, "d5dfbfc1a1857ea513a69f9114ef421ae850a02feaec01fb3db76c79432c077a"},
		{4, 7, "2f5a698ed51ff450c53b421fa0496e82c5d7a3a3f4010912af417e34e38691ef"},
	}
	for _, g := range golden {
		c, err := NewCoder(g.k, g.n)
		if err != nil {
			t.Fatal(err)
		}
		plain, built := sha256.New(), sha256.New()
		for _, ln := range []int{0, 1, 8, 63, 1025, 64 << 10} {
			data := payloadFor(int64(ln), ln)
			for _, f := range c.Encode(data) {
				plain.Write(f)
			}
			stripe := make([]byte, ln, g.k*c.FragmentSize(ln))
			copy(stripe, data)
			frags := c.Encode(stripe)
			for _, f := range frags {
				built.Write(f)
			}
			for j := 0; j < g.k && ln > 0; j++ {
				if &frags[j][0] != &stripe[:cap(stripe)][j*len(frags[j])] {
					t.Fatalf("k=%d n=%d len=%d: data shard %d does not alias the payload built for its stripe", g.k, g.n, ln, j)
				}
			}
		}
		for name, h := range map[string][]byte{"plain": plain.Sum(nil), "built": built.Sum(nil)} {
			if got := hex.EncodeToString(h); got != g.digest {
				t.Errorf("k=%d n=%d (%s payloads): fragment digest %s, want %s", g.k, g.n, name, got, g.digest)
			}
		}
	}
}

// TestCoderAllSubsets exercises every (n choose k) recovery subset for a
// grid of small (k, n) pairs and several payload lengths, including the
// padding-heavy cases where len(data) is not a multiple of k.
func TestCoderAllSubsets(t *testing.T) {
	grid := [][2]int{{1, 1}, {1, 3}, {2, 2}, {2, 3}, {2, 4}, {3, 4}, {3, 5}, {1, 5}, {4, 6}, {2, 6}}
	lengths := []int{0, 1, 7, 64, 65, 255}
	for _, kn := range grid {
		k, n := kn[0], kn[1]
		c, err := NewCoder(k, n)
		if err != nil {
			t.Fatalf("NewCoder(%d,%d): %v", k, n, err)
		}
		for _, ln := range lengths {
			data := payloadFor(int64(k*1000+n*10+ln), ln)
			frags := c.Encode(data)
			if len(frags) != n {
				t.Fatalf("k=%d n=%d: %d fragments", k, n, len(frags))
			}
			forEachSubset(n, k, func(subset []int) {
				pick := make(map[int][]byte, k)
				for _, i := range subset {
					pick[i] = frags[i]
				}
				got, err := c.Decode(ln, pick)
				if err != nil {
					t.Fatalf("k=%d n=%d len=%d subset=%v: %v", k, n, ln, subset, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("k=%d n=%d len=%d subset=%v: reconstruction mismatch", k, n, ln, subset)
				}
			})
		}
	}
}

// forEachSubset enumerates every k-element subset of {0..n-1}.
func forEachSubset(n, k int, fn func([]int)) {
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(idx)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestCoderShortAndMalformed(t *testing.T) {
	c, _ := NewCoder(3, 5)
	data := payloadFor(2, 100)
	frags := c.Encode(data)
	if _, err := c.Decode(len(data), map[int][]byte{0: frags[0], 4: frags[4]}); err == nil {
		t.Fatal("decode with k-1 fragments succeeded")
	}
	bad := map[int][]byte{0: frags[0], 1: frags[1], 2: frags[2][:10]}
	if _, err := c.Decode(len(data), bad); err == nil {
		t.Fatal("decode with short fragment succeeded")
	}
}

// TestCoderCrossCheck is a deterministic fuzz: random (k, n, length,
// subset) tuples, decode-of-encode must be the identity.
func TestCoderCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(9)
		k := 1 + rng.Intn(n)
		ln := rng.Intn(2048)
		c, err := NewCoder(k, n)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, ln)
		rng.Read(data)
		frags := c.Encode(data)
		perm := rng.Perm(n)
		pick := make(map[int][]byte, k)
		for _, i := range perm[:k] {
			pick[i] = frags[i]
		}
		got, err := c.Decode(ln, pick)
		if err != nil {
			t.Fatalf("trial %d (k=%d n=%d len=%d): %v", trial, k, n, ln, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d (k=%d n=%d len=%d): mismatch", trial, k, n, ln)
		}
	}
}

// FuzzDecodeEncode cross-checks decode(encode(data)) == data under the
// native fuzzer, varying the recovery subset with the seed byte.
func FuzzDecodeEncode(f *testing.F) {
	f.Add([]byte("hello coded register"), uint8(0))
	f.Add([]byte{}, uint8(7))
	f.Add(payloadFor(9, 300), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, pickSeed uint8) {
		const k, n = 3, 5
		c, err := NewCoder(k, n)
		if err != nil {
			t.Fatal(err)
		}
		frags := c.Encode(data)
		rng := rand.New(rand.NewSource(int64(pickSeed)))
		pick := make(map[int][]byte, k)
		for _, i := range rng.Perm(n)[:k] {
			pick[i] = frags[i]
		}
		got, err := c.Decode(len(data), pick)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("decode(encode(data)) != data")
		}
	})
}

// stripePayload is payloadFor(seed, n) in a buffer whose capacity covers c's
// stripe, as the coded register builds its payloads: Encode aliases its data
// shards instead of copying a shard into a fresh buffer.
func stripePayload(c *Coder, seed int64, n int) []byte {
	b := make([]byte, n, c.K()*c.FragmentSize(n))
	copy(b, payloadFor(seed, n))
	return b
}

// BenchmarkEncode64K and BenchmarkDecode64K measure the register's form of
// a 64 KiB value at the coded workload's geometry (3 of 5): a payload built
// for its stripe.
func BenchmarkEncode64K(b *testing.B) {
	c, _ := NewCoder(3, 5)
	data := stripePayload(c, 3, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(data)
	}
}

func BenchmarkDecode64K(b *testing.B) {
	c, _ := NewCoder(3, 5)
	data := stripePayload(c, 4, 64<<10)
	frags := c.Encode(data)
	pick := map[int][]byte{1: frags[1], 3: frags[3], 4: frags[4]}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(len(data), pick); err != nil {
			b.Fatal(err)
		}
	}
}
