//go:build !race

package coded

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/emulation"
	"repro/internal/types"
)

// TestCodedOpAllocCeiling pins what a coded op costs the allocator at the
// coded workload's geometry (n=5, f=1, kData=3, 64 KiB values): the mean
// bytes per op over write+read pairs through the blocking handles on the
// in-process lane stay within 1.3× the value size. A write allocates its
// payload, which the data shards alias, and one buffer for the parity rows;
// a read whose gather holds every data shard verifies them in place and
// allocates no decode and no payload. The file is excluded under -race,
// where sync.Pool drops items on purpose.
func TestCodedOpAllocCeiling(t *testing.T) {
	const valueSize = 64 << 10
	const ceiling = 1.3 * valueSize
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(1)
	reg, err := New(fab, 1, emulation.Options{ValueSize: valueSize})
	if err != nil {
		t.Fatal(err)
	}
	reg.History().SetDiscard(true) // as the sharded store runs it: no history growth in the count
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	rd := reg.NewReader()
	ctx := context.Background()
	pair := func(v types.Value) {
		if err := w.Write(ctx, v); err != nil {
			t.Fatalf("write %d: %v", v, err)
		}
		if got, err := rd.Read(ctx); err != nil || got != v {
			t.Fatalf("read = %d, %v; want %d", got, err, v)
		}
	}
	pair(1) // first touch: pools and the register's own records
	const pairs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair(types.Value(i + 2))
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / (2 * pairs)
	if perOp > ceiling {
		t.Errorf("a coded op allocates %.0f B on average, ceiling %.0f B (1.3 × %d B value)", perOp, ceiling, valueSize)
	}
	t.Logf("%.0f B/op over %d write+read pairs", perOp, pairs)
}

// TestCoderEncodeAllocs pins Coder.Encode at two allocations per 64 KiB
// stripe at the coded workload's geometry (3 of 5): the buffer holding the
// parity rows and the fragment slice. A payload built for its stripe, as the
// coded register builds it, has its data shards aliased; the kernels' tables
// and every staging buffer stay off the heap.
func TestCoderEncodeAllocs(t *testing.T) {
	c, err := NewCoder(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	const valueSize = 64 << 10
	data := make([]byte, valueSize, 3*c.FragmentSize(valueSize))
	types.PutPayload(data, 7)
	if got := testing.AllocsPerRun(50, func() { c.Encode(data) }); got > 2 {
		t.Errorf("Encode of a 64 KiB stripe allocates %.0f times, want at most 2", got)
	}
}
