//go:build !race

package shardstore

import (
	"runtime"
	"testing"

	"repro/internal/runner"
	"repro/internal/types"
)

// TestKeyFootprintAllocCeiling gates the standing invariant "per-key
// footprint is throughput": on the in-process path the collector scans what
// a register keeps, so live heap objects and bytes per key move ops_per_s
// and setup_s (PR 14: +3 objects and +200 B per key cost 12–18 % of
// throughput). It materializes and first-writes 4,096 atomic abd-max keys on
// one in-process shard and bounds what stays live per key — three base
// objects with their table entries, the register, its engine, history and
// writer client — by a runtime.MemStats delta between two forced
// collections. With delta stored five times (PR 19) this read 24.05 objects
// and 1,970 B per key; with the one object table 24.02 and 1,603–1,617 B (a
// 32-byte table entry per base object where there were a 64-byte route and
// three map entries). The object ceiling is the old reading, the byte ceiling
// the new one plus slack for size-class drift.
func TestKeyFootprintAllocCeiling(t *testing.T) {
	const (
		keys       = 4096
		maxObjects = 24.05
		maxBytes   = 1700
	)
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Keys: keys, Kind: runner.KindABDMax, Atomic: true, N: 3, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	live := func() (objects, bytes uint64) {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's sweep finalized
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs - m.Frees, m.HeapAlloc
	}
	objs0, bytes0 := live()
	errs := make(chan error, keys)
	for key := uint64(0); key < keys; key++ {
		st.StartWrite(key, 0, types.Value(key+1), func(err error) { errs <- err })
	}
	for i := 0; i < keys; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	objs1, bytes1 := live()
	perKeyObjects := float64(objs1-objs0) / keys
	perKeyBytes := float64(bytes1-bytes0) / keys
	t.Logf("%.2f live heap objects and %.0f live bytes per key over %d keys", perKeyObjects, perKeyBytes, keys)
	if perKeyObjects > maxObjects {
		t.Errorf("%.2f live heap objects per key, ceiling %.2f", perKeyObjects, maxObjects)
	}
	if perKeyBytes > maxBytes {
		t.Errorf("%.0f live bytes per key, ceiling %d", perKeyBytes, maxBytes)
	}
	runtime.KeepAlive(st)
}
