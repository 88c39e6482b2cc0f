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
// objects with their table entries, the register, its history and writer
// client — by a runtime.MemStats delta between two forced
// collections. With delta stored five times (PR 19) this read 24.05 objects
// and 1,970 B per key; with the one object table 24.02 and 1,603–1,617 B (a
// 32-byte table entry per base object where there were a 64-byte route and
// three map entries). PR 27 reads 23.52 and 1,554–1,594 B: the key map's
// buckets became table chunks, and the engine's bound read plan became the
// register's per-writer timestamp floors (8 pointer-free bytes for the one
// writer here, which share a tiny-allocator block). With the quorum
// register one object — its engine and the engine's list of one-op writers
// gone — it reads 20.01 and 1,480–1,512 B. Each ceiling is that reading plus
// slack for size-class drift.
func TestKeyFootprintAllocCeiling(t *testing.T) {
	const (
		keys       = 4096
		maxObjects = 20.10
		maxBytes   = 1600
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

// TestStorePairAllocCeiling pins the whole op path through the frontend: a
// write and a read through Store.StartWrite / StartRead on materialized keys
// of a 2-shard, 2-engine in-process store, each awaited, allocate nothing —
// the key is two loads away, and the engine's op, the handle's record and the
// chain's are recycled. With a closure, a pending-op record and an op object
// per layer the pair cost 14.
func TestStorePairAllocCeiling(t *testing.T) {
	const keys = 64
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Shards: 2, Engines: 2, Keys: keys, Kind: runner.KindABDMax, Atomic: true, NoHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var key uint64
	var v types.Value
	done := make(chan struct{}, 1)
	writeDone := func(err error) {
		if err != nil {
			t.Errorf("key %d write %d: %v", key, v, err)
		}
		done <- struct{}{}
	}
	readDone := func(got types.Value, err error) {
		if err != nil || got != v {
			t.Errorf("key %d read = %d, %v; want %d", key, got, err, v)
		}
		done <- struct{}{}
	}
	pair := func() {
		key, v = (key+1)%keys, v+1
		st.StartWrite(key, 0, v, writeDone)
		<-done
		st.StartRead(key, 0, readDone)
		<-done
	}
	for i := 0; i < 4*keys; i++ { // materialize every key and both client slots, warm the pools
		pair()
	}
	if got := testing.AllocsPerRun(1000, pair); got > 0 {
		t.Fatalf("write+read pair through the store allocates %.1f objects, want 0", got)
	}
}
