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
// throughput). For each construction it materializes and first-writes 4,096
// keys on one in-process shard and bounds what stays live per key — the base
// objects with their table entries, the register, its history and writer
// client — by a runtime.MemStats delta between two forced collections.
//
// Atomic abd-max, the benchmark's construction, read 24.05 objects and
// 1,970 B per key with delta stored five times (PR 19); 24.02 and
// 1,603–1,617 B with the one object table; 23.52 and 1,554–1,594 B once the
// key map's buckets became table chunks (PR 27); 20.01 and 1,474–1,512 B
// with the quorum register one object. With table entries and their cells
// in arena blocks, the register's first placement, writer handles and floor
// inside the register, the engine's writer index gone and the key's record
// built once, it reads 5.02 and 1,019–1,025 B — three heap objects per key
// (register, key record, writer client) plus the write's two history
// records. The other kinds read, before that change and after it: abd-cas
// 23.51 / 1,648 B → 6.02 / 1,058–1,076 B (its write-max one chain per
// register, no store values); aac-max 32.51 / 2,366–2,374 B → 18.02 /
// 1,842–1,850 B; regemu 33.01 / 2,328–2,334 B → 26.02 / 2,284–2,290 B;
// coded 40.02 / 2,971–2,979 B → 36.01 / 2,907–2,917 B. Regemu then read
// 26.02 / 2,304 B at k = 1, n = 7; with its first placement inside the
// register and held in two slices (the layout's ServerOf map, the plan and
// the set copies gone) and its writers in the register's handle table, now
// emulation.Handles (no per-writer handle or cover map) it reads 14.02 / 1,400–1,410 B — six of them the
// writer-restriction maps of its three registers. With a register's writer
// restriction one client-ID range inside its cell instead of a map, regemu
// reads 8.02 / 1,008–1,034 B and aac-max, whose k registers per server are
// single-writer, 12.02 / 1,456–1,466 B (18.02 / 1,842–1,850 B before). With
// a quorum store's server read off the object table instead of kept in the
// placement, abd-max reads 5.02 / 992–1,002 B, abd-cas 6.02 / 1,034–1,045 B
// and aac-max 12.02 / 1,427–1,444 B. Each ceiling is the later reading plus
// slack for size-class drift.
func TestKeyFootprintAllocCeiling(t *testing.T) {
	const keys = 4096
	for _, tc := range []struct {
		kind       runner.Kind
		atomic     bool
		n          int // 0: DefaultServers
		maxObjects float64
		maxBytes   float64
	}{
		{runner.KindABDMax, true, 3, 5.10, 1100},
		{runner.KindCASMax, true, 3, 6.10, 1125},
		{runner.KindAACMax, false, 3, 12.10, 1525},
		{runner.KindRegEmu, false, 0, 8.10, 1100},
		{runner.KindCoded, false, 0, 36.10, 3000},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			ctx := testCtx(t)
			st, err := Open(ctx, Config{Keys: keys, Kind: tc.kind, Atomic: tc.atomic, N: tc.n, F: 1})
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
			if perKeyObjects > tc.maxObjects {
				t.Errorf("%.2f live heap objects per key, ceiling %.2f", perKeyObjects, tc.maxObjects)
			}
			if perKeyBytes > tc.maxBytes {
				t.Errorf("%.0f live bytes per key, ceiling %.0f", perKeyBytes, tc.maxBytes)
			}
			runtime.KeepAlive(st)
		})
	}
}

// TestMaterializeAllocCeiling counts every allocation it takes to
// materialize one atomic abd-max key's writer and reader clients on an
// in-process shard — garbage included, which the live footprint above cannot
// see — averaged over 4,096 keys, so the key table's chunks and the object
// table's arena blocks and chunks are amortized in. With the key's record
// and its client slice republished per slot, the member list cloned, a store
// object per base object, a recipe closure, a placement of three slices and
// a table entry and a cell per base object, it read 25.03; with the record
// built once and the register one allocation it reads 5.03 — register, key
// record, reader handle and the two engine clients. The ceiling is that
// reading plus slack.
func TestMaterializeAllocCeiling(t *testing.T) {
	const (
		keys      = 4096
		maxAllocs = 5.2
	)
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Keys: keys, Kind: runner.KindABDMax, Atomic: true, N: 3, F: 1, NoHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for key := uint64(0); key < keys; key++ {
		if _, err := st.Writer(key, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Reader(key, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perKey := float64(after.Mallocs-before.Mallocs) / keys
	t.Logf("%.2f allocations to materialize a key's writer and reader", perKey)
	if perKey > maxAllocs {
		t.Errorf("%.2f allocations per materialized key, ceiling %.2f", perKey, maxAllocs)
	}
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
