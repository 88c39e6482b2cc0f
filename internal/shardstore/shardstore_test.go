package shardstore

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/types"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestShardRoutingDeterministic pins the router's contract: every key maps
// to exactly one in-range shard, the mapping is identical across store
// instances (restarts route the same), and the hash spreads a contiguous
// key range across every shard and engine.
func TestShardRoutingDeterministic(t *testing.T) {
	ctx := testCtx(t)
	open := func() *Store {
		st, err := Open(ctx, Config{Shards: 4, Engines: 3, Keys: 1 << 20, Kind: runner.KindABDMax})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		return st
	}
	a, b := open(), open()
	shardHits := make([]int, a.NumShards())
	engineHits := make([]int, a.NumEngines())
	for key := uint64(0); key < 4096; key++ {
		s := a.ShardOf(key)
		if s < 0 || s >= a.NumShards() {
			t.Fatalf("key %d: shard %d out of range", key, s)
		}
		if s2 := b.ShardOf(key); s2 != s {
			t.Fatalf("key %d: shard %d on one store, %d on a restart", key, s, s2)
		}
		e := a.EngineOf(key)
		if e < 0 || e >= a.NumEngines() {
			t.Fatalf("key %d: engine %d out of range", key, e)
		}
		if e2 := b.EngineOf(key); e2 != e {
			t.Fatalf("key %d: engine %d on one store, %d on a restart", key, e, e2)
		}
		shardHits[s]++
		engineHits[e]++
	}
	for s, hits := range shardHits {
		if hits == 0 {
			t.Fatalf("shard %d never hit across 4096 keys", s)
		}
	}
	for e, hits := range engineHits {
		if hits == 0 {
			t.Fatalf("engine %d never hit across 4096 keys", e)
		}
	}
}

// TestBalancedKeys pins the even-spread picker: exact count, distinct
// in-range keys, and every shard within one key of every other.
func TestBalancedKeys(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Shards: 3, Keys: 1 << 16, Kind: runner.KindABDMax})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, n := range []int{1, 3, 7, 64} {
		keys := st.BalancedKeys(n)
		if len(keys) != n {
			t.Fatalf("BalancedKeys(%d) returned %d keys", n, len(keys))
		}
		perShard := make([]int, st.NumShards())
		seen := make(map[uint64]bool, n)
		for _, k := range keys {
			if k >= st.Keys() {
				t.Fatalf("BalancedKeys(%d): key %d outside key-space", n, k)
			}
			if seen[k] {
				t.Fatalf("BalancedKeys(%d): duplicate key %d", n, k)
			}
			seen[k] = true
			perShard[st.ShardOf(k)]++
		}
		min, max := perShard[0], perShard[0]
		for _, c := range perShard[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("BalancedKeys(%d): shard spread %v not balanced", n, perShard)
		}
	}
	// n >= Keys returns the whole key-space.
	small, err := Open(ctx, Config{Shards: 2, Keys: 5, Kind: runner.KindABDMax})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if keys := small.BalancedKeys(9); len(keys) != 5 {
		t.Fatalf("BalancedKeys past key-space = %d keys, want 5", len(keys))
	}
}

// TestClientIdentity pins the frontend's serialization contract: repeated
// Writer/Reader lookups for a (key, slot) return the same engine client,
// two keys on the same engine still get distinct clients, and key-space
// bounds are enforced.
func TestClientIdentity(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{Shards: 2, Engines: 1, Keys: 64, Kind: runner.KindABDMax, WritersPerKey: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w0, err := st.Writer(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w0b, _ := st.Writer(7, 0); w0b != w0 {
		t.Fatal("Writer(7,0) not stable across calls")
	}
	if w1, _ := st.Writer(7, 1); w1 == w0 {
		t.Fatal("writer slots 0 and 1 of key 7 share a client")
	}
	if wOther, _ := st.Writer(8, 0); wOther == w0 {
		t.Fatal("keys 7 and 8 share a writer client")
	}
	r0, err := st.Reader(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r0b, _ := st.Reader(7, 0); r0b != r0 {
		t.Fatal("Reader(7,0) not stable across calls")
	}
	if r3, _ := st.Reader(7, 3); r3 == r0 {
		t.Fatal("reader slots 0 and 3 of key 7 share a client")
	}
	// Writers and readers share one per-key cache: slots must not collide.
	if w1, _ := st.Writer(7, 1); r0 == w0 || r0 == w1 {
		t.Fatal("reader slot 0 of key 7 shares a client with a writer slot")
	}
	if w0c, _ := st.Writer(7, 0); w0c != w0 {
		t.Fatal("Writer(7,0) changed once reader slots were cached")
	}
	if _, err := st.Writer(64, 0); err == nil {
		t.Fatal("key outside key-space materialized")
	}
	if _, err := st.Writer(7, 2); err == nil {
		t.Fatal("writer slot past WritersPerKey succeeded")
	}
	if _, err := st.Reader(7, -1); err == nil {
		t.Fatal("negative reader slot succeeded")
	}
}

// TestOpenRejectsAnOversizedKeySpace pins the bound on Config.Keys: Open
// sizes the key table's directory from it, so a value past the maximum — up
// to the ones whose chunk count would wrap — is an error, not an allocation.
func TestOpenRejectsAnOversizedKeySpace(t *testing.T) {
	for _, keys := range []uint64{maxKeys + 1, 1 << 40, ^uint64(0)} {
		if st, err := Open(testCtx(t), Config{Keys: keys, Kind: runner.KindABDMax}); err == nil {
			st.Close()
			t.Fatalf("Open accepted a key-space of %d", keys)
		}
	}
	st, err := Open(testCtx(t), Config{Keys: maxKeys, Kind: runner.KindABDMax})
	if err != nil {
		t.Fatalf("Open rejected the maximum key-space: %v", err)
	}
	defer st.Close()
	if _, err := st.Writer(maxKeys-1, 0); err != nil {
		t.Fatalf("the last key of the maximum key-space: %v", err)
	}
}

// driveStore runs writers+readers over a set of keys from many goroutines
// through the frontend and returns the expected last value per key. Each
// (key, slot) pair is one logical client: its ops are issued from a single
// goroutine in sequence, and the engine serializes them, so histories stay
// well-formed per client even though goroutines share engines and shards.
func driveStore(ctx context.Context, t *testing.T, st *Store, keys []uint64, writesPerKey int, crash func(done int)) {
	t.Helper()
	var wg sync.WaitGroup
	var issued int64
	var mu sync.Mutex
	for _, key := range keys {
		key := key
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= writesPerKey; i++ {
				errc := make(chan error, 1)
				st.StartWrite(key, 0, types.Value(int64(key)*1000+int64(i)), func(err error) { errc <- err })
				select {
				case err := <-errc:
					if err != nil {
						t.Errorf("key %d write %d: %v", key, i, err)
						return
					}
				case <-ctx.Done():
					t.Errorf("key %d write %d: %v", key, i, ctx.Err())
					return
				}
				mu.Lock()
				issued++
				if crash != nil {
					crash(int(issued))
				}
				mu.Unlock()
				vc := make(chan error, 1)
				st.StartRead(key, 0, func(_ types.Value, err error) { vc <- err })
				select {
				case err := <-vc:
					if err != nil {
						t.Errorf("key %d read %d: %v", key, i, err)
						return
					}
				case <-ctx.Done():
					t.Errorf("key %d read %d: %v", key, i, ctx.Err())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardStoreEndToEnd drives concurrent clients over every shard with a
// server crash per shard mid-run (f=1 per shard, so every quorum still
// completes), drains, and requires zero validity/linearizability
// violations across the cross-shard history.
func TestShardStoreEndToEnd(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{
		Shards: 3, Engines: 2, Keys: 1 << 16,
		Kind: runner.KindABDMax, Atomic: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := st.BalancedKeys(9)
	crashed := 0
	crash := func(done int) {
		// One crash per shard, staggered through the run, while ops are in
		// flight on every shard.
		if crashed < st.NumShards() && done >= (crashed+1)*8 {
			if err := st.Crash(crashed, types.ServerID(crashed%2)); err != nil {
				t.Errorf("crash shard %d: %v", crashed, err)
			}
			crashed++
		}
	}
	driveStore(ctx, t, st, keys, 12, crash)
	if crashed != st.NumShards() {
		t.Fatalf("crashed %d servers, want one per shard (%d)", crashed, st.NumShards())
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rep := st.CheckAll(4, 7)
	if len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Keys != len(keys) {
		t.Fatalf("checked %d keys, want %d", rep.Keys, len(keys))
	}
	if rep.HistoryOps < len(keys)*24 {
		t.Fatalf("history has %d ops, want >= %d", rep.HistoryOps, len(keys)*24)
	}
	counts := st.MaterializedKeys()
	total := 0
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d materialized no keys: %v", s, counts)
		}
		total += c
	}
	if total != len(keys) {
		t.Fatalf("materialized %d keys, want %d", total, len(keys))
	}
	var started int64
	for _, es := range st.EngineStats() {
		started += es.Started
	}
	if want := int64(len(keys) * 24); started != want {
		t.Fatalf("engines started %d ops, want %d", started, want)
	}
}

// TestShardStoreLatencyLane runs the end-to-end drive on the latency lane:
// seeded asynchronous delivery per shard, real concurrency between the
// engine loops and the lane event loops.
func TestShardStoreLatencyLane(t *testing.T) {
	ctx := testCtx(t)
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 12,
		Kind: runner.KindABDMax, Atomic: true,
		Lane: runner.LaneLatency,
		Profile: &fabric.LatencyProfile{
			Jitter: 50 * time.Microsecond, SpikeProb: 0.02, Spike: 300 * time.Microsecond,
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	driveStore(ctx, t, st, st.BalancedKeys(6), 8, nil)
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(3, 5); len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// lanenodeBin builds cmd/lanenode once per test binary.
var lanenodeBin = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "lanenode-bin")
	if err != nil {
		return "", err
	}
	exe := filepath.Join(dir, "lanenode")
	cmd := exec.Command("go", "build", "-o", exe, "repro/cmd/lanenode")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lanenode: %v\n%s", err, out)
	}
	return exe, nil
})

// startLanenodes spawns n lanenode processes on ephemeral ports and
// returns their addresses plus the commands (for mid-run kills).
func startLanenodes(t *testing.T, n int) ([]string, []*exec.Cmd) {
	t.Helper()
	exe, err := lanenodeBin()
	if err != nil {
		t.Skipf("cannot build lanenode in this environment: %v", err)
	}
	addrs := make([]string, n)
	cmds := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-listen", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting lanenode %d: %v", i, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			t.Fatalf("lanenode %d banner: %v", i, err)
		}
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
		if !ok {
			t.Fatalf("lanenode %d banner = %q", i, line)
		}
		addrs[i] = addr
		cmds[i] = cmd
	}
	return addrs, cmds
}

// TestShardStoreTCP hosts 2 shards x 3 servers on just 2 lanenode
// processes — each process carries one table per shard, so the six logical
// servers share two listeners — and requires clean cross-shard histories.
func TestShardStoreTCP(t *testing.T) {
	ctx := testCtx(t)
	addrs, _ := startLanenodes(t, 2)
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 10, N: 3,
		Kind: runner.KindABDMax, Atomic: true,
		Lane: runner.LaneTCP, NodeAddrs: addrs,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	driveStore(ctx, t, st, st.BalancedKeys(4), 10, nil)
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(3, 9); len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestShardStoreTCPNodeKill spreads 2 shards x 3 servers over 3 node
// processes — each process hosts exactly one server of every shard — and
// kills one process mid-run: one crash per shard, within each shard's f=1,
// so every quorum still completes and the histories stay clean.
func TestShardStoreTCPNodeKill(t *testing.T) {
	ctx := testCtx(t)
	addrs, cmds := startLanenodes(t, 3)
	st, err := Open(ctx, Config{
		Shards: 2, Engines: 2, Keys: 1 << 10, N: 3,
		Kind: runner.KindABDMax, Atomic: true,
		Lane: runner.LaneTCP, NodeAddrs: addrs,
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := st.BalancedKeys(4)
	killed := false
	crash := func(done int) {
		if !killed && done >= 8 {
			killed = true
			if err := cmds[0].Process.Kill(); err != nil {
				t.Errorf("killing lanenode 0: %v", err)
			}
		}
	}
	driveStore(ctx, t, st, keys, 10, crash)
	if !killed {
		t.Fatal("node process never killed")
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := st.CheckAll(3, 9); len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	for s := 0; s < st.NumShards(); s++ {
		if st.Env(s).Cluster.Crashes() == 0 {
			t.Fatalf("shard %d observed no crash after node kill", s)
		}
	}
}
