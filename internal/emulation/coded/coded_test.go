package coded

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// codedEnv builds an n-server benign environment.
func codedEnv(t *testing.T, n int) *fabric.Fabric {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	t.Cleanup(func() { fab.Close() })
	return fab
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCodedValidation(t *testing.T) {
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(0)
	if _, err := New(fab, 2, emulation.Options{}); err == nil {
		t.Error("f=0 accepted")
	}
	fab.Cluster().SetF(1)
	if _, err := New(fab, 0, emulation.Options{}); err == nil {
		t.Error("k=0 writers accepted")
	}
	small := codedEnv(t, 3)
	small.Cluster().SetF(2)
	if _, err := New(small, 2, emulation.Options{}); err == nil {
		t.Error("n < 2f+1 accepted")
	}
}

func TestCodedDefaultsToMaxSafeShards(t *testing.T) {
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(1)
	reg, err := New(fab, 2, emulation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.DataShards(); got != 3 {
		t.Fatalf("DataShards = %d, want n−2f = 3", got)
	}
	fab = codedEnv(t, 5)
	fab.Cluster().SetF(2)
	reg2, err := New(fab, 2, emulation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.DataShards(); got != 1 {
		t.Fatalf("DataShards at f=2 = %d, want 1 (degenerate replication)", got)
	}
}

func TestCodedSequentialReadYourWrites(t *testing.T) {
	ctx := testCtx(t)
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(1)
	reg, err := New(fab, 2, emulation.Options{ValueSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	rd := reg.NewReader()
	if v, err := rd.Read(ctx); err != nil || v != types.InitialValue {
		t.Fatalf("initial read = %d, %v; want v0", v, err)
	}
	for i := 1; i <= 8; i++ {
		w, err := reg.Writer(i % 2)
		if err != nil {
			t.Fatal(err)
		}
		val := types.Value(i * 100)
		if err := w.Write(ctx, val); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if v, err := rd.Read(ctx); err != nil || v != val {
			t.Fatalf("read after write %d = %d, %v; want %d", i, v, err, val)
		}
	}
	ops := reg.History().Snapshot()
	if err := spec.CheckWSSafety(ops, 0); err != nil {
		t.Errorf("WS-Safety: %v", err)
	}
	if err := spec.CheckWSRegularity(ops, 0); err != nil {
		t.Errorf("WS-Regularity: %v", err)
	}
}

// TestCodedCrashTolerance crashes f servers mid-history; writes and reads
// must keep completing on the surviving n−f quorum.
func TestCodedCrashTolerance(t *testing.T) {
	ctx := testCtx(t)
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(1)
	reg, err := New(fab, 1, emulation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Writer(0)
	rd := reg.NewReader()
	if err := w.Write(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if err := fab.Cluster().Crash(4); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ctx, 8); err != nil {
		t.Fatalf("write with one crashed server: %v", err)
	}
	if v, err := rd.Read(ctx); err != nil || v != 8 {
		t.Fatalf("read with one crashed server = %d, %v; want 8", v, err)
	}
}

// TestCodedConcurrent exercises concurrent writers and readers (run under
// -race via the coded CI target); every read must return v0 or a written
// value — the payload verification would catch any mixed-stripe decode.
func TestCodedConcurrent(t *testing.T) {
	for _, atomic := range []bool{false, true} {
		name := "regular"
		if atomic {
			name = "atomic"
		}
		t.Run(name, func(t *testing.T) {
			ctx := testCtx(t)
			fab := codedEnv(t, 5)
			fab.Cluster().SetF(1)
			reg, err := New(fab, 3, emulation.Options{Atomic: atomic, ValueSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			const perWriter, readers, perReader = 6, 3, 6
			var wg sync.WaitGroup
			errs := make(chan error, 3+readers)
			for i := 0; i < 3; i++ {
				w, err := reg.Writer(i)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, w *emulation.Writer) {
					defer wg.Done()
					for op := 0; op < perWriter; op++ {
						if err := w.Write(ctx, types.Value(1+i*perWriter+op)); err != nil {
							errs <- fmt.Errorf("writer %d: %w", i, err)
							return
						}
					}
				}(i, w)
			}
			for r := 0; r < readers; r++ {
				rd := reg.NewReader()
				wg.Add(1)
				go func(rd *emulation.Reader) {
					defer wg.Done()
					for op := 0; op < perReader; op++ {
						if _, err := rd.Read(ctx); err != nil {
							errs <- fmt.Errorf("reader: %w", err)
							return
						}
					}
				}(rd)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			ops := reg.History().Snapshot()
			if err := spec.CheckReadValidity(ops, types.InitialValue); err != nil {
				t.Errorf("read validity: %v", err)
			}
			if atomic && len(ops) <= 64 {
				if err := spec.CheckLinearizable(ops, types.InitialValue); err != nil {
					t.Errorf("linearizability: %v", err)
				}
			}
		})
	}
}

// TestCodedBytesPerServer pins the space win the construction exists for:
// at n=5, f=1 each server stores a ceil(size/3) fragment, strictly less
// than the full-copy replicated baseline.
func TestCodedBytesPerServer(t *testing.T) {
	ctx := testCtx(t)
	const size = 4096
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(1)
	reg, err := New(fab, 1, emulation.Options{ValueSize: size})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Writer(0)
	if err := w.Write(ctx, 42); err != nil {
		t.Fatal(err)
	}
	frag := reg.p.Load().coder.FragmentSize(size)
	for s, b := range fab.Cluster().PerServerBytes() {
		if b == 0 {
			continue // a server the put quorum skipped may hold nothing yet
		}
		if b != int64(frag) {
			t.Errorf("server %d stores %d bytes, want fragment size %d", s, b, frag)
		}
		if b >= size {
			t.Errorf("server %d stores %d bytes, not less than the %d-byte value", s, b, size)
		}
	}
	if total := fab.Cluster().TotalBytes(); total > int64(5*frag) {
		t.Errorf("total %d bytes exceeds n fragments = %d", total, 5*frag)
	}
}

// TestCodedDegenerateReplication pins the f=2 end of the space axis: with
// n=5, f=2 the only safe shard count is 1, and every server stores the full
// value — the coded construction collapses onto replication exactly where
// the paper's lower bound says it must.
func TestCodedDegenerateReplication(t *testing.T) {
	ctx := testCtx(t)
	const size = 1024
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(2)
	reg, err := New(fab, 1, emulation.Options{ValueSize: size})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Writer(0)
	if err := w.Write(ctx, 9); err != nil {
		t.Fatal(err)
	}
	for s, b := range fab.Cluster().PerServerBytes() {
		if b != 0 && b != size {
			t.Errorf("server %d stores %d bytes, want the full %d-byte copy", s, b, size)
		}
	}
	rd := reg.NewReader()
	if v, err := rd.Read(ctx); err != nil || v != 9 {
		t.Fatalf("read = %d, %v; want 9", v, err)
	}
}

// TestCodedResizeRestripe grows a defaulted-shard register n=5→7 at f=1:
// the reshape reconstructs the newest stripe from the quiesced old stores,
// re-encodes it at the new ceiling kData = n−2f = 5, and seeds fresh
// fragment stores on every member. The value must survive, the shard count
// must widen, and new writes must stripe at the new geometry.
func TestCodedResizeRestripe(t *testing.T) {
	ctx := testCtx(t)
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(1)
	reg, err := New(fab, 1, emulation.Options{ValueSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Writer(0)
	rd := reg.NewReader()
	if err := w.Write(ctx, 51); err != nil {
		t.Fatal(err)
	}
	if got := reg.DataShards(); got != 3 {
		t.Fatalf("DataShards before resize = %d, want 3", got)
	}
	res, err := fab.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{nil, nil}},
		func(rs *fabric.Reshaper) error { return reg.Reshape(rs) })
	if err != nil {
		t.Fatalf("resize: %v", err)
	}
	if len(res.Joined) != 2 {
		t.Fatalf("joined %v, want 2 servers", res.Joined)
	}
	if got := reg.DataShards(); got != 5 {
		t.Fatalf("DataShards after grow = %d, want n−2f = 5", got)
	}
	if v, err := rd.Read(ctx); err != nil || v != 51 {
		t.Fatalf("read after restripe = %d, %v; want 51", v, err)
	}
	if err := w.Write(ctx, 52); err != nil {
		t.Fatalf("write at the new geometry: %v", err)
	}
	if v, err := rd.Read(ctx); err != nil || v != 52 {
		t.Fatalf("read after post-resize write = %d, %v; want 52", v, err)
	}
	if err := spec.CheckWSRegularity(reg.History().Snapshot(), 0); err != nil {
		t.Errorf("WS-Regularity after restripe: %v", err)
	}
}

// TestCodedReplaceTransfersFragments reconfigures a coded register live:
// a one-for-one swap keeps n and f, so it moves a fragment store (with its
// fragments) onto the joiner instead of restriping, and reads keep
// returning the last written value.
func TestCodedReplaceTransfersFragments(t *testing.T) {
	ctx := testCtx(t)
	fab := codedEnv(t, 5)
	fab.Cluster().SetF(1)
	reg, err := New(fab, 1, emulation.Options{ValueSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Writer(0)
	rd := reg.NewReader()
	if err := w.Write(ctx, 31); err != nil {
		t.Fatal(err)
	}
	for victim := types.ServerID(0); victim < 2; victim++ {
		if _, err := fab.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{victim}}, reg.Reshape); err != nil {
			t.Fatalf("swap of server %d: %v", victim, err)
		}
		if v, err := rd.Read(ctx); err != nil || v != 31 {
			t.Fatalf("read after replacing %d = %d, %v; want 31", victim, v, err)
		}
	}
	if err := w.Write(ctx, 32); err != nil {
		t.Fatalf("write after churn: %v", err)
	}
	if v, err := rd.Read(ctx); err != nil || v != 32 {
		t.Fatalf("read after churn = %d, %v; want 32", v, err)
	}
	ops := reg.History().Snapshot()
	if err := spec.CheckWSRegularity(ops, 0); err != nil {
		t.Errorf("WS-Regularity after churn: %v", err)
	}
}
