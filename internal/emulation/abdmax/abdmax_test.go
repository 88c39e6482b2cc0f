package abdmax

import (
	"context"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

func newReg(t *testing.T, k, f, n int, opts emulation.Options) (*abdcore.Register, *fabric.Fabric) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	fab.Cluster().SetF(f)
	reg, err := New(fab, k, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return reg, fab
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestBasicsAndResources(t *testing.T) {
	reg, fab := newReg(t, 4, 2, 6, emulation.Options{})
	if reg.ResourceComplexity() != 5 {
		t.Fatalf("resources = %d, want 2f+1 = 5", reg.ResourceComplexity())
	}
	// 2f+1 base objects regardless of k; only 2f+1 servers host objects.
	counts := fab.Cluster().PerServerCounts()
	hosting := 0
	for _, c := range counts {
		if c > 1 {
			t.Fatalf("a server hosts %d max-registers, want at most 1", c)
		}
		hosting += c
	}
	if hosting != 5 {
		t.Fatalf("hosting servers = %d, want 5", hosting)
	}

	ctx := testCtx(t)
	for i := 0; i < 4; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(ctx, types.Value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("Read = %d, want 4", got)
	}
}

func TestValidation(t *testing.T) {
	c, err := cluster.New(5)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	fab.Cluster().SetF(0)
	if _, err := New(fab, 1, emulation.Options{}); err == nil {
		t.Error("f=0 accepted")
	}
	two, err := cluster.New(2)
	if err != nil {
		t.Fatal(err)
	}
	two.SetF(1)
	if _, err := New(fabric.New(two), 1, emulation.Options{}); err == nil {
		t.Error("a 2-member view accepted for f=1")
	}
	fab.Cluster().SetF(3)
	if _, err := New(fab, 1, emulation.Options{}); err == nil {
		t.Error("f=3 on a 5-member view accepted (needs 7)")
	}
	if got := c.ResourceComplexity(); got != 0 {
		t.Errorf("rejected builds placed %d base objects", got)
	}
}

func TestSurvivesFCrashes(t *testing.T) {
	reg, fab := newReg(t, 2, 2, 5, emulation.Options{})
	ctx := testCtx(t)
	w0, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Write(ctx, 10); err != nil {
		t.Fatal(err)
	}
	for _, s := range []types.ServerID{1, 3} {
		if err := fab.Crash(s); err != nil {
			t.Fatal(err)
		}
	}
	w1, err := reg.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Write(ctx, 20); err != nil {
		t.Fatalf("write after f crashes: %v", err)
	}
	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		t.Fatalf("read after f crashes: %v", err)
	}
	if got != 20 {
		t.Fatalf("Read = %d, want 20", got)
	}
}

func TestBlocksBeyondFCrashes(t *testing.T) {
	reg, fab := newReg(t, 1, 1, 3, emulation.Options{})
	for _, s := range []types.ServerID{0, 1} { // f+1 crashes
		if err := fab.Crash(s); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ctx, 1); err == nil {
		t.Fatal("write with f+1 crashes succeeded")
	}
}

func TestSequentialHistoryIsRegular(t *testing.T) {
	reg, _ := newReg(t, 3, 1, 3, emulation.Options{})
	hist := reg.History()
	ctx := testCtx(t)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			w, err := reg.Writer(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(ctx, types.Value(round*10+i+1)); err != nil {
				t.Fatal(err)
			}
			if _, err := reg.NewReader().Read(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	ops := hist.Snapshot()
	if err := spec.CheckWSSafety(ops, types.InitialValue); err != nil {
		t.Errorf("WS-Safety: %v", err)
	}
	if err := spec.CheckWSRegularity(ops, types.InitialValue); err != nil {
		t.Errorf("WS-Regularity: %v", err)
	}
}

func TestAtomicModeLinearizable(t *testing.T) {
	// With read write-back, even write-concurrent histories linearize.
	reg, _ := newReg(t, 2, 1, 3, emulation.Options{Atomic: true})
	hist := reg.History()
	ctx := testCtx(t)

	done := make(chan error, 3)
	for i := 0; i < 2; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, w interface {
			Write(context.Context, types.Value) error
		}) {
			var err error
			for op := 0; op < 8 && err == nil; op++ {
				err = w.Write(ctx, types.Value((i+1)*100+op))
			}
			done <- err
		}(i, w)
	}
	rd := reg.NewReader()
	go func() {
		var err error
		for op := 0; op < 8 && err == nil; op++ {
			_, err = rd.Read(ctx)
		}
		done <- err
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent op: %v", err)
		}
	}
	if err := spec.CheckLinearizable(hist.Snapshot(), types.InitialValue); err != nil {
		t.Fatalf("atomic mode not linearizable: %v", err)
	}
}

func TestTimestampsGrowLinearly(t *testing.T) {
	// The TSVal domain is N x V: timestamps are unbounded counters that
	// advance once per write (the model's register size aside — the paper
	// studies register COUNT, not size).
	reg, fab := newReg(t, 2, 1, 3, emulation.Options{})
	ctx := testCtx(t)
	const writes = 7
	for i := 0; i < writes; i++ {
		w, err := reg.Writer(i % 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(ctx, types.Value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c := fab.Cluster()
	for _, obj := range c.AllObjects() {
		o, err := c.Object(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.PeekState().Val.TS; got != writes {
			t.Errorf("object %d ts = %d, want %d (one bump per write)", obj, got, writes)
		}
	}
}

// TestPayloadWriteReachesEveryStore: in payload mode a push builds its value
// bytes once and every store's write-max carries them, so after a write each
// store — read directly, not through a quorum — holds the write's value and
// its payload, byte for byte.
func TestPayloadWriteReachesEveryStore(t *testing.T) {
	const size = 32
	reg, fab := newReg(t, 1, 1, 3, emulation.Options{ValueSize: size})
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	for _, v := range []types.Value{7, 8} {
		if err := w.Write(ctx, v); err != nil {
			t.Fatal(err)
		}
		objs := fab.UsedObjects()
		if len(objs) != reg.ResourceComplexity() {
			t.Fatalf("%d stores used, want all %d", len(objs), reg.ResourceComplexity())
		}
		for _, obj := range objs {
			resp, err := fab.Cluster().Apply(obj, 0, baseobj.Invocation{Op: baseobj.OpReadMax})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Val.Val != v || len(resp.Data) != size {
				t.Fatalf("store %d holds %d with %d payload bytes after writing %d, want %d bytes", obj, resp.Val.Val, len(resp.Data), v, size)
			}
			if at := types.PayloadMismatch(v, 0, resp.Data); at >= 0 {
				t.Fatalf("store %d's payload for %d differs at byte %d", obj, v, at)
			}
		}
	}
}
