package regemu

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// newEmulation builds a fabric over n fresh servers and an Algorithm 2
// register on it.
func newEmulation(t *testing.T, k, f, n int) (*Emulation, *fabric.Fabric) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatalf("cluster.New(%d): %v", n, err)
	}
	fab := fabric.New(c)
	fab.Cluster().SetF(f)
	em, err := New(fab, k, emulation.Options{})
	if err != nil {
		t.Fatalf("New(k=%d f=%d n=%d): %v", k, f, n, err)
	}
	return em, fab
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestWriteThenRead(t *testing.T) {
	em, _ := newEmulation(t, 3, 1, 4)
	ctx := testCtx(t)

	w0, err := em.Writer(0)
	if err != nil {
		t.Fatalf("Writer(0): %v", err)
	}
	if err := w0.Write(ctx, 42); err != nil {
		t.Fatalf("Write(42): %v", err)
	}
	got, err := em.NewReader().Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
}

func TestSequentialWritersAllVisible(t *testing.T) {
	const k, f, n = 5, 2, 7
	em, _ := newEmulation(t, k, f, n)
	ctx := testCtx(t)

	for i := 0; i < k; i++ {
		w, err := em.Writer(i)
		if err != nil {
			t.Fatalf("Writer(%d): %v", i, err)
		}
		v := types.Value(100 + i)
		if err := w.Write(ctx, v); err != nil {
			t.Fatalf("writer %d Write(%d): %v", i, v, err)
		}
		got, err := em.NewReader().Read(ctx)
		if err != nil {
			t.Fatalf("Read after writer %d: %v", i, err)
		}
		if got != v {
			t.Fatalf("Read after writer %d = %d, want %d", i, got, v)
		}
	}

	ops := em.History().Snapshot()
	if err := spec.CheckWSSafety(ops, types.InitialValue); err != nil {
		t.Fatalf("WS-Safety: %v", err)
	}
	if err := spec.CheckWSRegularity(ops, types.InitialValue); err != nil {
		t.Fatalf("WS-Regularity: %v", err)
	}
}

func TestResourceComplexityMatchesUpperBound(t *testing.T) {
	for _, tc := range []struct{ k, f, n int }{
		{1, 1, 3}, {2, 1, 3}, {5, 1, 4}, {5, 2, 6}, {3, 2, 5}, {8, 3, 12},
	} {
		em, fab := newEmulation(t, tc.k, tc.f, tc.n)
		want, err := bounds.RegisterUpper(tc.k, tc.f, tc.n)
		if err != nil {
			t.Fatalf("RegisterUpper(%v): %v", tc, err)
		}
		if got := em.ResourceComplexity(); got != want {
			t.Errorf("k=%d f=%d n=%d: ResourceComplexity = %d, want %d", tc.k, tc.f, tc.n, got, want)
		}
		if got := fab.Cluster().ResourceComplexity(); got != want {
			t.Errorf("k=%d f=%d n=%d: cluster objects = %d, want %d", tc.k, tc.f, tc.n, got, want)
		}
	}
}

func TestSurvivesFServerCrashes(t *testing.T) {
	const k, f, n = 2, 2, 6
	em, fab := newEmulation(t, k, f, n)
	ctx := testCtx(t)

	w0, _ := em.Writer(0)
	if err := w0.Write(ctx, 7); err != nil {
		t.Fatalf("Write before crashes: %v", err)
	}
	// Crash f servers; the emulation must stay live and safe.
	for s := 0; s < f; s++ {
		if err := fab.Crash(types.ServerID(s)); err != nil {
			t.Fatalf("Crash(%d): %v", s, err)
		}
	}
	w1, _ := em.Writer(1)
	if err := w1.Write(ctx, 8); err != nil {
		t.Fatalf("Write after %d crashes: %v", f, err)
	}
	got, err := em.NewReader().Read(ctx)
	if err != nil {
		t.Fatalf("Read after crashes: %v", err)
	}
	if got != 8 {
		t.Fatalf("Read = %d, want 8", got)
	}
}

// TestToleratesCrashOfAnyHostingServer is the f-tolerance table over layouts
// that span fewer than n servers (and, as controls, ones that span all of
// them): a server the layout left empty has vacuously answered the scan, so
// the collect waits for all but f of the hosting servers — not for n-f of
// them, which at (4,7) is every hosting server and at (2,7) and (1,5) is
// more servers than host anything. With any one hosting server crashed,
// every writer's write and both read forms (the blocking Read and the
// completion-based StartRead) must complete, and the history must stay
// WS-Regular.
func TestToleratesCrashOfAnyHostingServer(t *testing.T) {
	const f = 1
	for _, tc := range []struct{ k, n int }{{1, 5}, {2, 7}, {4, 7}, {5, 7}, {1, 3}} {
		_, probe := newEmulation(t, tc.k, f, tc.n)
		var hosting []types.ServerID
		for _, s := range probe.Cluster().Members() {
			if len(probe.Cluster().ObjectsOn(s)) > 0 {
				hosting = append(hosting, s)
			}
		}
		for _, crashed := range hosting {
			em, fab := newEmulation(t, tc.k, f, tc.n)
			ctx := testCtx(t)
			w0, _ := em.Writer(0)
			if err := w0.Write(ctx, 1); err != nil {
				t.Fatalf("k=%d n=%d: write before the crash: %v", tc.k, tc.n, err)
			}
			if err := fab.Crash(crashed); err != nil {
				t.Fatal(err)
			}
			last := types.Value(1)
			for i := 0; i < tc.k; i++ {
				w, _ := em.Writer(i)
				last = types.Value(10 + i)
				if err := w.Write(ctx, last); err != nil {
					t.Fatalf("k=%d n=%d (%d hosting), server %d crashed: writer %d: %v",
						tc.k, tc.n, len(hosting), crashed, i, err)
				}
			}
			got, err := em.NewReader().Read(ctx)
			if err != nil || got != last {
				t.Fatalf("k=%d n=%d, server %d crashed: Read = %d, %v; want %d", tc.k, tc.n, crashed, got, err, last)
			}
			// The in-process lane completes inline, so a StartRead that does
			// not fire before returning is one that would hang.
			fired := false
			em.NewReader().StartRead(ctx, func(v types.Value, err error) {
				fired = true
				if err != nil || v != last {
					t.Errorf("k=%d n=%d, server %d crashed: StartRead = %d, %v; want %d", tc.k, tc.n, crashed, v, err, last)
				}
			})
			if !fired {
				t.Fatalf("k=%d n=%d, server %d crashed: StartRead never completed", tc.k, tc.n, crashed)
			}
			if err := spec.CheckWSRegularity(em.History().Snapshot(), types.InitialValue); err != nil {
				t.Fatalf("k=%d n=%d, server %d crashed: WS-Regularity: %v", tc.k, tc.n, crashed, err)
			}
		}
	}
}

// TestWriterCountCheckedBeforePlacing: a writer count that collides with the
// reader IDs is refused before a single register is placed — the layout of
// k = ReaderIDBase writers on 3 servers is 3·2^20 registers.
func TestWriterCountCheckedBeforePlacing(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	k := int(emulation.ReaderIDBase)
	c.SetF(1)
	_, err = New(fabric.New(c), k, emulation.Options{})
	if err == nil || !strings.Contains(err.Error(), emulation.ValidateWriters(k).Error()) {
		t.Fatalf("New(k=%d) = %v, want the writer-count error %q", k, err, emulation.ValidateWriters(k))
	}
	if got := c.ResourceComplexity(); got != 0 {
		t.Fatalf("the refused register placed %d base objects first", got)
	}
}
