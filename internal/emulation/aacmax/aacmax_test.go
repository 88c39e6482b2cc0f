package aacmax

import (
	"context"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/emulation/quorumreg"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

func newReg(t *testing.T, k, f int, hist *spec.History) (*quorumreg.Register, *fabric.Fabric) {
	t.Helper()
	c, err := cluster.New(2*f + 1)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	reg, err := New(fab, k, f, Options{History: hist})
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

func TestResourcesMatchSpecialCase(t *testing.T) {
	for _, tc := range []struct{ k, f int }{{1, 1}, {3, 1}, {2, 2}, {4, 2}} {
		reg, fab := newReg(t, tc.k, tc.f, nil)
		want, err := bounds.SpecialCaseRegisters(tc.k, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if reg.ResourceComplexity() != want {
			t.Errorf("k=%d f=%d: resources = %d, want (2f+1)k = %d", tc.k, tc.f, reg.ResourceComplexity(), want)
		}
		// Theorem 2 / Theorem 6 shape: k registers per server.
		for s, c := range fab.Cluster().PerServerCounts() {
			if c != tc.k {
				t.Errorf("k=%d f=%d: server %d hosts %d, want k", tc.k, tc.f, s, c)
			}
		}
	}
}

func TestWriteReadAcrossWriters(t *testing.T) {
	reg, _ := newReg(t, 3, 1, nil)
	ctx := testCtx(t)
	for i := 0; i < 3; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(ctx, types.Value(100+i)); err != nil {
			t.Fatal(err)
		}
		got, err := reg.NewReader().Read(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != types.Value(100+i) {
			t.Fatalf("Read = %d, want %d", got, 100+i)
		}
	}
}

func TestPerWriterRegistersAreSingleWriter(t *testing.T) {
	_, fab := newReg(t, 2, 1, nil)
	c := fab.Cluster()
	// Every placed register must be restricted to exactly one writer:
	// writing it as another client is rejected by the base layer.
	for _, obj := range c.AllObjects() {
		o, err := c.Object(obj)
		if err != nil {
			t.Fatal(err)
		}
		if o.Kind() != baseobj.KindRegister {
			t.Fatalf("object %d is not a register", obj)
		}
		if ws := o.Writers(); len(ws) != 1 {
			t.Errorf("object %d writer set = %v, want one writer", obj, ws)
		}
	}
}

func TestForeignWriterRejected(t *testing.T) {
	reg, _ := newReg(t, 2, 1, nil)
	if _, err := reg.Writer(2); err == nil {
		t.Fatal("writer index k accepted")
	}
}

func TestSurvivesFCrashes(t *testing.T) {
	reg, fab := newReg(t, 2, 2, nil)
	ctx := testCtx(t)
	w0, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Write(ctx, 10); err != nil {
		t.Fatal(err)
	}
	for _, s := range []types.ServerID{0, 2} {
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
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("Read = %d, want 20", got)
	}
}

func TestSequentialHistoryIsRegular(t *testing.T) {
	hist := &spec.History{}
	reg, _ := newReg(t, 3, 1, hist)
	ctx := testCtx(t)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			w, err := reg.Writer(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(ctx, types.Value(round*100+i+1)); err != nil {
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

func TestValidation(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	if _, err := New(fab, 0, 1, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(fab, 1, 0, Options{}); err == nil {
		t.Error("f=0 accepted")
	}
	two, err := cluster.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fabric.New(two), 1, 1, Options{}); err == nil {
		t.Error("a 2-member view accepted for f=1")
	}
}
