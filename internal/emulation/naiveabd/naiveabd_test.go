package naiveabd

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

func newReg(t *testing.T, k, f int) (*abdcore.Register, *fabric.Fabric) {
	t.Helper()
	c, err := cluster.New(2*f + 1)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	fab.Cluster().SetF(f)
	reg, err := New(fab, k, emulation.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return reg, fab
}

func TestBenignRunsLookCorrect(t *testing.T) {
	// The whole point of the baseline: under benign schedules it behaves
	// like a correct emulation — the flaw only shows under the
	// stale-release adversary (tested in internal/runner).
	reg, _ := newReg(t, 3, 1)
	hist := reg.History()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
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
		t.Errorf("benign WS-Safety: %v", err)
	}
	if err := spec.CheckWSRegularity(ops, types.InitialValue); err != nil {
		t.Errorf("benign WS-Regularity: %v", err)
	}
}

func TestResourcesBelowTheBound(t *testing.T) {
	// The baseline's space is 2f+1 — below Theorem 1's kf + f + 1 for
	// k > 1, which is why it must be breakable.
	reg, _ := newReg(t, 4, 1)
	if reg.ResourceComplexity() != 3 {
		t.Fatalf("resources = %d, want 3", reg.ResourceComplexity())
	}
	minimum := 4*1 + 1 + 1 // kf + f + 1
	if reg.ResourceComplexity() >= minimum {
		t.Fatalf("baseline not under-provisioned: %d >= %d", reg.ResourceComplexity(), minimum)
	}
}

func TestValidation(t *testing.T) {
	c, err := cluster.New(3)
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
}

func TestSurvivesFCrashes(t *testing.T) {
	reg, fab := newReg(t, 2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w0, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Write(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		t.Fatalf("read after crash: %v", err)
	}
	if got != 10 {
		t.Fatalf("Read = %d, want 10", got)
	}
}
