package faults

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

func testFabric(t *testing.T, n int) *fabric.Fabric {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return fabric.New(c)
}

func TestValidate(t *testing.T) {
	if err := NewPlan(Crash{0, 0}, Crash{1, 1}).Validate(1, 3); err == nil {
		t.Error("2 crashes for f=1 accepted")
	}
	if err := NewPlan(Crash{0, 9}).Validate(1, 3); err == nil {
		t.Error("out-of-range server accepted")
	}
	if err := NewPlan(Crash{0, 1}, Crash{2, 1}).Validate(2, 3); err == nil {
		t.Error("duplicate server accepted")
	}
	if err := NewPlan(Crash{0, 0}, Crash{3, 2}).Validate(2, 3); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (&Plan{}).Validate(1, 3); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
}

func TestStepFiresInOrder(t *testing.T) {
	fab := testFabric(t, 4)
	p := NewPlan(Crash{AfterOp: 2, Server: 1}, Crash{AfterOp: 0, Server: 0}, Crash{AfterOp: 5, Server: 2})
	if p.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", p.Remaining())
	}
	fired, err := p.Step(fab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 0 {
		t.Fatalf("step(0) fired %v, want [0]", fired)
	}
	fired, err = p.Step(fab, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("step(1) fired %v, want none", fired)
	}
	// Jumping past several thresholds fires everything due.
	fired, err = p.Step(fab, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("step(10) fired %v, want 2 crashes", fired)
	}
	if p.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", p.Remaining())
	}
	if got := fab.Cluster().Crashes(); got != 3 {
		t.Fatalf("cluster crashes = %d, want 3", got)
	}
}
