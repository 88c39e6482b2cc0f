package casmax

import (
	"context"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

func newReg(t *testing.T, k, f, n int, gate fabric.Gate, opts emulation.Options) (*abdcore.Register, *Metrics, *fabric.Fabric) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	var fopts []fabric.Option
	if gate != nil {
		fopts = append(fopts, fabric.WithGate(gate))
	}
	fab := fabric.New(c, fopts...)
	fab.Cluster().SetF(f)
	reg, metrics, err := New(fab, k, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return reg, metrics, fab
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestBasicsAndResources(t *testing.T) {
	reg, metrics, _ := newReg(t, 3, 1, 3, nil, emulation.Options{})
	if reg.ResourceComplexity() != 3 {
		t.Fatalf("resources = %d, want 2f+1 = 3", reg.ResourceComplexity())
	}
	ctx := testCtx(t)
	for i := 0; i < 3; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(ctx, types.Value(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("Read = %d, want 12", got)
	}
	// Sequential writes never retry.
	if metrics.Retries() != 0 {
		t.Errorf("sequential retries = %d, want 0", metrics.Retries())
	}
	if metrics.WriteMaxCalls.Load() == 0 {
		t.Error("no write-max calls recorded")
	}
}

func TestValidation(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	fab.Cluster().SetF(0)
	if _, _, err := New(fab, 1, emulation.Options{}); err == nil {
		t.Error("f=0 accepted")
	}
	two, err := cluster.New(2)
	if err != nil {
		t.Fatal(err)
	}
	two.SetF(1)
	if _, _, err := New(fabric.New(two), 1, emulation.Options{}); err == nil {
		t.Error("a 2-member view accepted for f=1")
	}
}

func TestForcedRetryDeterministic(t *testing.T) {
	// Force the Algorithm 1 retry path deterministically: hold writer 0's
	// conditional CAS on server 0 before it applies; writer 1 updates the
	// cell meanwhile with a value that is LARGER; releasing writer 0's CAS
	// then fails (exp mismatch), the loop re-reads, sees ts2 >= ts1, and
	// returns.
	script := adversary.NewScript()
	reg, metrics, fab := newReg(t, 2, 1, 3, script, emulation.Options{})
	ctx := testCtx(t)

	script.SetApplyRule(func(ev fabric.TriggerEvent) bool {
		return ev.Client == 0 && ev.Server == 0 && adversary.IsMutating(ev.Inv)
	})
	w0, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Write(ctx, 100); err != nil {
		t.Fatalf("write with one held CAS: %v", err)
	}
	script.SetApplyRule(nil)

	w1, err := reg.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Write(ctx, 200); err != nil {
		t.Fatal(err)
	}

	attemptsBefore := metrics.CASAttempts.Load()
	released := fab.ReleaseWhere(func(op fabric.PendingOp) bool { return op.Event.Client == 0 })
	if released != 1 {
		t.Fatalf("released %d ops, want 1", released)
	}
	// Writer 0's chain resumed: its failed CAS re-read the cell. The
	// value must still be writer 1's (the stale CAS failed).
	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 200 {
		t.Fatalf("Read = %d, want 200 (stale CAS must not clobber)", got)
	}
	if metrics.CASAttempts.Load() != attemptsBefore {
		t.Errorf("release should not need further conditional CAS: %d -> %d",
			attemptsBefore, metrics.CASAttempts.Load())
	}
}

func TestSurvivesFCrashes(t *testing.T) {
	reg, _, fab := newReg(t, 2, 1, 3, nil, emulation.Options{})
	ctx := testCtx(t)
	w0, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Write(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := fab.Crash(2); err != nil {
		t.Fatal(err)
	}
	w1, err := reg.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Write(ctx, 20); err != nil {
		t.Fatalf("write after crash: %v", err)
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
	reg, _, _ := newReg(t, 2, 1, 3, nil, emulation.Options{})
	hist := reg.History()
	ctx := testCtx(t)
	for round := 0; round < 4; round++ {
		for i := 0; i < 2; i++ {
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

func TestMetricsRetriesNeverNegative(t *testing.T) {
	m := &Metrics{}
	m.WriteMaxCalls.Add(5)
	if m.Retries() != 0 {
		t.Fatalf("Retries = %d, want 0", m.Retries())
	}
	m.CASAttempts.Add(7)
	if m.Retries() != 2 {
		t.Fatalf("Retries = %d, want 2", m.Retries())
	}
}

// TestWriteCancelledMidChainThenReleaseRecovers is the completion-leak
// regression test for the Algorithm 1 callback chains: every store's
// write-max is a multi-step read/CAS chain reporting into one shared
// quorum-gather channel, and a Write abandoned by ctx cancellation leaves
// those chains running on fabric goroutines. Releasing every held op must
// let each chain finish and report late — into a channel nobody drains —
// without blocking the releasing goroutine, and the register must keep
// working afterwards. Run under -race in CI.
func TestWriteCancelledMidChainThenReleaseRecovers(t *testing.T) {
	// Hold every CAS response: chains stall mid-step.
	gate := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
		return fabric.Hold
	}}
	reg, _, fab := newReg(t, 2, 1, 3, gate, emulation.Options{})
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		if err := w.Write(ctx, types.Value(10+round)); err == nil {
			t.Fatalf("round %d: fully-held write succeeded", round)
		}
		cancel()
		// Release everything repeatedly: each release advances the
		// abandoned chains one step (read -> CAS -> re-read ...), and
		// every chain's final report lands in an abandoned buffer.
		for i := 0; i < 20; i++ {
			if fab.ReleaseWhere(func(fabric.PendingOp) bool { return true }) == 0 {
				break
			}
		}
	}
	// Recovery: drive a write to completion by releasing from this
	// goroutine until it lands, then read it back.
	done := make(chan error, 1)
	go func() { done <- w.Write(testCtx(t), 99) }()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("recovery write: %v", err)
			}
			rdDone := make(chan error, 1)
			var got types.Value
			go func() {
				v, err := reg.NewReader().Read(testCtx(t))
				got = v
				rdDone <- err
			}()
			for {
				select {
				case err := <-rdDone:
					if err != nil || got != 99 {
						t.Fatalf("read = %d, %v; want 99", got, err)
					}
					return
				case <-time.After(time.Millisecond):
					fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
				}
			}
		case <-time.After(time.Millisecond):
			fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
		}
	}
}
