package casmax

import (
	"context"
	"fmt"
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

// cellOf reads a CAS cell's content straight off the cluster, no trigger.
func cellOf(t *testing.T, c *cluster.Cluster, obj types.ObjectID) types.TSValue {
	t.Helper()
	o, err := c.Object(obj)
	if err != nil {
		t.Fatal(err)
	}
	return o.PeekState().Val
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
	// then fails (exp mismatch) and returns writer 1's value, ts2 >= ts1, so
	// the loop ends without another CAS.
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
	// Writer 0's chain resumed: its failed CAS returned the cell's content.
	// The value must still be writer 1's (the stale CAS failed).
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
// write-max is a chain of CASes reporting into one shared
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
		// abandoned chains one step (CAS -> retried CAS ...), and
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

// TestWriteMaxStartsFromTheHint: a store's write-max is one CAS when the
// cell holds the collect's maximum it starts from, and a stale guess costs
// one failed CAS, whose returned value the retry expects — never a re-read.
// A cell already at or past v takes the one CAS that shows it and keeps its
// value, also when the guess lies above v.
func TestWriteMaxStartsFromTheHint(t *testing.T) {
	ts := func(n uint64) types.TSValue { return types.TSValue{TS: n, Writer: 1, Val: types.Value(10 * n)} }
	for _, tc := range []struct {
		name                string
		cell, hint, v, want types.TSValue
		triggers, retries   int64
	}{
		{"cell holds the hint", ts(5), ts(5), ts(7), ts(7), 1, 0},
		{"stale hint", ts(5), ts(3), ts(7), ts(7), 2, 1},
		{"cell past v", ts(9), ts(3), ts(7), ts(9), 1, 0},
		{"hint above v", ts(9), ts(9), ts(7), ts(9), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.New(3)
			if err != nil {
				t.Fatal(err)
			}
			fab := fabric.New(c)
			obj, err := c.PlaceCASCell(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Apply(obj, 1, baseobj.Invocation{Op: baseobj.OpCAS, Arg: tc.cell}); err != nil {
				t.Fatal(err)
			}
			ch := &chain{fab: fab}
			var got types.TSValue
			reported := 0
			ch.StartWriteMax(context.Background(), 1, []types.ObjectID{obj}, tc.v, tc.hint, func(v types.TSValue, err error) {
				if err != nil {
					t.Errorf("write-max: %v", err)
				}
				got = v
				reported++
			})
			if reported != 1 {
				t.Fatalf("reported %d times, want once (inline on the in-process lane)", reported)
			}
			if n := int64(fab.Triggers()); n != tc.triggers {
				t.Errorf("triggers = %d, want %d", n, tc.triggers)
			}
			if r := ch.metrics.Retries(); r != tc.retries {
				t.Errorf("Retries() = %d, want %d", r, tc.retries)
			}
			if cell := cellOf(t, c, obj); cell != tc.want || got != tc.want {
				t.Errorf("cell = %v, reported %v; want %v", cell, got, tc.want)
			}
		})
	}
}

// TestPairTriggerCount: on the in-process lane a write + read pair is 6 + 3
// triggers, regular and atomic alike: the write's collect reads the three
// cells and its push is one CAS per store from the collected maximum, which
// every cell of a settled register holds; the read's collect agrees on the
// value, so an atomic read writes nothing back.
func TestPairTriggerCount(t *testing.T) {
	for _, atomic := range []bool{false, true} {
		t.Run(fmt.Sprintf("atomic=%v", atomic), func(t *testing.T) {
			reg, metrics, fab := newReg(t, 1, 1, 3, nil, emulation.Options{Atomic: atomic})
			ctx := testCtx(t)
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}
			r := reg.NewReader()
			for v := types.Value(1); v <= 3; v++ {
				before := fab.Triggers()
				if err := w.Write(ctx, v); err != nil {
					t.Fatal(err)
				}
				if n := fab.Triggers() - before; n != 6 {
					t.Errorf("write %d: %d triggers, want 6", v, n)
				}
				before = fab.Triggers()
				if got, err := r.Read(ctx); err != nil || got != v {
					t.Fatalf("read = %d, %v; want %d", got, err, v)
				}
				if n := fab.Triggers() - before; n != 3 {
					t.Errorf("read after write %d: %d triggers, want 3", v, n)
				}
			}
			if metrics.Retries() != 0 {
				t.Errorf("Retries() = %d on sequential writes, want 0", metrics.Retries())
			}
		})
	}
}

// TestConcurrentWriteMaxesReachTheMaximum: k writers run write-maxes of
// interleaved values on the same three cells at once over latency lanes, so
// CASes race on the lanes' goroutines and fail against each other; every
// write-max reports, and every cell ends at the largest value any of them
// installs. Under -race (make race-rounds) this is the loop's data-race net.
func TestConcurrentWriteMaxesReachTheMaximum(t *testing.T) {
	const k, rounds = 4, 20
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c, fabric.WithLanes(fabric.LatencyLanes(1, fabric.LatencyProfile{Jitter: 200 * time.Microsecond})))
	defer fab.Close()
	var objs []types.ObjectID
	for s := range 3 {
		obj, err := c.PlaceCASCell(types.ServerID(s))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	ch := &chain{fab: fab}
	ctx := testCtx(t)
	errs := make(chan error, k)
	for i := range k {
		go func() {
			done := make(chan error, len(objs))
			var hint types.TSValue
			for n := range rounds {
				v := types.TSValue{TS: uint64(n + 1), Writer: types.ClientID(i), Val: types.Value(100*n + i)}
				for _, obj := range objs {
					ch.StartWriteMax(ctx, types.ClientID(i), []types.ObjectID{obj}, v, hint, func(_ types.TSValue, err error) { done <- err })
				}
				for range objs {
					if err := <-done; err != nil {
						errs <- err
						return
					}
				}
				hint = v
			}
			errs <- nil
		}()
	}
	for range k {
		if err := <-errs; err != nil {
			t.Fatalf("write-max: %v", err)
		}
	}
	want := types.TSValue{TS: rounds, Writer: k - 1, Val: 100*(rounds-1) + k - 1}
	for i, obj := range objs {
		if cell := cellOf(t, c, obj); cell != want {
			t.Errorf("cell %d = %v, want the maximum %v", i, cell, want)
		}
	}
	if calls := ch.metrics.WriteMaxCalls.Load(); calls != k*rounds*3 {
		t.Errorf("%d write-max calls, want %d", calls, k*rounds*3)
	}
	t.Logf("%d CAS attempts for %d write-maxes (%d retries)", ch.metrics.CASAttempts.Load(), ch.metrics.WriteMaxCalls.Load(), ch.metrics.Retries())
}
