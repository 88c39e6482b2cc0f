package regemu

import (
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// coveredBy returns the registers of writer w's set that currently have one
// of its low-level writes pending — at most f after a completed write
// (Observation 3).
func coveredBy(em *Emulation, w types.ClientID) []types.ObjectID {
	m := &em.machines[w]
	m.mu.Lock()
	defer m.mu.Unlock()
	set, cover := em.p.Load().set(w)
	var covered []types.ObjectID
	for i, c := range cover {
		if c {
			covered = append(covered, set[i])
		}
	}
	return covered
}

// newAdversarial builds an emulation behind a Script gate.
func newAdversarial(t *testing.T, k, f, n int) (*Emulation, *fabric.Fabric, *adversary.Script) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	script := adversary.NewScript()
	fab := fabric.New(c, fabric.WithGate(script))
	fab.Cluster().SetF(f)
	em, err := New(fab, k, emulation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return em, fab, script
}

func TestWriteCompletesDespiteFHeldWrites(t *testing.T) {
	const k, f, n = 1, 2, 5
	em, fab, script := newAdversarial(t, k, f, n)
	ctx := testCtx(t)

	// Hold the writer's writes on the first f registers it touches.
	var mu sync.Mutex
	held := 0
	script.SetApplyRule(func(ev fabric.TriggerEvent) bool {
		if !adversary.IsMutating(ev.Inv) {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if held < f {
			held++
			return true
		}
		return false
	})
	w, err := em.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ctx, 42); err != nil {
		t.Fatalf("write with f held low-level writes: %v", err)
	}
	script.SetApplyRule(nil)

	// Observation 3: at most f of the writer's registers stay covered.
	if got := len(coveredBy(em, 0)); got != f {
		t.Fatalf("covered by writer 0 = %d, want f = %d", got, f)
	}
	if got := len(fab.CoveredObjects()); got != f {
		t.Fatalf("fabric covered = %d, want %d", got, f)
	}
	// The value is still readable.
	got, err := em.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
}

func TestCoveredRegisterNotReusedUntilResponse(t *testing.T) {
	const k, f, n = 1, 1, 3
	em, fab, script := newAdversarial(t, k, f, n)
	ctx := testCtx(t)
	w, err := em.Writer(0)
	if err != nil {
		t.Fatal(err)
	}

	// Write 1: hold exactly one low-level write.
	var mu sync.Mutex
	heldOne := false
	script.SetApplyRule(func(ev fabric.TriggerEvent) bool {
		if !adversary.IsMutating(ev.Inv) {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if !heldOne {
			heldOne = true
			return true
		}
		return false
	})
	if err := w.Write(ctx, 10); err != nil {
		t.Fatal(err)
	}
	script.SetApplyRule(nil)
	covered := coveredBy(em, 0)
	if len(covered) != 1 {
		t.Fatalf("covered = %v, want exactly 1", covered)
	}
	target := covered[0]

	// Write 2 while the old write is still pending: the writer must NOT
	// issue a second write on the covered register (lines 6-10).
	if err := w.Write(ctx, 20); err != nil {
		t.Fatal(err)
	}
	pendingOnTarget := 0
	for _, op := range fab.Pending() {
		if op.Event.Object == target && op.Event.Inv.Op.IsWrite() {
			pendingOnTarget++
		}
	}
	if pendingOnTarget != 1 {
		t.Fatalf("pending writes on covered register = %d, want 1 (no double trigger)", pendingOnTarget)
	}

	// Release the old covering write: it applies its OLD value now.
	if n := fab.ReleaseWhere(func(op fabric.PendingOp) bool { return op.Event.Object == target }); n != 1 {
		t.Fatalf("released %d, want 1", n)
	}

	// Write 3 drains the stale response and re-triggers the register
	// with the current value (lines 29-32): afterwards the register must
	// hold the newest timestamp, not the stale one.
	if err := w.Write(ctx, 30); err != nil {
		t.Fatal(err)
	}
	obj, err := fab.Cluster().Object(target)
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.PeekState().Val; got.Val != 30 {
		t.Fatalf("covered register holds %v after re-trigger, want val 30", got)
	}
	// No low-level write is actually pending anymore (the re-triggered
	// write responded); the writer's local view may lag by the undrained
	// response but never exceeds f (Observation 3).
	if got := fab.CoveredObjects(); len(got) != 0 {
		t.Fatalf("fabric covered = %v, want none", got)
	}
	if got := coveredBy(em, 0); len(got) > f {
		t.Fatalf("covered by writer 0 = %v, want at most f = %d", got, f)
	}

	// The read sees the latest value throughout.
	got, err := em.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("Read = %d, want 30", got)
	}
}

func TestStaleReleaseIsHarmlessAtFullProvisioning(t *testing.T) {
	// The attack that kills the naive baseline: a covering write released
	// after newer writes. With Algorithm 2's register budget it must be
	// harmless.
	const k, f, n = 2, 1, 3
	em, fab, script := newAdversarial(t, k, f, n)
	ctx := testCtx(t)
	hist := em.History()

	w0, err := em.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := em.Writer(1)
	if err != nil {
		t.Fatal(err)
	}

	// Writer 0's first low-level write is held.
	var mu sync.Mutex
	heldOne := false
	script.SetApplyRule(func(ev fabric.TriggerEvent) bool {
		if ev.Client != 0 || !adversary.IsMutating(ev.Inv) {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if !heldOne {
			heldOne = true
			return true
		}
		return false
	})
	if err := w0.Write(ctx, 10); err != nil {
		t.Fatal(err)
	}
	script.SetApplyRule(nil)
	if err := w1.Write(ctx, 20); err != nil {
		t.Fatal(err)
	}

	// Release writer 0's covering write: its stale value lands now.
	fab.ReleaseWhere(func(op fabric.PendingOp) bool { return op.Event.Client == 0 })

	got, err := em.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("Read = %d, want 20 (stale release must be harmless)", got)
	}
	if err := spec.CheckWSSafety(hist.Snapshot(), types.InitialValue); err != nil {
		t.Fatalf("WS-Safety: %v", err)
	}
}

func TestNoDoubleInFlightWritesPerRegister(t *testing.T) {
	// Invariant behind Observation 3: a writer never has two in-flight
	// low-level writes on the same register. With every write held, the
	// pending set must match the distinct registers triggered.
	const k, f, n = 2, 2, 6
	em, fab, script := newAdversarial(t, k, f, n)

	var mu sync.Mutex
	heldCount := 0
	script.SetApplyRule(func(ev fabric.TriggerEvent) bool {
		if !adversary.IsMutating(ev.Inv) {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if heldCount < f {
			heldCount++
			return true
		}
		return false
	})
	ctx := testCtx(t)
	w, err := em.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if err := w.Write(ctx, types.Value(100+round)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		perObject := make(map[types.ObjectID]int)
		for _, op := range fab.Pending() {
			if op.Event.Inv.Op.IsWrite() {
				perObject[op.Event.Object]++
			}
		}
		for obj, count := range perObject {
			if count > 1 {
				t.Fatalf("round %d: register %d has %d in-flight writes", round, obj, count)
			}
		}
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	// Write-concurrent runs have no WS guarantee, but reads must remain
	// valid and nothing may deadlock (run with -race).
	const k, f, n = 4, 2, 7
	em, _ := newEmulation(t, k, f, n)
	ctx := testCtx(t)

	var wg sync.WaitGroup
	errs := make(chan error, k+2)
	for i := 0; i < k; i++ {
		w, err := em.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, w *emulation.Writer) {
			defer wg.Done()
			for op := 0; op < 15; op++ {
				if err := w.Write(ctx, types.Value(int64(i+1)<<32|int64(op))); err != nil {
					errs <- err
					return
				}
			}
		}(i, w)
	}
	for r := 0; r < 2; r++ {
		rd := em.NewReader()
		wg.Add(1)
		go func(rd *emulation.Reader) {
			defer wg.Done()
			for op := 0; op < 15; op++ {
				if _, err := rd.Read(ctx); err != nil {
					errs <- err
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent op: %v", err)
	}
	if err := spec.CheckReadValidity(em.History().Snapshot(), types.InitialValue); err != nil {
		t.Fatalf("read validity: %v", err)
	}
}
