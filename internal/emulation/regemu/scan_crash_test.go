package regemu

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/types"
)

// shortCtx returns a context that expires fast: for asserting that an
// operation does NOT complete.
func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

// newGatedEmulation builds an emulation over a gated fabric.
func newGatedEmulation(t *testing.T, k, f, n int, gate fabric.Gate) (*Emulation, *fabric.Fabric) {
	t.Helper()
	c, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c, fabric.WithGate(gate))
	fab.Cluster().SetF(f)
	em, err := New(fab, k, emulation.Options{})
	if err != nil {
		t.Fatalf("New(k=%d f=%d n=%d): %v", k, f, n, err)
	}
	return em, fab
}

// gateHoldObjects builds a gate holding the responses of the given objects.
func gateHoldObjects(objs ...types.ObjectID) fabric.Gate {
	held := make(map[types.ObjectID]bool, len(objs))
	for _, o := range objs {
		held[o] = true
	}
	return fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
		if held[ev.Object] {
			return fabric.Hold
		}
		return fabric.Pass
	}}
}

// TestCrashDuringScanNeverCompletesServer is the server-scan round's crash
// semantics test: a server that crashes after SOME but not ALL of its scan
// operations responded must never be counted as a complete scan. With one
// partially-scanned crashed server the n-f=3 quorum still completes from
// the other three servers; with a second partial scan (held, not crashed)
// only two complete scans remain and the collect must hang until its
// context expires.
func TestCrashDuringScanNeverCompletesServer(t *testing.T) {
	// Build the layout once (ungated) to learn which registers land on
	// which server; object allocation is deterministic for fixed (k,f,n),
	// so a rebuild on a gated fabric places identically.
	_, probe := newEmulation(t, 4, 1, 4)
	on0, on1 := probe.Cluster().ObjectsOn(0), probe.Cluster().ObjectsOn(1)
	if len(on0) < 2 || len(on1) < 2 {
		t.Fatalf("unexpected layout: server 0 hosts %v, server 1 %v", on0, on1)
	}

	// Hold one register response on server 0 and one on server 1: their
	// scans stay partial (all their other registers respond).
	em, fab := newGatedEmulation(t, 4, 1, 4, gateHoldObjects(on0[0], on1[0]))
	if got := fab.Cluster().ObjectsOn(0); len(got) != len(on0) {
		t.Fatalf("layout diverged between probe and gated build: %v vs %v", got, on0)
	}

	// Seed a value from a helper goroutine, releasing held responses until
	// the write lands (its collect also faces the two partial scans).
	seeded := make(chan error, 1)
	w, err := em.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	go func() { seeded <- w.Write(testCtx(t), 7) }()
	for landed := false; !landed; {
		select {
		case err := <-seeded:
			if err != nil {
				t.Fatalf("seed write: %v", err)
			}
			landed = true
		case <-time.After(time.Millisecond):
			fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
		}
	}

	// Crash server 0 while a fresh read's scan of it is partially
	// responded: its held register response is dropped, every other
	// register of server 0 answers instantly. Server 1's scan is partial
	// too (held). Only servers 2 and 3 complete scans — 2 of the required
	// 3 — so the read must NOT complete: a partially-scanned crashed
	// server may never count.
	if err := fab.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := em.NewReader().Read(shortCtx(t)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read with 2/3 complete scans returned %v, want deadline exceeded", err)
	}

	// Releasing server 1's held response completes its scan: 3 complete
	// scans exist (servers 1, 2, 3) and reads complete again — still
	// without ever counting the crashed server 0.
	readDone := make(chan struct{})
	var got types.Value
	var readErr error
	go func() {
		got, readErr = em.NewReader().Read(testCtx(t))
		close(readDone)
	}()
	for {
		select {
		case <-readDone:
			if readErr != nil {
				t.Fatalf("read after release: %v", readErr)
			}
			if got != 7 {
				t.Fatalf("read = %d, want 7", got)
			}
			return
		case <-time.After(time.Millisecond):
			fab.ReleaseWhere(func(op fabric.PendingOp) bool { return op.Event.Server == 1 })
		}
	}
}

// TestWriteCancelledMidGatherThenReleaseRecovers is the abandoned-write
// regression test for the completion-leak fix: cancel a Write while its
// acknowledgements are held, release every held op (late completions land
// in the writer's event buffer with nobody draining), and demand that a
// subsequent Write on the same handle succeeds and reads see it. Run under
// -race in CI: a blocking completion send would deadlock the release loop.
func TestWriteCancelledMidGatherThenReleaseRecovers(t *testing.T) {
	gate := fabric.GateFuncs{Apply: func(ev fabric.TriggerEvent) fabric.Decision {
		if ev.Inv.Op.IsWrite() {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	em, fab := newGatedEmulation(t, 2, 1, 4, gate)
	w, err := em.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		// Every low-level write is held: the Write cancels mid-gather.
		if err := w.Write(shortCtx(t), types.Value(10+round)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: held write returned %v, want deadline exceeded", round, err)
		}
		// Release everything: the stale completions must be absorbed by
		// the writer's buffered event channel without blocking this
		// goroutine (which is also the releasing goroutine).
		fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
	}
	// The writer recovers: drive one more write, releasing its (still
	// gate-held) low-level writes from this goroutine until it completes.
	done := make(chan error, 1)
	go func() { done <- w.Write(testCtx(t), 99) }()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("recovery write: %v", err)
			}
			if v, err := em.NewReader().Read(testCtx(t)); err != nil || v != 99 {
				t.Fatalf("read = %d, %v; want 99", v, err)
			}
			return
		case <-time.After(time.Millisecond):
			fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
		}
	}
}
