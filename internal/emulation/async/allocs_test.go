//go:build !race

package async_test

import (
	"testing"

	"repro/internal/emulation/async"
	"repro/internal/runner"
	"repro/internal/types"
)

// TestEnginePairAllocCeiling pins what the engine adds to an operation: an
// abd-max write and read through one engine on the in-process lane, each
// awaited, allocate nothing — the op record, the handle's record and the
// chain's come recycled with their callbacks bound, the mailbox swaps its two
// buffers, and the rounds were already free (emulation.TestRoundAllocsCeiling).
// Before ops were recycled the pair cost 12. Excluded under -race, where
// sync.Pool drops items on purpose.
func TestEnginePairAllocCeiling(t *testing.T) {
	reg, hist := buildEnv(t, runner.KindABDMax, 1, 1, 3)
	hist.SetDiscard(true)
	eng := async.NewDetached()
	defer eng.Close()
	w, err := eng.WriterOn(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := eng.ReaderOn(reg)
	var v types.Value
	done := make(chan struct{}, 1)
	writeDone := func(err error) {
		if err != nil {
			t.Errorf("write %d: %v", v, err)
		}
		done <- struct{}{}
	}
	readDone := func(got types.Value, err error) {
		if err != nil || got != v {
			t.Errorf("read = %d, %v; want %d", got, err, v)
		}
		done <- struct{}{}
	}
	pair := func() {
		v++
		w.StartWrite(v, writeDone)
		<-done
		r.StartRead(readDone)
		<-done
	}
	for i := 0; i < 10; i++ { // warm the pools and the mailbox's two buffers
		pair()
	}
	if got := testing.AllocsPerRun(1000, pair); got > 0 {
		t.Fatalf("write+read pair through the engine allocates %.1f objects, want 0: an op record is allocated per op again", got)
	}
}
