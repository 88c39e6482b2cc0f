package regemu

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/fabric"
	"repro/internal/types"
)

// TestResizeWriteCaughtInWindowRepushesItsTimestamp: a write whose push is
// held on all three registers (n=3, f=1) is caught by a reshape to n=5, f=2.
// The freeze bounces the three held writes — they never applied, so there is
// nothing to seed — and once the transition ended the write re-pushes the
// timestamp it already proposed to its set in the new layout, counting
// acknowledgements against the new quorum from zero: exactly one batch of
// five writes, no fresh collect, and every new register holds the write's
// first timestamp. The two later bounces find the write moved on and
// trigger nothing.
func TestResizeWriteCaughtInWindowRepushesItsTimestamp(t *testing.T) {
	var hold atomic.Bool
	hold.Store(true)
	em, fab := newGatedEmulation(t, 1, 1, 3, fabric.GateFuncs{Apply: func(ev fabric.TriggerEvent) fabric.Decision {
		if hold.Load() && adversary.IsMutating(ev.Inv) {
			return fabric.Hold
		}
		return fabric.Pass
	}})
	ctx := testCtx(t)
	w, err := em.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	w.StartWrite(ctx, 5, func(err error) { done <- err })
	if held := len(fab.Pending()); held != 3 {
		t.Fatalf("%d writes held, want the push stalled on all 3", held)
	}
	hold.Store(false)
	before := fab.Triggers()
	if _, err := fab.Resize(ctx, fabric.ResizeSpec{Join: make([]fabric.LaneMaker, 2), F: 2}, em.Reshape); err != nil {
		t.Fatalf("resize: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write across the reshape: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("the write caught by the reshape never completed")
	}
	want, err := bounds.RegisterUpper(1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := em.p.Load()
	if len(p.objs) != want || em.F() != 2 {
		t.Fatalf("after the reshape: %d registers at f=%d, want %d at f=2", len(p.objs), em.F(), want)
	}
	// The write reports at its quorum of 3, possibly before the batch that
	// carried it — on a retry's goroutine — triggered the last two; the
	// two later retries may still be checking whether the write moved on.
	held := func() (n int) {
		for _, obj := range p.objs {
			o, err := fab.Cluster().Object(obj)
			if err != nil {
				t.Fatal(err)
			}
			if o.PeekState().Val != types.ZeroTSValue {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); held() < want && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	for i := 0; i < 1_000; i++ {
		runtime.Gosched()
	}
	if got := fab.Triggers() - before; got != 5 {
		t.Fatalf("the write cost %d triggers after the reshape, want one push of 5", got)
	}
	for _, obj := range p.objs {
		o, err := fab.Cluster().Object(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.PeekState().Val; got != (types.TSValue{TS: 1, Writer: 0, Val: 5}) {
			t.Errorf("register %d holds %v, want the write's first timestamp <ts=1,w=0,v=5>", obj, got)
		}
	}
	if got, err := em.NewReader().Read(context.Background()); err != nil || got != 5 {
		t.Fatalf("read after the reshape = %d, %v; want 5", got, err)
	}
}
