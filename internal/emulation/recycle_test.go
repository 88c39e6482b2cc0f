package emulation_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/emulation/async"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/types"
)

// TestOpRecyclingLateResponders is rounds.TestRoundRecyclingLateResponders one
// layer up: thousands of closed-loop operations from concurrent streams ride
// one engine on the latency lane while server 2's every response is delayed
// past its quorum — so the engine's op, the handle's record and the chain's
// are recycled with a straggler of theirs only just in — and a swap of
// server 1 lands in the middle, so operations caught by it retry. Every
// stream owns its register and reads back each value it wrote, so a
// completion delivered to another operation's record — another stream's, or
// this stream's previous one — shows as a wrong value, a failure, or a second
// firing. It runs on abd-max, whose stores take one op of a round, and on
// the two kinds whose stores recycle records of their own, each riding its
// own one-op group: abd-cas's loop records and aac-max's cell writes
// (aac-max is regular-only).
func TestOpRecyclingLateResponders(t *testing.T) {
	for _, tc := range []struct {
		kind   runner.Kind
		atomic bool
	}{
		{runner.KindABDMax, true},
		{runner.KindCASMax, true},
		{runner.KindAACMax, false},
	} {
		t.Run(string(tc.kind), func(t *testing.T) { opRecyclingLateResponders(t, tc.kind, tc.atomic) })
	}
}

func opRecyclingLateResponders(t *testing.T, kind runner.Kind, atomicReads bool) {
	const streams, pairs = 8, 300
	lateServer2 := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
		if ev.Server == 2 {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	lanes := fabric.LatencyLanes(3, fabric.LatencyProfile{Base: 2 * time.Microsecond, Jitter: 20 * time.Microsecond})
	env, err := runner.NewEnv(3, lateServer2, fabric.WithLanes(lanes))
	if err != nil {
		t.Fatal(err)
	}
	fab := env.Fabric
	defer fab.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	eng := async.NewDetached(async.WithContext(ctx))
	defer eng.Close()

	// The releaser lets server 2's parked responses go, late.
	quit, released := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(released)
		for {
			select {
			case <-quit:
				return
			default:
				fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()

	// fired[s][n] counts the completions of stream s's n-th operation.
	fired := make([][]atomic.Int32, streams)
	var past atomic.Int32 // streams past the halfway mark
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		reg, _, err := runner.BuildWith(kind, fab, 1, 1, runner.BuildOpts{Atomic: atomicReads})
		if err != nil {
			t.Fatal(err)
		}
		w, err := eng.WriterOn(reg, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := eng.ReaderOn(reg)
		fired[s] = make([]atomic.Int32, 2*pairs)
		wg.Add(1)
		var pair func(p int)
		pair = func(p int) {
			if p == pairs {
				wg.Done()
				return
			}
			if p == pairs/2 {
				past.Add(1)
			}
			want := types.Value(1_000_000*(s+1) + p)
			w.StartWrite(want, func(err error) {
				fired[s][2*p].Add(1)
				if err != nil {
					t.Errorf("stream %d write %d: %v", s, p, err)
				}
				r.StartRead(func(got types.Value, err error) {
					fired[s][2*p+1].Add(1)
					if err != nil || got != want {
						t.Errorf("stream %d read %d = %d, %v; want %d", s, p, got, err, want)
					}
					pair(p + 1)
				})
			})
		}
		pair(0)
	}

	// Swap server 1 out once every stream is in full swing.
	for past.Load() < streams && ctx.Err() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := fab.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{1}}, nil); err != nil {
		t.Fatalf("swap of server 1: %v", err)
	}
	wg.Wait()
	close(quit)
	<-released
	if st := eng.Stats(); st.Failed != 0 || st.Completed != 2*streams*pairs {
		t.Errorf("engine stats %+v, want %d completed and none failed", st, 2*streams*pairs)
	}
	for s := range fired {
		for n := range fired[s] {
			if got := fired[s][n].Load(); got != 1 && !t.Failed() {
				t.Errorf("stream %d operation %d completed %d times", s, n, got)
			}
		}
	}
}
