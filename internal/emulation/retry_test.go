package emulation_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/types"
)

// parkTwo is an apply gate that, while armed, parks writer 0's mutating ops
// on the first two distinct servers they reach: with f=1 that leaves every
// construction's last round one acknowledgement short of its quorum.
type parkTwo struct {
	mu      sync.Mutex
	armed   bool
	servers []types.ServerID
}

func (g *parkTwo) apply(ev fabric.TriggerEvent) fabric.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.armed || ev.Client != 0 || !adversary.IsMutating(ev.Inv) {
		return fabric.Pass
	}
	for _, s := range g.servers {
		if s == ev.Server {
			return fabric.Hold
		}
	}
	if len(g.servers) < 2 {
		g.servers = append(g.servers, ev.Server)
		return fabric.Hold
	}
	return fabric.Pass
}

func (g *parkTwo) disarm() types.ServerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = false
	return g.servers[0]
}

// TestViewChangeRetry drives the three users of rounds.Retry through a
// Replace: a fabric-target round (abd-max's direct push), a store-start
// round (abd-cas's Algorithm 1 write chains) and regemu's per-register
// re-trigger. The write stalls with two low-level writes parked before
// taking effect; replacing one of their servers completes that op with a
// view-change error (it never applied), and the retry must carry the write
// to completion in the new view without the client seeing anything — or,
// when the client's context ended meanwhile, report the context's error and
// trigger nothing.
func TestViewChangeRetry(t *testing.T) {
	const k, f = 2, 1
	for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCASMax, runner.KindRegEmu} {
		for _, cancelled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cancelled=%v", kind, cancelled), func(t *testing.T) {
				gate := &parkTwo{armed: true}
				env, err := runner.NewEnv(runner.ChaosServers(kind), fabric.GateFuncs{Apply: gate.apply})
				if err != nil {
					t.Fatal(err)
				}
				defer env.Fabric.Close()
				fab := env.Fabric
				reg, _, err := runner.Build(kind, fab, k, f)
				if err != nil {
					t.Fatal(err)
				}
				w, err := reg.Writer(0)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := make(chan error, 1)
				w.StartWrite(ctx, 5, func(err error) { done <- err })
				if parked := len(fab.Pending()); parked != 2 {
					t.Fatalf("%d operations parked, want the write stalled on 2", parked)
				}
				select {
				case err := <-done:
					t.Fatalf("write completed (%v) with its quorum parked", err)
				default:
				}

				leaver := gate.disarm()
				if cancelled {
					cancel()
				}
				before := fab.Triggers()
				replaceCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
				defer stop()
				if _, err := fab.Replace(replaceCtx, leaver, nil); err != nil {
					t.Fatalf("Replace(%d): %v", leaver, err)
				}
				select {
				case err = <-done:
				case <-replaceCtx.Done():
					t.Fatal("write never reported after the replacement")
				}
				if cancelled {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("abandoned write reported %v, want the context's error", err)
					}
					if got := fab.Triggers(); got != before {
						t.Fatalf("retry triggered %d operations for a cancelled write", got-before)
					}
					return
				}
				if err != nil {
					t.Fatalf("write across the replacement: %v (a view change must be invisible)", err)
				}
				if fab.Triggers() == before {
					t.Fatal("write completed without re-triggering in the new view")
				}
				if got, err := reg.NewReader().Read(replaceCtx); err != nil || got != 5 {
					t.Fatalf("read after the replacement = %d, %v; want 5", got, err)
				}
			})
		}
	}
}
