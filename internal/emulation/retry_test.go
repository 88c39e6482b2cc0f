package emulation_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/emulation"
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

// stalledWrite builds kind (k=2, f=1) behind an armed parkTwo gate and starts
// writer 0's write of 5, which stalls with two low-level writes parked.
func stalledWrite(t *testing.T, ctx context.Context, kind runner.Kind) (*fabric.Fabric, emulation.Register, *parkTwo, <-chan error) {
	t.Helper()
	gate := &parkTwo{armed: true}
	env, err := runner.NewEnv(runner.ChaosServers(kind), fabric.GateFuncs{Apply: gate.apply})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Fabric.Close() })
	reg, _, err := runner.BuildWith(kind, env.Fabric, 2, 1, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	w.StartWrite(ctx, 5, func(err error) { done <- err })
	if parked := len(env.Fabric.Pending()); parked != 2 {
		t.Fatalf("%d operations parked, want the write stalled on 2", parked)
	}
	return env.Fabric, reg, gate, done
}

func (g *parkTwo) disarm() types.ServerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = false
	return g.servers[0]
}

// TestViewChangeRetry drives the three users of rounds.Retry through a
// one-for-one swap: a fabric-target round (abd-max's one-op push), a chain-store
// round (abd-cas's Algorithm 1 write chains) and regemu's per-register
// re-trigger. The write stalls with two low-level writes parked before
// taking effect; replacing one of their servers completes that op with a
// view-change error (it never applied), and the retry must carry the write
// to completion in the new view without the client seeing anything — or,
// when the client's context ended meanwhile, report the context's error and
// trigger nothing.
func TestViewChangeRetry(t *testing.T) {
	for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCASMax, runner.KindRegEmu} {
		for _, cancelled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cancelled=%v", kind, cancelled), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				fab, reg, gate, done := stalledWrite(t, ctx, kind)
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
				spec := fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{leaver}}
				if _, err := fab.Resize(replaceCtx, spec, reg.Reshape); err != nil {
					t.Fatalf("swap of server %d: %v", leaver, err)
				}
				var err error
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

// triggerTap is a tracer that reports every triggered low-level operation on
// a channel: how a test waits for a blocking write to have scattered without
// polling.
type triggerTap chan struct{}

func (tap triggerTap) Trace(ev fabric.TraceEvent) {
	if ev.Kind == fabric.TraceTrigger {
		tap <- struct{}{}
	}
}

// heldTransition starts a transition whose frozen window stays open — every
// departing lane frozen and drained, nothing transferred — until release is
// closed, and returns once the window is open. atRelease, when non-nil, runs
// inside the window right after the release. The transition's error arrives
// on the returned channel.
func heldTransition(t *testing.T, fab *fabric.Fabric, spec fabric.ResizeSpec, release <-chan struct{}, atRelease func()) <-chan error {
	t.Helper()
	frozen := make(chan struct{})
	fab.HookTransition(func() {
		close(frozen)
		<-release
		if atRelease != nil {
			atRelease()
		}
	}, nil)
	ended := make(chan error, 1)
	go func() {
		_, err := fab.Resize(context.Background(), spec, nil)
		ended <- err
	}()
	<-frozen
	return ended
}

// replaceOf is the 1-for-1 replacement of one server, as a ResizeSpec.
func replaceOf(old types.ServerID) fabric.ResizeSpec {
	return fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{old}}
}

// holdLengths are how long the tests below keep a frozen window open after
// the write under test bounced, in scheduler yields: the retry waits on the
// transition's end, so what it costs must not depend on the length.
var holdLengths = []int{0, 1_000, 50_000}

func yield(n int) {
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// abdMaxUnderHeldSwap builds a 3-server abd-max register (f=1) on the
// in-process lane, opens a held swap of server 0 and starts a blocking
// write of 5 into it, returning once the write's collect — three triggers,
// the one at the frozen server bounced — is out and the write is parked.
func abdMaxUnderHeldSwap(t *testing.T, ctx context.Context, release <-chan struct{}, atRelease func()) (fab *fabric.Fabric, read func() (types.Value, error), written, replaced <-chan error) {
	t.Helper()
	tap := make(triggerTap, 64)
	env, err := runner.NewEnv(3, nil, fabric.WithTracer(tap))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Fabric.Close() })
	fab = env.Fabric
	reg, _, err := runner.BuildWith(runner.KindABDMax, fab, 1, 1, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	replaced = heldTransition(t, fab, replaceOf(0), release, atRelease)
	done := make(chan error, 1)
	go func() { done <- w.Write(ctx, 5) }()
	for i := 0; i < 3; i++ {
		<-tap
	}
	return fab, func() (types.Value, error) { return reg.NewReader().Read(context.Background()) }, done, replaced
}

// TestViewRetryCostsOneRescatter: a blocking abd-max write that meets a
// the swap's frozen window costs exactly nine triggers — the bounced collect
// (3), then in the new view one collect (3) and one push (3) — however long
// the window stays open, because nothing re-triggers until the transition
// ends.
func TestViewRetryCostsOneRescatter(t *testing.T) {
	for _, hold := range holdLengths {
		t.Run(fmt.Sprintf("hold=%d", hold), func(t *testing.T) {
			release := make(chan struct{})
			fab, read, written, replaced := abdMaxUnderHeldSwap(t, context.Background(), release, nil)
			yield(hold)
			if got := fab.Triggers(); got != 3 {
				t.Fatalf("%d triggers inside the frozen window, want the 3 of the bounced collect", got)
			}
			if got := fab.ViewWaiters(); got != 1 {
				t.Fatalf("%d ops parked on the view stamp, want the write", got)
			}
			close(release)
			if err := <-replaced; err != nil {
				t.Fatalf("swap: %v", err)
			}
			if err := <-written; err != nil {
				t.Fatalf("write across the replacement: %v (a view change must be invisible)", err)
			}
			if got := fab.Triggers(); got != 9 {
				t.Fatalf("the write cost %d triggers, want exactly 9 (3 bounced + collect 3 + push 3)", got)
			}
			if got, err := read(); err != nil || got != 5 {
				t.Fatalf("read after the replacement = %d, %v; want 5", got, err)
			}
		})
	}
}

// TestViewRetryTriggerCountIgnoresWindowLength is the same property for all
// three users of rounds.Retry: a write stalls with two low-level writes parked
// before taking effect, the swap's drain bounces the one on the leaver into
// a frozen window held open for each of holdLengths, and the retry costs the
// same number of triggers every time — abd-max's re-scattered push 3; abd-cas's
// re-started store chains 3 (one CAS per store, each from the collect's
// maximum: it fails on the store that already holds the value and returns
// that value, which ends the chain, and installs it on the other two);
// regemu's one re-triggered register 1.
func TestViewRetryTriggerCountIgnoresWindowLength(t *testing.T) {
	for kind, want := range map[runner.Kind]uint64{runner.KindABDMax: 3, runner.KindCASMax: 3, runner.KindRegEmu: 1} {
		for _, hold := range holdLengths {
			t.Run(fmt.Sprintf("%s/hold=%d", kind, hold), func(t *testing.T) {
				fab, _, gate, done := stalledWrite(t, context.Background(), kind)
				before := fab.Triggers()
				release := make(chan struct{})
				replaced := heldTransition(t, fab, replaceOf(gate.disarm()), release, nil)
				yield(hold)
				if got := fab.Triggers(); got != before {
					t.Fatalf("%d triggers inside the frozen window, want none", got-before)
				}
				close(release)
				if err := <-replaced; err != nil {
					t.Fatalf("swap: %v", err)
				}
				if err := <-done; err != nil {
					t.Fatalf("write across the replacement: %v", err)
				}
				// The write reports at its quorum; the last store's chain may
				// still be running on the retry's goroutine.
				for deadline := time.Now().Add(10 * time.Second); fab.Triggers()-before < want && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				yield(1_000)
				if got := fab.Triggers() - before; got != want {
					t.Fatalf("the retry cost %d triggers, want %d whatever the window's length", got, want)
				}
			})
		}
	}
}

// TestViewRetryCancelledInsideWindow: a write parked on the view stamp whose
// context ends fails with the context's error while the window is still
// open, leaves no waiter behind for the next transition to find, and
// triggers nothing when the transition does end.
func TestViewRetryCancelledInsideWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	fab, _, written, replaced := abdMaxUnderHeldSwap(t, ctx, release, nil)
	cancel()
	if err := <-written; !errors.Is(err, context.Canceled) {
		t.Fatalf("write cancelled inside the window returned %v, want the context's error", err)
	}
	// The blocking adapter and the parked retry watch the same context on
	// goroutines of their own; the waiter goes when the latter has run.
	for deadline := time.Now().Add(10 * time.Second); fab.ViewWaiters() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters still parked after their context ended", fab.ViewWaiters())
		}
	}
	close(release)
	if err := <-replaced; err != nil {
		t.Fatalf("swap: %v", err)
	}
	if got := fab.Triggers(); got != 3 {
		t.Fatalf("the abandoned write triggered %d operations after its collect, want none", got-3)
	}
}

// TestViewRetryAbortWakes: the leaver crashes inside the frozen window, the
// transition aborts back onto the old view — and the abort, like a commit,
// ends the wait: the parked write completes on the restored view (a quorum of
// the two survivors).
func TestViewRetryAbortWakes(t *testing.T) {
	release := make(chan struct{})
	var fab *fabric.Fabric
	crash := func() {
		if err := fab.Crash(0); err != nil {
			t.Errorf("crash inside the frozen window: %v", err)
		}
	}
	fab, read, written, replaced := abdMaxUnderHeldSwap(t, context.Background(), release, crash)
	close(release)
	if err := <-replaced; !fabric.IsResizeAborted(err) {
		t.Fatalf("a swap with the leaver crashed mid-window returned %v, want ErrResizeAborted", err)
	}
	if err := <-written; err != nil {
		t.Fatalf("write across the aborted replacement: %v", err)
	}
	if got, err := read(); err != nil || got != 5 {
		t.Fatalf("read on the restored view = %d, %v; want 5", got, err)
	}
	if got := fab.ViewWaiters(); got != 0 {
		t.Fatalf("%d waiters left after the abort", got)
	}
}
