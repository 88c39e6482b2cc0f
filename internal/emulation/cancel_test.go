package emulation_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/types"
)

// Gate modes of the cancellation tests: which of writer 0's responses park.
const (
	holdNone int32 = iota
	holdAll        // every response: the write stalls in its first round
	holdLast       // mutating ops only: collects pass, the write stalls in its last round
)

// isLastRound reports whether inv belongs to the final round of kind's
// write: the commit for coded (its put is mutating too), any mutating op
// for the two-round constructions.
func isLastRound(kind runner.Kind, inv baseobj.Invocation) bool {
	if kind == runner.KindCoded {
		return inv.Op == baseobj.OpCommitFrag
	}
	return adversary.IsMutating(inv)
}

func heldResponses(fab *fabric.Fabric) int {
	n := 0
	for _, op := range fab.Pending() {
		if op.Phase == fabric.PhaseRespond {
			n++
		}
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// writeOf returns the history entry of the write of v.
func writeOf(t *testing.T, hist *spec.History, v types.Value) spec.Op {
	t.Helper()
	for _, op := range hist.Snapshot() {
		if op.Kind == spec.KindWrite && op.Arg == v {
			return op
		}
	}
	t.Fatalf("history has no write of %d", v)
	return spec.Op{}
}

// TestCancellationContract pins the one cancellation contract of the shared
// blocking adapter on every construction and both lanes: a write whose
// context is already cancelled fails before any trigger; a write cancelled
// mid-flight — stalled in its first round or in its last — fails with the
// context's error, triggers nothing after the call returned (not even when
// the environment then releases every held response, which used to let a
// coded write go on to stripe and commit), and stays pending in the
// history; and the same handle then completes a fresh write that a read
// returns.
func TestCancellationContract(t *testing.T) {
	const k, f = 2, 1
	const abandoned, fresh types.Value = 7, 8
	lanes := map[string][]fabric.Option{
		"inproc":  nil,
		"latency": {fabric.WithLanes(fabric.LatencyLanes(11, fabric.LatencyProfile{Jitter: 50 * time.Microsecond}))},
	}
	cases := []struct {
		name string
		mode int32
	}{{"already cancelled", holdNone}, {"first round held", holdAll}, {"last round held", holdLast}}
	for _, kind := range runner.Kinds() {
		for lane, laneOpts := range lanes {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, lane, tc.name), func(t *testing.T) {
					var mode atomic.Int32
					gate := fabric.GateFuncs{Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
						m := mode.Load()
						if ev.Client == 0 && (m == holdAll || m == holdLast && isLastRound(kind, ev.Inv)) {
							return fabric.Hold
						}
						return fabric.Pass
					}}
					env, err := runner.NewEnv(runner.ChaosServers(kind), gate, laneOpts...)
					if err != nil {
						t.Fatal(err)
					}
					defer env.Fabric.Close()
					fab := env.Fabric
					reg, hist, err := runner.Build(kind, fab, k, f)
					if err != nil {
						t.Fatal(err)
					}
					w, err := reg.Writer(0)
					if err != nil {
						t.Fatal(err)
					}

					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					before := fab.Triggers()
					if tc.mode == holdNone {
						cancel()
						err = w.Write(ctx, abandoned)
						if fab.Triggers() != before {
							t.Fatalf("a write on a cancelled context triggered %d operations", fab.Triggers()-before)
						}
					} else {
						mode.Store(tc.mode)
						errc := make(chan error, 1)
						go func() { errc <- w.Write(ctx, abandoned) }()
						waitFor(t, "the round to stall on held responses", func() bool { return heldResponses(fab) > 0 })
						cancel()
						err = <-errc
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("cancelled write returned %v, want an error wrapping context.Canceled", err)
					}

					// The call has returned: from here on the abandoned write may
					// trigger nothing, whatever the environment releases.
					after := fab.Triggers()
					mode.Store(holdNone)
					// Released repeatedly: on the latency lane an op the gate decided
					// to hold just before the mode flipped may park just after a
					// release pass.
					waitFor(t, "released operations to drain", func() bool {
						fab.ReleaseWhere(func(fabric.PendingOp) bool { return true })
						return len(fab.Pending()) == 0
					})
					if got := fab.Triggers(); got != after {
						t.Fatalf("abandoned write triggered %d operations after its call returned", got-after)
					}
					if writeOf(t, hist, abandoned).Complete {
						t.Fatal("abandoned write's history entry was closed")
					}

					live, done := context.WithTimeout(context.Background(), 10*time.Second)
					defer done()
					if err := w.Write(live, fresh); err != nil {
						t.Fatalf("fresh write on the same handle: %v", err)
					}
					if got, err := reg.NewReader().Read(live); err != nil || got != fresh {
						t.Fatalf("read after the fresh write = %d, %v; want %d", got, err, fresh)
					}
					if writeOf(t, hist, abandoned).Complete {
						t.Fatal("abandoned write's history entry was closed late")
					}
				})
			}
		}
	}
}

// TestAbandonedWriteCannotTieTheHandlesNextWrite is ROADMAP item 1(b) made
// deterministic. A write is abandoned with its push applied on one server
// only (the other two held before they take effect); the same handle's next
// write collects from the two servers that never saw it. Without the
// writer's memory of what it proposed, both writes carry the same
// (timestamp, writer) pair, types.TSValue.Less cannot order them, and a read
// whose quorum includes the first server returns the abandoned value.
func TestAbandonedWriteCannotTieTheHandlesNextWrite(t *testing.T) {
	const abandoned, fresh types.Value = 7, 8
	for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCASMax, runner.KindAACMax} {
		t.Run(string(kind), func(t *testing.T) {
			// Stage 1: writer 0's mutating ops take effect on server 0 only.
			// Stage 2: server 0 answers writer 0 nothing, so the fresh write's
			// collect and push run on servers 1 and 2.
			var stage atomic.Int32
			gate := fabric.GateFuncs{Apply: func(ev fabric.TriggerEvent) fabric.Decision {
				switch {
				case ev.Client != 0:
				case stage.Load() == 1 && ev.Server != 0 && adversary.IsMutating(ev.Inv),
					stage.Load() == 2 && ev.Server == 0:
					return fabric.Hold
				}
				return fabric.Pass
			}}
			env, err := runner.NewEnv(runner.ChaosServers(kind), gate)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, _, err := runner.Build(kind, env.Fabric, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}

			stage.Store(1)
			ctx, cancel := context.WithCancel(context.Background())
			// Nobody listens to the abandoned write any more; it may still
			// complete once its held operations are released, not before.
			w.StartWrite(ctx, abandoned, func(err error) {
				if stage.Load() != 0 {
					t.Errorf("the abandoned write completed with two of its three pushes held: %v", err)
				}
			})
			cancel()

			stage.Store(2)
			if err := w.Write(context.Background(), fresh); err != nil {
				t.Fatalf("fresh write on the same handle: %v", err)
			}
			stage.Store(0)
			env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
			if got, err := reg.NewReader().Read(context.Background()); err != nil || got != fresh {
				t.Fatalf("read after the fresh write = %d, %v; want %d", got, err, fresh)
			}
		})
	}
}
