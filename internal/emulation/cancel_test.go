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
	"repro/internal/emulation"
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

// lateSteps is how many operations an abandoned write may trigger after
// its call returned, by emulation.Writer's contract: no further round, and
// at most one further step per store of a per-store loop. abd-cas pushes
// through one Algorithm 1 loop per CAS cell, so a cell whose loop checked
// the context just before the cancel takes its step just after; every other
// round triggers in one batch.
func lateSteps(kind runner.Kind, mode int32, reg emulation.Register) uint64 {
	if kind == runner.KindCASMax && mode == holdLast {
		return uint64(reg.ResourceComplexity())
	}
	return 0
}

// TestCancellationContract pins the one cancellation contract of the shared
// blocking adapter on every construction and both lanes: a write whose
// context is already cancelled fails before any trigger; a write cancelled
// mid-flight — stalled in its first round or in its last — fails with the
// context's error, triggers no further round after the call returned (not
// even when the environment then releases every held response, which used
// to let a coded write go on to stripe and commit) and at most one step per
// store of a per-store loop (lateSteps), and stays pending in the history;
// and the same handle then completes a fresh write that a read returns.
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
					reg, hist, err := runner.BuildWith(kind, fab, k, f, runner.BuildOpts{})
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
					if got, most := fab.Triggers()-after, lateSteps(kind, tc.mode, reg); got > most {
						t.Fatalf("abandoned write triggered %d operations after its call returned, want at most %d", got, most)
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
// whose quorum includes the first server returns the abandoned value. On
// aac-max the fresh push waits behind the abandoned one on each server where
// that one is still in flight, so the fresh write stays pending until the
// release lets the abandoned pushes land first; a read whose quorum excludes
// the first server then gathers the two servers the abandoned pushes landed
// on late.
func TestAbandonedWriteCannotTieTheHandlesNextWrite(t *testing.T) {
	const abandoned, fresh types.Value = 7, 8
	for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCASMax, runner.KindAACMax} {
		t.Run(string(kind), func(t *testing.T) {
			// Stage 1: writer 0's mutating ops take effect on server 0 only.
			// Stage 2: server 0 answers writer 0 nothing, so the fresh write's
			// collect and push run on servers 1 and 2.
			// Stage 3: server `excluded` answers readers nothing.
			var stage, excluded atomic.Int32
			gate := fabric.GateFuncs{
				Apply: func(ev fabric.TriggerEvent) fabric.Decision {
					switch {
					case ev.Client != 0:
					case stage.Load() == 1 && ev.Server != 0 && adversary.IsMutating(ev.Inv),
						stage.Load() == 2 && ev.Server == 0:
						return fabric.Hold
					}
					return fabric.Pass
				},
				Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
					if stage.Load() == 3 && ev.Client >= emulation.ReaderIDBase && int32(ev.Server) == excluded.Load() {
						return fabric.Hold
					}
					return fabric.Pass
				},
			}
			env, err := runner.NewEnv(runner.ChaosServers(kind), gate)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, _, err := runner.BuildWith(kind, env.Fabric, 2, 1, runner.BuildOpts{})
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
				if stage.Load() != 3 {
					t.Errorf("the abandoned write completed with two of its three pushes held: %v", err)
				}
			})
			cancel()

			stage.Store(2)
			done := make(chan error, 1)
			w.StartWrite(context.Background(), fresh, func(err error) { done <- err })
			if kind == runner.KindAACMax {
				select {
				case err := <-done:
					t.Fatalf("the fresh write completed ahead of the abandoned pushes it waits behind: %v", err)
				default:
				}
			}
			stage.Store(3)
			env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("fresh write on the same handle: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the fresh write never completed")
			}
			// The tie shows only to a quorum that includes server 0; an
			// abandoned push landing after the fresh one on servers 1 and 2,
			// only to a quorum that excludes it.
			for _, s := range []int32{1, 0} {
				excluded.Store(s)
				if got, err := reg.NewReader().Read(context.Background()); err != nil || got != fresh {
					t.Fatalf("read without server %d after the fresh write = %d, %v; want %d", s, got, err, fresh)
				}
			}
		})
	}
}

// TestAbandonedWriteCannotTieTheHandlesNextCodedWrite is the coded sibling
// of TestAbandonedWriteCannotTieTheHandlesNextWrite, at n = 3, f = 1 (kData =
// 1), on regular and atomic builds. A write is abandoned with its put applied
// on server 0 only; the same handle's next write collects, puts and commits
// on servers 1 and 2 while server 0 holds every op of writer 0. A write
// stamped collected+1 would carry the abandoned write's (timestamp, writer)
// pair, and a read whose gather includes server 0 would find two stripes it
// cannot order, each reconstructible from one fragment — and return the
// abandoned value after the fresh write completed (an atomic read would even
// write it back). The reads run while server 0 still holds the fresh ops:
// released, the fresh put would overwrite the stray fragment, whose store key
// is that same pair, and hide the tie. Every coded geometry with n ≤ 3f has
// kData = n−2f ≤ f, so the f stray fragments a collect can miss reconstruct
// on their own — among them the sharded store's default at f ≥ 2 (n = 2f+1,
// kData = 1).
func TestAbandonedWriteCannotTieTheHandlesNextCodedWrite(t *testing.T) {
	const abandoned, fresh types.Value = 7, 8
	for _, atomicReads := range []bool{false, true} {
		t.Run(fmt.Sprintf("atomic=%v", atomicReads), func(t *testing.T) {
			// Stage 1: writer 0's puts and commits take effect on server 0
			// only. Stage 2: server 0 holds every op of writer 0. Readers
			// hear nothing from server `excluded` (-1: none).
			var stage, excluded atomic.Int32
			excluded.Store(-1)
			gate := fabric.GateFuncs{
				Apply: func(ev fabric.TriggerEvent) fabric.Decision {
					switch {
					case ev.Client != 0:
					case stage.Load() == 1 && ev.Server != 0 && adversary.IsMutating(ev.Inv),
						stage.Load() == 2 && ev.Server == 0:
						return fabric.Hold
					}
					return fabric.Pass
				},
				Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
					if ev.Client >= emulation.ReaderIDBase && int32(ev.Server) == excluded.Load() {
						return fabric.Hold
					}
					return fabric.Pass
				},
			}
			env, err := runner.NewEnv(3, gate)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, _, err := runner.BuildWith(runner.KindCoded, env.Fabric, 2, 1, runner.BuildOpts{Atomic: atomicReads})
			if err != nil {
				t.Fatal(err)
			}
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}

			stage.Store(1)
			var released atomic.Bool
			ctx, cancel := context.WithCancel(context.Background())
			w.StartWrite(ctx, abandoned, func(err error) {
				if !released.Load() {
					t.Errorf("the abandoned write completed with two of its three puts held: %v", err)
				}
			})
			cancel()

			stage.Store(2)
			done := make(chan error, 1)
			w.StartWrite(context.Background(), fresh, func(err error) { done <- err })
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("fresh write on the same handle: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the fresh write never completed")
			}
			for _, s := range []int32{2, 1} {
				excluded.Store(s)
				rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
				got, err := reg.NewReader().Read(rctx)
				rcancel()
				if err != nil || got != fresh {
					t.Errorf("read without server %d after the fresh write = %d, %v; want %d", s, got, err, fresh)
				}
			}
			released.Store(true)
			stage.Store(0)
			excluded.Store(-1)
			env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
		})
	}
}

// TestAbandonedWriteCannotTieTheHandlesNextRegEmuWrite is the Algorithm 2
// sibling of TestAbandonedWriteCannotTieTheHandlesNextWrite, at n = 3, k = 1,
// f = 1: one set of three registers, one per server, written by a quorum of
// two. A write is abandoned with its register write applied on server 0 only
// (the writes on servers 1 and 2 held before they take effect); the same
// handle's next write collects from servers 1 and 2 while server 0 holds
// every op of writer 0, and pushes to register 0 only — the other two are
// still covered by the abandoned write. Releasing just the held writes on
// servers 1 and 2 lets them land and re-covers both registers with the fresh
// write, which completes. A write stamped collected+1 would carry the
// abandoned write's (timestamp, writer) pair, so a read whose scan includes
// server 0 would find two values it cannot order and could return the
// abandoned one.
func TestAbandonedWriteCannotTieTheHandlesNextRegEmuWrite(t *testing.T) {
	const abandoned, fresh types.Value = 7, 8
	// Stage 1: writer 0's register writes take effect on server 0 only.
	// Stage 2: server 0 holds every op of writer 0. Readers hear nothing
	// from server `excluded` (-1: none).
	var stage, excluded atomic.Int32
	excluded.Store(-1)
	gate := fabric.GateFuncs{
		Apply: func(ev fabric.TriggerEvent) fabric.Decision {
			switch {
			case ev.Client != 0:
			case stage.Load() == 1 && ev.Server != 0 && adversary.IsMutating(ev.Inv),
				stage.Load() == 2 && ev.Server == 0:
				return fabric.Hold
			}
			return fabric.Pass
		},
		Respond: func(ev fabric.TriggerEvent, _ baseobj.Response) fabric.Decision {
			if ev.Client >= emulation.ReaderIDBase && int32(ev.Server) == excluded.Load() {
				return fabric.Hold
			}
			return fabric.Pass
		},
	}
	env, err := runner.NewEnv(3, gate)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Fabric.Close()
	reg, _, err := runner.BuildWith(runner.KindRegEmu, env.Fabric, 1, 1, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}

	stage.Store(1)
	ctx, cancel := context.WithCancel(context.Background())
	w.StartWrite(ctx, abandoned, func(err error) {
		if err == nil {
			t.Error("the abandoned write reported success with two of its three register writes held")
		}
	})
	cancel()

	stage.Store(2)
	done := make(chan error, 1)
	w.StartWrite(context.Background(), fresh, func(err error) { done <- err })
	env.Fabric.ReleaseWhere(func(op fabric.PendingOp) bool { return op.Event.Server != 0 })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fresh write on the same handle: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the fresh write never completed")
	}
	for _, s := range []int32{2, 1} {
		excluded.Store(s)
		rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
		got, err := reg.NewReader().Read(rctx)
		rcancel()
		if err != nil || got != fresh {
			t.Errorf("read without server %d after the fresh write = %d, %v; want %d", s, got, err, fresh)
		}
	}
	stage.Store(0)
	excluded.Store(-1)
	env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
}

// TestReleasedWriteCannotOverwriteItsWritersNext: a writer's write held
// before it takes effect on one server, and released there after the same
// writer's next write completed, must not erase the next write on that
// server. abd-max and abd-cas are immune by their base object (a stale
// write-max is a no-op); aac-max's cell of a writer is a plain register, so
// its store keeps one write of a writer in flight per server and the next
// waits behind it — the next write completes only once the release let the
// held one land first.
func TestReleasedWriteCannotOverwriteItsWritersNext(t *testing.T) {
	const first, next types.Value = 101, 202
	for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCASMax, runner.KindAACMax} {
		t.Run(string(kind), func(t *testing.T) {
			gate := adversary.NewScript()
			env, err := runner.NewEnv(runner.ChaosServers(kind), gate)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, hist, err := runner.BuildWith(kind, env.Fabric, 1, 1, runner.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			heldOn := func(server types.ServerID) func(fabric.TriggerEvent) bool {
				return func(ev fabric.TriggerEvent) bool {
					return ev.Client == 0 && ev.Server == server && adversary.IsMutating(ev.Inv)
				}
			}

			// The first write is held on s0 and completes from s1 and s2; the
			// next is held on s2.
			gate.SetApplyRule(heldOn(0))
			if err := w.Write(ctx, first); err != nil {
				t.Fatalf("first write: %v", err)
			}
			gate.SetApplyRule(heldOn(2))
			done := make(chan error, 1)
			w.StartWrite(ctx, next, func(err error) { done <- err })

			// The release lets the first write take effect on s0 now.
			gate.SetApplyRule(nil)
			env.Fabric.ReleaseWhere(func(op fabric.PendingOp) bool { return op.Event.Server == 0 })
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("next write: %v", err)
				}
			case <-ctx.Done():
				t.Fatal("the next write never completed")
			}

			// A read whose s1 response is held gathers s0 and s2.
			gate.SetRespondRule(func(ev fabric.TriggerEvent) bool {
				return ev.Client >= emulation.ReaderIDBase && ev.Server == 1
			})
			if got, err := reg.NewReader().Read(ctx); err != nil || got != next {
				t.Errorf("read = %d, %v; want %d", got, err, next)
			}
			if err := spec.CheckWSSafety(hist.Snapshot(), types.InitialValue); err != nil {
				t.Errorf("WS-Safety: %v", err)
			}
		})
	}
}
