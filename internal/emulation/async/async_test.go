package async_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/emulation"
	"repro/internal/emulation/async"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/types"
)

// testProfile is a small latency profile: enough to overlap thousands of
// ops, small enough to keep tests fast.
var testProfile = fabric.LatencyProfile{
	Base:   200 * time.Microsecond,
	Jitter: 300 * time.Microsecond,
}

// buildEnv builds a construction on the chosen lane.
func buildEnv(t *testing.T, kind runner.Kind, k, f, n int, opts ...fabric.Option) (emulation.Register, *spec.History) {
	t.Helper()
	env, err := runner.NewEnv(n, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reg, hist, err := runner.BuildWith(kind, env.Fabric, k, f, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return reg, hist
}

func drain(t *testing.T, eng *async.Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestAsyncAllConstructions pushes a closed-loop read/write mix through
// every construction on the latency lane: completions arrive on timer
// goroutines, thousands of ops stay in flight, and the sampled history must
// linearize. Run under -race in CI.
func TestAsyncAllConstructions(t *testing.T) {
	for _, kind := range runner.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			const (
				k, f      = 4, 1
				writers   = 4
				readers   = 8
				opsPerCli = 40
			)
			n := runner.ChaosServers(kind)
			reg, hist := buildEnv(t, kind, k, f, n, fabric.WithLanes(fabric.LatencyLanes(42, testProfile)))
			eng := async.NewDetached()
			defer eng.Close()

			var wrote atomic.Int64
			var failed atomic.Int64
			var issueW func(c *async.Client, left int)
			issueW = func(c *async.Client, left int) {
				if left == 0 {
					return
				}
				c.StartWrite(types.Value(wrote.Add(1)), func(err error) {
					if err != nil {
						failed.Add(1)
						t.Errorf("%s: write: %v", kind, err)
						return
					}
					issueW(c, left-1)
				})
			}
			var issueR func(c *async.Client, left int)
			issueR = func(c *async.Client, left int) {
				if left == 0 {
					return
				}
				c.StartRead(func(_ types.Value, err error) {
					if err != nil {
						failed.Add(1)
						t.Errorf("%s: read: %v", kind, err)
						return
					}
					issueR(c, left-1)
				})
			}
			for i := 0; i < writers; i++ {
				c, err := eng.WriterOn(reg, i)
				if err != nil {
					t.Fatal(err)
				}
				issueW(c, opsPerCli)
			}
			for i := 0; i < readers; i++ {
				issueR(eng.ReaderOn(reg), opsPerCli)
			}
			drain(t, eng)
			st := eng.Stats()
			wantOps := int64((writers + readers) * opsPerCli)
			if st.Completed != wantOps || st.Failed != 0 {
				t.Fatalf("stats = %+v, want %d completed", st, wantOps)
			}
			ops := hist.Snapshot()
			if err := spec.CheckReadValidity(ops, types.InitialValue); err != nil {
				t.Fatalf("%s: read validity: %v", kind, err)
			}
		})
	}
}

// TestAsyncAtomicLinearizable drives the atomic (read write-back) builds
// concurrently through the engine and checks sampled linearizability: the
// regular builds may exhibit new-old read inversions under concurrency
// (regularity allows them), but the atomic protocol must linearize.
func TestAsyncAtomicLinearizable(t *testing.T) {
	for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCASMax} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			env, err := runner.NewEnv(3, nil, fabric.WithLanes(fabric.LatencyLanes(21, testProfile)))
			if err != nil {
				t.Fatal(err)
			}
			reg, hist, err := runner.BuildWith(kind, env.Fabric, 4, 1, runner.BuildOpts{Atomic: true})
			if err != nil {
				t.Fatal(err)
			}
			eng := async.NewDetached()
			defer eng.Close()
			var val atomic.Int64
			var issue func(c *async.Client, write bool, left int)
			issue = func(c *async.Client, write bool, left int) {
				if left == 0 {
					return
				}
				next := func(err error) {
					if err != nil {
						t.Errorf("%s: %v", kind, err)
						return
					}
					issue(c, write, left-1)
				}
				if write {
					c.StartWrite(types.Value(val.Add(1)), next)
				} else {
					c.StartRead(func(_ types.Value, err error) { next(err) })
				}
			}
			for i := 0; i < 4; i++ {
				c, err := eng.WriterOn(reg, i)
				if err != nil {
					t.Fatal(err)
				}
				issue(c, true, 30)
			}
			for i := 0; i < 6; i++ {
				issue(eng.ReaderOn(reg), false, 30)
			}
			drain(t, eng)
			ops := hist.Snapshot()
			if err := spec.CheckReadValidity(ops, types.InitialValue); err != nil {
				t.Fatalf("%s: read validity: %v", kind, err)
			}
			for seed := int64(0); seed < 8; seed++ {
				sample := spec.SampleLinearizable(ops, 48, seed)
				if err := spec.CheckLinearizable(sample, types.InitialValue); err != nil {
					t.Fatalf("%s: sampled linearizability (seed %d, %d ops): %v", kind, seed, len(sample), err)
				}
			}
		})
	}
}

// TestAsyncThousandInFlight is the subsystem's concurrency claim: one
// engine goroutine holds >= 1000 high-level ops in flight across >= 1000
// logical clients, closed-loop, with every op completing. The claim is about
// the engine, not about how fast the box starts a thousand rounds: a respond
// gate holds every response until the engine reports all thousand first ops
// in flight, then lets everything through.
func TestAsyncThousandInFlight(t *testing.T) {
	const (
		writers = 500
		readers = 500
		rounds  = 3
	)
	var open atomic.Bool
	gate := fabric.GateFuncs{Respond: func(fabric.TriggerEvent, baseobj.Response) fabric.Decision {
		if open.Load() {
			return fabric.Pass
		}
		return fabric.Hold
	}}
	env, err := runner.NewEnv(3, gate, fabric.WithLanes(fabric.LatencyLanes(7, testProfile)))
	if err != nil {
		t.Fatal(err)
	}
	reg, hist, err := runner.BuildWith(runner.KindABDMax, env.Fabric, writers, 1, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	eng := async.NewDetached()
	defer eng.Close()

	var val atomic.Int64
	var spin func(c *async.Client, write bool, left int)
	spin = func(c *async.Client, write bool, left int) {
		if left == 0 {
			return
		}
		if write {
			c.StartWrite(types.Value(val.Add(1)), func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
				spin(c, write, left-1)
			})
		} else {
			c.StartRead(func(_ types.Value, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				spin(c, write, left-1)
			})
		}
	}
	for i := 0; i < writers; i++ {
		c, err := eng.WriterOn(reg, i)
		if err != nil {
			t.Fatal(err)
		}
		spin(c, true, rounds)
	}
	for i := 0; i < readers; i++ {
		spin(eng.ReaderOn(reg), false, rounds)
	}
	want := int64((writers + readers) * rounds)
	// Released repeatedly: an op the gate decided to hold just before it
	// opened may park just after a release pass.
	deadline := time.Now().Add(30 * time.Second)
	for st := eng.Stats(); st.Completed+st.Failed < want; st = eng.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %+v", st)
		}
		if st.InFlight == writers+readers {
			open.Store(true)
		}
		if open.Load() {
			env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
		}
		time.Sleep(100 * time.Microsecond)
	}
	drain(t, eng)
	st := eng.Stats()
	if st.Completed != want {
		t.Fatalf("completed %d ops, want %d (stats %+v)", st.Completed, want, st)
	}
	if st.MaxInFlight < writers+readers {
		t.Fatalf("peak in-flight = %d, want >= %d", st.MaxInFlight, writers+readers)
	}
	if got := hist.Len(); got != (writers+readers)*rounds {
		t.Fatalf("history recorded %d ops, want %d", got, (writers+readers)*rounds)
	}
}

// TestAsyncPerClientSerialization back-pressures one client with bursts of
// queued writes: completions must fire in issue order and the recorded ops
// of the client must never overlap (the paper's well-formed histories). The
// engine drains between bursts, so the client's queue empties, rewinds and
// fills again, and the mailbox swaps its two buffers many times over.
func TestAsyncPerClientSerialization(t *testing.T) {
	const waves, burst = 3, 50
	reg, hist := buildEnv(t, runner.KindRegEmu, 2, 1, 4,
		fabric.WithLanes(fabric.LatencyLanes(3, testProfile)))
	eng := async.NewDetached()
	defer eng.Close()
	c, err := eng.WriterOn(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, waves*burst)
	for i := 0; i < waves*burst; i++ {
		i := i
		c.StartWrite(types.Value(i+1), func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			order <- i
		})
		if (i+1)%burst == 0 {
			drain(t, eng)
		}
	}
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("completion order: got op %d, want %d", got, want)
		}
		want++
	}
	ops := hist.Snapshot()
	if len(ops) != waves*burst {
		t.Fatalf("history has %d ops, want %d", len(ops), waves*burst)
	}
	for i := 1; i < len(ops); i++ {
		if !ops[i-1].Precedes(ops[i]) {
			t.Fatalf("client ops overlap: %v then %v", ops[i-1], ops[i])
		}
	}
}

// TestAsyncCloseFailsInFlight holds every low-level op at the gate, issues
// work, closes the engine, and demands every callback fires exactly once
// with ErrClosed — then releases the held ops and checks the late
// completions are dropped without panics or double fires.
func TestAsyncCloseFailsInFlight(t *testing.T) {
	gate := fabric.GateFuncs{Apply: func(fabric.TriggerEvent) fabric.Decision { return fabric.Hold }}
	env, err := runner.NewEnv(3, gate)
	if err != nil {
		t.Fatal(err)
	}
	reg, _, err := runner.BuildWith(runner.KindABDMax, env.Fabric, 2, 1, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	eng := async.NewDetached()
	var fired atomic.Int64
	const ops = 20
	c, err := eng.WriterOn(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		c.StartWrite(types.Value(i+1), func(err error) {
			if !errors.Is(err, async.ErrClosed) {
				t.Errorf("held write completed with %v, want ErrClosed", err)
			}
			fired.Add(1)
		})
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != ops {
		t.Fatalf("%d callbacks fired on close, want %d", got, ops)
	}
	// Late releases complete the construction chains into the closed
	// engine's mailbox: they must be dropped silently.
	env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
	if got := fired.Load(); got != ops {
		t.Fatalf("late releases re-fired callbacks: %d, want %d", got, ops)
	}
	// New work after close fails immediately.
	c.StartWrite(99, func(err error) {
		if !errors.Is(err, async.ErrClosed) {
			t.Errorf("post-close write: %v, want ErrClosed", err)
		}
		fired.Add(1)
	})
	if got := fired.Load(); got != ops+1 {
		t.Fatalf("post-close write did not fail inline (fired=%d)", got)
	}
}

// TestAsyncCrashDuringInFlight crashes f servers while a thousand ops are
// in flight: quorums over the survivors must still complete every op.
func TestAsyncCrashDuringInFlight(t *testing.T) {
	const clients = 200
	env, err := runner.NewEnv(5, nil, fabric.WithLanes(fabric.LatencyLanes(11, fabric.LatencyProfile{Base: time.Millisecond, Jitter: time.Millisecond})))
	if err != nil {
		t.Fatal(err)
	}
	reg, hist, err := runner.BuildWith(runner.KindABDMax, env.Fabric, clients, 2, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	eng := async.NewDetached()
	defer eng.Close()
	for i := 0; i < clients; i++ {
		c, err := eng.WriterOn(reg, i)
		if err != nil {
			t.Fatal(err)
		}
		v := types.Value(i + 1)
		c.StartWrite(v, func(err error) {
			if err != nil {
				t.Errorf("write during crash: %v", err)
			}
		})
	}
	// Crash f=2 of the 5 servers while the ops are on the wire.
	if err := env.Fabric.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := env.Fabric.Crash(3); err != nil {
		t.Fatal(err)
	}
	drain(t, eng)
	st := eng.Stats()
	if st.Completed != clients || st.Failed != 0 {
		t.Fatalf("stats after crash = %+v, want %d completed", st, clients)
	}
	if got := hist.Len(); got != clients {
		t.Fatalf("history recorded %d ops, want %d", got, clients)
	}
}

// TestAsyncContextCancellation closes the engine through its context.
func TestAsyncContextCancellation(t *testing.T) {
	gate := fabric.GateFuncs{Apply: func(fabric.TriggerEvent) fabric.Decision { return fabric.Hold }}
	env, err := runner.NewEnv(3, gate)
	if err != nil {
		t.Fatal(err)
	}
	reg, _, err := runner.BuildWith(runner.KindCASMax, env.Fabric, 2, 1, runner.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	eng := async.NewDetached(async.WithContext(ctx))
	c, err := eng.WriterOn(reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	failed := make(chan error, 1)
	c.StartWrite(7, func(err error) { failed <- err })
	cancel()
	select {
	case err := <-failed:
		if !errors.Is(err, async.ErrClosed) {
			t.Fatalf("cancelled write error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("context cancellation did not fail the in-flight write")
	}
	if err := eng.Drain(context.Background()); !errors.Is(err, async.ErrClosed) {
		t.Fatalf("drain after cancel = %v, want ErrClosed", err)
	}
}

// TestAsyncWriterReaderMisuse checks the loud failures for role mix-ups.
func TestAsyncWriterReaderMisuse(t *testing.T) {
	reg, _ := buildEnv(t, runner.KindNaive, 2, 1, 3)
	eng := async.NewDetached()
	defer eng.Close()
	w, err := eng.WriterOn(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := startReadErr(w); err == nil {
		t.Fatal("StartRead on a writer client succeeded")
	}
	r := eng.ReaderOn(reg)
	if err := startWriteErr(r); err == nil {
		t.Fatal("StartWrite on a reader client succeeded")
	}
	// Writer(i) is stable: the same client comes back.
	w2, err := eng.WriterOn(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w != w2 {
		t.Fatal("Writer(0) returned distinct clients for one underlying writer")
	}
}

// TestAsyncWriterOneDriver: a writer handle has one driver across engines
// too. Every construction hands out the same handle for writer i, the first
// engine to drive it claims it, and another engine asking for the same
// writer is refused rather than handed a second driver of one writer's
// state — while the first engine still gets its own client back.
func TestAsyncWriterOneDriver(t *testing.T) {
	for _, kind := range []runner.Kind{runner.KindABDMax, runner.KindCoded, runner.KindRegEmu} {
		t.Run(string(kind), func(t *testing.T) {
			reg, _ := buildEnv(t, kind, 2, 1, runner.ChaosServers(kind))
			a, b := async.NewDetached(), async.NewDetached()
			defer a.Close()
			defer b.Close()
			w, err := a.WriterOn(reg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.WriterOn(reg, 1); err == nil {
				t.Fatal("a second engine got a client for a claimed writer")
			}
			if again, err := a.WriterOn(reg, 1); err != nil || again != w {
				t.Fatalf("the claiming engine's repeat: %p, %v; want its client %p", again, err, w)
			}
			if _, err := b.WriterOn(reg, 0); err != nil {
				t.Fatalf("another writer on the second engine: %v", err)
			}
		})
	}
}

func startReadErr(c *async.Client) error {
	ch := make(chan error, 1)
	c.StartRead(func(_ types.Value, err error) { ch <- err })
	select {
	case err := <-ch:
		return err
	case <-time.After(time.Second):
		return nil
	}
}

func startWriteErr(c *async.Client) error {
	ch := make(chan error, 1)
	c.StartWrite(1, func(err error) { ch <- err })
	select {
	case err := <-ch:
		return err
	case <-time.After(time.Second):
		return nil
	}
}

// TestAsyncCloseDuringSelfSustainingLoop is the shutdown-livelock
// regression test: on the synchronous in-process lane a client that
// unconditionally reissues from its completion callback keeps the mailbox
// non-empty forever, so the engine loop must re-check its context inside
// the drain or Close would never return.
func TestAsyncCloseDuringSelfSustainingLoop(t *testing.T) {
	reg, _ := buildEnv(t, runner.KindABDMax, 1, 1, 3)
	eng := async.NewDetached()
	w, err := eng.WriterOn(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v atomic.Int64
	var issue func(err error)
	issue = func(err error) {
		// Reissue unconditionally — even after the engine reports
		// ErrClosed, which fails inline without re-entering the loop.
		if err == nil {
			w.StartWrite(types.Value(v.Add(1)), issue)
		}
	}
	issue(nil)
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung against a self-sustaining closed loop")
	}
}
