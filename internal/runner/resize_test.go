package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/seed"
	"repro/internal/spec"
	"repro/internal/types"
)

// TestResizeGrowShrinkUnderLoad is the issue's acceptance bar: a live
// n=5,f=1 → n=7,f=2 grow followed by a shrink back to n=5,f=1, each one
// batched epoch bump with a construction reshape, under open client
// traffic. Zero client operations may fail — ops caught in the frozen
// window retry transparently into the re-derived quorum geometry — and the
// history must stay clean.
func TestResizeGrowShrinkUnderLoad(t *testing.T) {
	for _, lane := range []Lane{LaneInProc, LaneLatency} {
		lane := lane
		t.Run(string(lane), func(t *testing.T) {
			ctx := testCtx(t)
			var opts []fabric.Option
			if lane == LaneLatency {
				opts = append(opts, fabric.WithLanes(fabric.LatencyLanes(37, fabric.LatencyProfile{Jitter: 100 * time.Microsecond})))
			}
			env, err := NewEnv(5, nil, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, hist, err := BuildWith(KindABDMax, env.Fabric, 2, 1, BuildOpts{Atomic: true})
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, 4)
			var done atomic.Int64
			for i := 0; i < 2; i++ {
				w, err := reg.Writer(i)
				if err != nil {
					t.Fatal(err)
				}
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					for v := 1; ; v++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := w.Write(ctx, types.Value(i*1_000_000+v)); err != nil {
							errs <- fmt.Errorf("writer %d: %w", i, err)
							return
						}
						done.Add(1)
					}
				}()
				rd := reg.NewReader()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := rd.Read(ctx); err != nil {
							errs <- fmt.Errorf("reader: %w", err)
							return
						}
						done.Add(1)
					}
				}()
			}
			// Let traffic establish, then grow mid-flight.
			waitOps(t, &done, 8)
			grow, err := env.Fabric.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{nil, nil}, F: 2}, reg.Reshape)
			if err != nil {
				t.Fatalf("grow: %v", err)
			}
			if len(grow.Joined) != 2 {
				t.Fatalf("grow joined %v, want 2 servers", grow.Joined)
			}
			if grow.Duration <= 0 {
				t.Fatal("grow reported no freeze window duration")
			}
			view := env.Cluster.View()
			if view.N() != 7 || view.F != 2 {
				t.Fatalf("after grow: n=%d f=%d, want n=7 f=2", view.N(), view.F)
			}
			if reg.F() != 2 {
				t.Fatalf("register F after grow = %d, want 2", reg.F())
			}
			// Traffic must flow against the new geometry before the shrink.
			mark := done.Load()
			waitOps(t, &done, mark+8)
			shrink, err := env.Fabric.Resize(ctx, fabric.ResizeSpec{Leave: view.Members[:2], F: 1}, reg.Reshape)
			if err != nil {
				t.Fatalf("shrink: %v", err)
			}
			if shrink.Duration <= 0 {
				t.Fatal("shrink reported no freeze window duration")
			}
			view = env.Cluster.View()
			if view.N() != 5 || view.F != 1 {
				t.Fatalf("after shrink: n=%d f=%d, want n=5 f=1", view.N(), view.F)
			}
			mark = done.Load()
			waitOps(t, &done, mark+8)
			close(stop)
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatalf("client op failed during resizing: %v", err)
			default:
			}
			// Both transitions were leaves and joins, never failures.
			if c := env.Cluster.Crashes(); c != 0 {
				t.Fatalf("Crashes = %d after clean transitions, want 0", c)
			}
			ops := hist.Snapshot()
			if err := spec.CheckReadValidity(ops, types.InitialValue); err != nil {
				t.Errorf("read validity: %v", err)
			}
			for chk := 0; chk < 4; chk++ {
				sample := spec.SampleLinearizable(ops, 1024, seed.Sub(41, uint64(chk)))
				if err := spec.CheckLinearizable(sample, types.InitialValue); err != nil {
					t.Errorf("linearizability sample %d: %v", chk, err)
				}
			}
		})
	}
}

// waitOps blocks until the op counter reaches target (traffic is live).
func waitOps(t *testing.T, done *atomic.Int64, target int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for done.Load() < target {
		if time.Now().After(deadline) {
			t.Fatalf("traffic stalled at %d ops, want %d", done.Load(), target)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestResizeRegEmuFollowsTable1 is Table 1's register row in a running
// register: Algorithm 2 with k=4, f=1 is grown 3 → 5 → 7 servers and shrunk
// back to 3 under the chaos gate's holds and stale releases, with a
// write-sequential schedule running between the steps. After every step the
// register places exactly bounds.RegisterUpper(4, 1, n) registers — 12, 8,
// 6, 8, 12 — and the cluster holds no others: the old layout was retired. An
// f the members cannot host (n=3 < 2f+1=5) aborts onto the intact old view,
// which keeps serving. The history stays WS-Safe and WS-Regular.
func TestResizeRegEmuFollowsTable1(t *testing.T) {
	const k, f, runSeed = 4, 1, 7
	for _, lane := range []Lane{LaneInProc, LaneLatency} {
		t.Run(string(lane), func(t *testing.T) {
			ctx := testCtx(t)
			laneOpts, err := laneOptions(lane, nil, runSeed)
			if err != nil {
				t.Fatal(err)
			}
			chaos := adversary.NewChaos(seed.Sub(runSeed, chaosStreamGate), chaosHoldProb, f)
			gate := adversary.NewScript()
			gate.SetApplyRule(chaos.Hold)
			env, err := NewEnv(3, gate, laneOpts...)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, hist, err := BuildWith(KindRegEmu, env.Fabric, k, f, BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			schedule := rand.New(rand.NewSource(seed.Sub(runSeed, chaosStreamSchedule)))
			values := NewValueGen()
			rd := reg.NewReader()
			run := func(step string) {
				t.Helper()
				for op := 0; op < 12; op++ {
					if schedule.Float64() < 0.4 {
						if _, err := rd.Read(ctx); err != nil {
							t.Fatalf("%s: read %d: %v", step, op, err)
						}
					} else {
						i := schedule.Intn(k)
						w, err := reg.Writer(i)
						if err != nil {
							t.Fatal(err)
						}
						if err := w.Write(ctx, values.Next(types.ClientID(i))); err != nil {
							t.Fatalf("%s: write %d by %d: %v", step, op, i, err)
						}
					}
					chaos.ReleaseSome(env.Fabric, chaosReleaseProb)
				}
				n := env.Cluster.View().N()
				want, err := bounds.RegisterUpper(k, f, n)
				if err != nil {
					t.Fatal(err)
				}
				if got := reg.ResourceComplexity(); got != want {
					t.Fatalf("%s (n=%d): ResourceComplexity = %d, want RegisterUpper = %d", step, n, got, want)
				}
				if got := env.Cluster.ResourceComplexity(); got != want {
					t.Fatalf("%s (n=%d): the cluster holds %d registers, want the layout's %d", step, n, got, want)
				}
			}
			run("open")
			for _, step := range []struct {
				grow, shrink int
			}{{2, 0}, {2, 0}, {0, 2}, {0, 2}} {
				spec := fabric.ResizeSpec{Join: make([]fabric.LaneMaker, step.grow), Leave: env.Cluster.View().Members[:step.shrink]}
				if _, err := env.Fabric.Resize(ctx, spec, reg.Reshape); err != nil {
					t.Fatalf("resize %+v: %v", step, err)
				}
				run(fmt.Sprintf("resize %+v", step))
			}

			before := env.Cluster.View()
			_, err = env.Fabric.Resize(ctx, fabric.ResizeSpec{F: 2}, reg.Reshape)
			if !fabric.IsResizeAborted(err) || !errors.Is(err, bounds.ErrTooFewServers) {
				t.Fatalf("resize to f=2 on 3 servers: %v, want an abort for too few servers", err)
			}
			if after := env.Cluster.View(); after.Epoch != before.Epoch || after.F != f || !slices.Equal(after.Members, before.Members) {
				t.Fatalf("the aborted resize left view %+v, want %+v", after, before)
			}
			if reg.F() != f {
				t.Fatalf("register F after the abort = %d, want %d", reg.F(), f)
			}
			run("after the abort")
			if gate.Held() == 0 {
				t.Error("the chaos gate never held an op — the run was not under chaos")
			}
			if c := Check(hist); !c.OK() {
				t.Fatalf("WS checks: safety=%v regularity=%v", c.WSSafety, c.WSRegularity)
			}
		})
	}
}

// TestResizeTransferWindowCrashTCP is the TCP leg of the transfer-window
// crash matrix: the joiner is crashed after an object's state is sealed
// and fetched over the wire but before MoveObject lands it. The abort must
// roll the seal back — the node-hosted state keeps serving from the old
// server, no op lost or doubly applied.
func TestResizeTransferWindowCrashTCP(t *testing.T) {
	ctx := testCtx(t)
	const n = 3
	addrs, _ := startLanenodes(t, n)
	maker, _, err := lanenet.Lanes(addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(n, nil, fabric.WithLanes(maker))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Fabric.Close()
	reg, hist, err := BuildWith(KindABDMax, env.Fabric, 1, 1, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Write(ctx, types.Value(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	fired := false
	env.Fabric.HookTransition(nil, func(_ types.ObjectID, to types.ServerID) {
		if fired {
			return
		}
		fired = true
		if err := env.Fabric.Crash(to); err != nil {
			t.Errorf("crash of transfer target %d: %v", to, err)
		}
	})
	// The joiner dials its own connection into the node pool, bound to a
	// fresh table (the new session identity is the join).
	jc, err := lanenet.Dial(addrs[0], 5*time.Second, lanenet.WithTable("joiner"))
	if err != nil {
		t.Fatal(err)
	}
	jmaker := func(types.ServerID) fabric.Lane { return jc }
	_, err = env.Fabric.Resize(ctx, fabric.ResizeSpec{Join: []fabric.LaneMaker{jmaker}, Leave: []types.ServerID{0}}, nil)
	if !fabric.IsResizeAborted(err) {
		t.Fatalf("resize returned %v, want ErrResizeAborted", err)
	}
	if !fired {
		t.Fatal("beforeMove hook never fired")
	}
	if c := env.Cluster.Crashes(); c != 1 {
		t.Fatalf("Crashes = %d, want 1 (only the injected crash)", c)
	}
	// Server 0 returned to service with its node-hosted state intact.
	srv, err := env.Cluster.Server(0)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Departing() {
		t.Fatal("server 0 still departing after abort")
	}
	if v, err := reg.NewReader().Read(ctx); err != nil || v != 5 {
		t.Fatalf("read after abort = %d, %v; want 5", v, err)
	}
	for i := 6; i <= 8; i++ {
		if err := w.Write(ctx, types.Value(i)); err != nil {
			t.Fatalf("write %d after abort: %v", i, err)
		}
	}
	if v, err := reg.NewReader().Read(ctx); err != nil || v != 8 {
		t.Fatalf("read after post-abort writes = %d, %v; want 8", v, err)
	}
	if c := Check(hist); !c.OK() {
		t.Fatalf("checks after aborted TCP transfer: %+v", c)
	}
}
