// Benchmark harness: one benchmark family per table and figure of the
// paper (see EXPERIMENTS.md for the mapping and the recorded results).
//
// Space results are reported as custom metrics (objects, covered,
// objects/writer) next to the usual time/op, because the paper's subject is
// space, not latency. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/casmax"
	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/layout"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/types"
)

// benchParams is the (k, f, n) grid shared by the Table 1 benches.
var benchParams = []struct{ k, f, n int }{
	{2, 1, 3}, {4, 1, 3}, {4, 1, 6},
	{4, 2, 6}, {8, 2, 6}, {4, 2, 8},
	{6, 3, 10},
}

// BenchmarkTable1MaxRegister regenerates Table 1's max-register row
// (experiment E1): 2f+1 objects for every k and n, safe under the covering
// adversary.
func BenchmarkTable1MaxRegister(b *testing.B) {
	benchTable1Row(b, runner.KindABDMax)
}

// BenchmarkTable1CAS regenerates Table 1's CAS row (experiment E2).
func BenchmarkTable1CAS(b *testing.B) {
	benchTable1Row(b, runner.KindCASMax)
}

// BenchmarkTable1Register regenerates Table 1's register row (experiment
// E3): space grows with k, shrinks with n, within [lower, upper].
func BenchmarkTable1Register(b *testing.B) {
	benchTable1Row(b, runner.KindRegEmu)
}

// benchTable1Row runs the covering experiment for one construction across
// the parameter grid.
func benchTable1Row(b *testing.B, kind runner.Kind) {
	for _, p := range benchParams {
		p := p
		b.Run(fmt.Sprintf("k=%d/f=%d/n=%d", p.k, p.f, p.n), func(b *testing.B) {
			ctx := context.Background()
			var rep *runner.CoveringReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = runner.RunCovering(ctx, kind, p.k, p.f, p.n)
				if err != nil {
					b.Fatalf("RunCovering: %v", err)
				}
				if !rep.Checks.OK() {
					b.Fatalf("run unsafe: %+v", rep.Checks)
				}
			}
			b.ReportMetric(float64(rep.Resources), "objects")
			b.ReportMetric(float64(rep.TotalCovered), "covered")
			b.ReportMetric(float64(rep.Resources)/float64(p.k), "objects/writer")
		})
	}
}

// BenchmarkFigure1Layout regenerates the Figure 1 register-to-server layout
// at the paper's exact parameters n=6, k=5, f=2 (experiment E4).
func BenchmarkFigure1Layout(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		plan, err := layout.NewPlan(5, 2, 6)
		if err != nil {
			b.Fatalf("NewPlan: %v", err)
		}
		if err := plan.Verify(); err != nil {
			b.Fatalf("Verify: %v", err)
		}
		total = plan.TotalRegisters()
	}
	b.ReportMetric(float64(total), "objects")
}

// BenchmarkFigure2Covering regenerates the Lemma 1 covering run (experiment
// E5): k*f registers end up covered, none on the protected set.
func BenchmarkFigure2Covering(b *testing.B) {
	ctx := context.Background()
	var rep *runner.CoveringReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = runner.RunCovering(ctx, runner.KindRegEmu, 5, 2, 6)
		if err != nil {
			b.Fatalf("RunCovering: %v", err)
		}
		if rep.TotalCovered < rep.CoveringLowerBound || rep.CoveredOnF != 0 {
			b.Fatalf("covering shape broken: %+v", rep)
		}
	}
	b.ReportMetric(float64(rep.TotalCovered), "covered")
}

// BenchmarkSeparationAttack regenerates the Theorem 1 separation
// (experiment E6): the stale-release schedule breaks the naive baseline and
// spares max-register/CAS.
func BenchmarkSeparationAttack(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		sep, err := runner.RunSeparation(ctx, 2)
		if err != nil {
			b.Fatalf("RunSeparation: %v", err)
		}
		for _, rep := range sep.Reports {
			violated := rep.Violated()
			if (rep.Kind == runner.KindNaive) != violated {
				b.Fatalf("%s: violated=%v, unexpected", rep.Kind, violated)
			}
		}
	}
}

// BenchmarkTheorem8Adaptivity regenerates the point-contention experiment
// (E10): consumption grows with k at contention 1.
func BenchmarkTheorem8Adaptivity(b *testing.B) {
	ctx := context.Background()
	for _, k := range []int{2, 4, 8} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var used int
			for i := 0; i < b.N; i++ {
				rep, err := runner.RunCovering(ctx, runner.KindRegEmu, k, 2, 6)
				if err != nil {
					b.Fatalf("RunCovering: %v", err)
				}
				used = rep.UsedObjects
			}
			b.ReportMetric(float64(used), "used_objects")
			b.ReportMetric(1, "point_contention")
		})
	}
}

// BenchmarkCASMaxRetries regenerates the Algorithm 1 time-complexity
// tradeoff (experiment E11): write-max retries per op under rising
// contention, with response latency modeled by the yield gate.
func BenchmarkCASMaxRetries(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8} {
		writers := writers
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			ctx := context.Background()
			c, err := cluster.New(3)
			if err != nil {
				b.Fatalf("cluster: %v", err)
			}
			c.SetF(1)
			fab := fabric.New(c, fabric.WithGate(&fabric.YieldGate{}))
			reg, metrics, err := casmax.New(fab, writers, emulation.Options{})
			if err != nil {
				b.Fatalf("casmax: %v", err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			// Split b.N across the writers so total work stays ~b.N and
			// per-op numbers are comparable across the writers axis.
			perWriter := b.N / writers
			if perWriter == 0 {
				perWriter = 1
			}
			for w := 0; w < writers; w++ {
				wr, err := reg.Writer(w)
				if err != nil {
					b.Fatalf("writer: %v", err)
				}
				wg.Add(1)
				go func(w int, wr interface {
					Write(context.Context, types.Value) error
				}) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						if err := wr.Write(ctx, types.Value(w<<40|i)); err != nil {
							panic(err)
						}
					}
				}(w, wr)
			}
			wg.Wait()
			b.StopTimer()
			calls := metrics.WriteMaxCalls.Load()
			if calls > 0 {
				b.ReportMetric(float64(metrics.Retries())/float64(calls), "retries/writemax")
			}
		})
	}
}

// BenchmarkWriteLatency measures the high-level write cost per construction
// on a benign fabric — the time side of the space/time tradeoffs.
func BenchmarkWriteLatency(b *testing.B) {
	for _, kind := range []runner.Kind{runner.KindRegEmu, runner.KindABDMax, runner.KindCASMax, runner.KindAACMax} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			ctx := context.Background()
			env, err := runner.NewEnv(6, nil)
			if err != nil {
				b.Fatalf("env: %v", err)
			}
			k, f := 4, 2
			if kind == runner.KindAACMax {
				// aacmax is the n = 2f+1 special case.
				env, err = runner.NewEnv(5, nil)
				if err != nil {
					b.Fatalf("env: %v", err)
				}
			}
			reg, _, err := runner.BuildWith(kind, env.Fabric, k, f, runner.BuildOpts{})
			if err != nil {
				b.Fatalf("build: %v", err)
			}
			w, err := reg.Writer(0)
			if err != nil {
				b.Fatalf("writer: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Write(ctx, types.Value(i+1)); err != nil {
					b.Fatalf("write: %v", err)
				}
			}
			b.ReportMetric(float64(reg.ResourceComplexity()), "objects")
		})
	}
}

// BenchmarkReadLatency measures the high-level read cost per construction:
// Algorithm 2's reads scan every register, so its read cost grows with k —
// the latency price of the space-optimal layout (ablation for DESIGN.md).
func BenchmarkReadLatency(b *testing.B) {
	for _, kind := range []runner.Kind{runner.KindRegEmu, runner.KindABDMax, runner.KindCASMax} {
		for _, k := range []int{2, 8} {
			kind, k := kind, k
			b.Run(fmt.Sprintf("%s/k=%d", kind, k), func(b *testing.B) {
				ctx := context.Background()
				env, err := runner.NewEnv(6, nil)
				if err != nil {
					b.Fatalf("env: %v", err)
				}
				reg, _, err := runner.BuildWith(kind, env.Fabric, k, 2, runner.BuildOpts{})
				if err != nil {
					b.Fatalf("build: %v", err)
				}
				w, err := reg.Writer(0)
				if err != nil {
					b.Fatalf("writer: %v", err)
				}
				if err := w.Write(ctx, 7); err != nil {
					b.Fatalf("write: %v", err)
				}
				rd := reg.NewReader()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rd.Read(ctx); err != nil {
						b.Fatalf("read: %v", err)
					}
				}
				b.ReportMetric(float64(reg.ResourceComplexity()), "objects")
			})
		}
	}
}

// BenchmarkExhaustiveSearch measures the sequential bounded model-checking
// sweep (experiment E13): all 208 f=1 adversary schedules against
// Algorithm 2 on one worker — the baseline the parallel engine is measured
// against.
func BenchmarkExhaustiveSearch(b *testing.B) {
	ctx := context.Background()
	var schedules int
	for i := 0; i < b.N; i++ {
		rep, err := runner.RunExhaustive(ctx, runner.KindRegEmu, runner.ExhaustOptions{F: 1, Workers: 1})
		if err != nil {
			b.Fatalf("RunExhaustive: %v", err)
		}
		if rep.Violations != 0 {
			b.Fatalf("violations: %d", rep.Violations)
		}
		schedules = rep.Schedules
	}
	b.ReportMetric(float64(schedules), "schedules")
}

// BenchmarkExhaustiveParallel measures the sweep engine fanning the f=1
// class across the worker pool (experiment E13). The workers=8 case is the
// PR acceptance number: >= 4x wall-clock over workers=1 on multi-core
// hardware. schedules/sec is the throughput the pool sustains.
func BenchmarkExhaustiveParallel(b *testing.B) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var schedules int
			for i := 0; i < b.N; i++ {
				rep, err := runner.RunExhaustive(ctx, runner.KindRegEmu, runner.ExhaustOptions{F: 1, Workers: workers})
				if err != nil {
					b.Fatalf("RunExhaustive: %v", err)
				}
				if rep.Violations != 0 {
					b.Fatalf("violations: %d", rep.Violations)
				}
				schedules = rep.Schedules
			}
			b.ReportMetric(float64(schedules)*float64(b.N)/b.Elapsed().Seconds(), "schedules/sec")
		})
	}
}

// BenchmarkExhaustiveF2 measures one pooled pass over the full f=2 class
// (48256 schedules, n=5) — the sweep the parallel engine grew the search
// to.
func BenchmarkExhaustiveF2(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := runner.RunExhaustive(ctx, runner.KindRegEmu, runner.ExhaustOptions{F: 2})
		if err != nil {
			b.Fatalf("RunExhaustive: %v", err)
		}
		if rep.Violations != 0 {
			b.Fatalf("violations: %d", rep.Violations)
		}
		b.ReportMetric(float64(rep.Schedules)/rep.Elapsed.Seconds(), "schedules/sec")
	}
}

// BenchmarkChaosRun measures one seeded chaos run (experiment E15).
func BenchmarkChaosRun(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := runner.RunChaos(ctx, runner.ChaosConfig{
			Kind: runner.KindRegEmu, K: 3, F: 2, N: 7, Ops: 25, Seed: int64(i),
		})
		if err != nil {
			b.Fatalf("RunChaos: %v", err)
		}
		if !rep.Checks.OK() {
			b.Fatalf("seed %d unsafe: %+v", i, rep.Checks)
		}
	}
}

// BenchmarkTheorem5Partition measures the n = 2f partition demonstration
// (experiment E14).
func BenchmarkTheorem5Partition(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := runner.RunTheorem5(ctx, 2)
		if err != nil {
			b.Fatalf("RunTheorem5: %v", err)
		}
		if rep.SafetyViolation == nil {
			b.Fatal("partition did not violate")
		}
	}
}

// BenchmarkCheckers measures the consistency checkers on a fixed-size
// generated history: they run after every experiment, so their cost caps
// experiment throughput.
func BenchmarkCheckers(b *testing.B) {
	env, err := runner.NewEnv(6, nil)
	if err != nil {
		b.Fatalf("env: %v", err)
	}
	reg, hist, err := runner.BuildWith(runner.KindRegEmu, env.Fabric, 4, 2, runner.BuildOpts{})
	if err != nil {
		b.Fatalf("build: %v", err)
	}
	ctx := context.Background()
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			w, err := reg.Writer(i)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Write(ctx, types.Value(round*10+i+1)); err != nil {
				b.Fatal(err)
			}
			if _, err := reg.NewReader().Read(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := runner.Check(hist); !c.OK() {
			b.Fatalf("history unsafe: %+v", c)
		}
	}
	b.ReportMetric(float64(hist.Len()), "history_ops")
}

// BenchmarkCheckLinearizable measures the atomicity checker alone on
// generated histories of growing size: the Wing–Gong search with
// precomputed precedence masks and a pooled memo map. Every sweep schedule
// pays one checker pass, so this is the per-schedule cost floor.
func BenchmarkCheckLinearizable(b *testing.B) {
	for _, rounds := range []int{2, 5, 10} {
		rounds := rounds
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			env, err := runner.NewEnv(6, nil)
			if err != nil {
				b.Fatalf("env: %v", err)
			}
			reg, hist, err := runner.BuildWith(runner.KindRegEmu, env.Fabric, 2, 2, runner.BuildOpts{})
			if err != nil {
				b.Fatalf("build: %v", err)
			}
			ctx := context.Background()
			for round := 0; round < rounds; round++ {
				for i := 0; i < 2; i++ {
					w, err := reg.Writer(i)
					if err != nil {
						b.Fatal(err)
					}
					if err := w.Write(ctx, types.Value(round*10+i+1)); err != nil {
						b.Fatal(err)
					}
					if _, err := reg.NewReader().Read(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			ops := hist.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := spec.CheckLinearizable(ops, types.InitialValue); err != nil {
					b.Fatalf("not linearizable: %v", err)
				}
			}
			b.ReportMetric(float64(len(ops)), "history_ops")
		})
	}
}

// BenchmarkFabricParallelTrigger measures raw fabric dispatch throughput —
// triggers/sec through the benign gate with concurrent clients spread
// across per-server objects. This is the hot path the per-server dispatch
// lanes shard; the goroutines=8 case is the PR acceptance number (≥2x over
// the single-global-mutex fabric).
func BenchmarkFabricParallelTrigger(b *testing.B) {
	const servers = 8
	for _, par := range []int{1, 8, 32} {
		par := par
		b.Run(fmt.Sprintf("goroutines=%dxGOMAXPROCS", par), func(b *testing.B) {
			c, err := cluster.New(servers)
			if err != nil {
				b.Fatalf("cluster: %v", err)
			}
			objs := make([]types.ObjectID, servers)
			for s := 0; s < servers; s++ {
				obj, err := c.PlaceRegister(types.ServerID(s), baseobj.WriterRange{})
				if err != nil {
					b.Fatalf("place: %v", err)
				}
				objs[s] = obj
			}
			fab := fabric.New(c)
			var nextClient atomic.Int64
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := types.ClientID(nextClient.Add(1))
				obj := objs[int(client)%len(objs)]
				// One recycled one-op group per goroutine: the in-process
				// lane completes and releases it inside TriggerBatch.
				var failed error
				released := 0
				g := &fabric.Group{
					Ops:      make([]fabric.BatchOp, 1),
					Done:     func(_ int, o *fabric.Outcome) { failed = o.Err },
					Released: func() { released++ },
				}
				i := 0
				for pb.Next() {
					i++
					g.Ops[0] = fabric.BatchOp{Object: obj, Inv: baseobj.Invocation{
						Op:  baseobj.OpWrite,
						Arg: types.TSValue{TS: uint64(i), Writer: client},
					}}
					fab.TriggerBatch(client, g)
					if failed != nil || released != i {
						b.Fatalf("trigger %d: %v, %d releases", i, failed, released)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triggers/sec")
		})
	}
}

// oneOpGroups returns n recycled one-op groups on a free list, every
// completion landing in done: a group goes back on the list when the fabric
// releases it, so taking one waits while all n are in flight.
func oneOpGroups(n int, done func(int, *fabric.Outcome)) chan *fabric.Group {
	free := make(chan *fabric.Group, n)
	for i := 0; i < n; i++ {
		g := &fabric.Group{Ops: make([]fabric.BatchOp, 1), Done: done}
		g.Released = func() { free <- g }
		free <- g
	}
	return free
}

// BenchmarkObjectTablePlace is the cold-path rung of the cost ladder: placing
// a shard's base objects into the cluster's object table and looking each up
// once through the fabric — what a store's set-up pays per base object — as
// cost per object (time and allocated bytes). Flat ns/object and B/object
// across the three sizes — two chunks, about the benchmark store's shard, and
// a shard an order of magnitude past it — is the O(1) slot store of the
// chunked table; the fabric's share of the bytes is zero (it keeps no
// placement of its own, so there is nothing to resolve, and nothing to
// re-resolve after a view change).
func BenchmarkObjectTablePlace(b *testing.B) {
	for _, size := range []struct {
		name    string
		objects int
	}{{"1k", 1 << 10}, {"16k", 16 << 10}, {"128k", 128 << 10}} {
		b.Run("objects="+size.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(3)
				if err != nil {
					b.Fatalf("cluster: %v", err)
				}
				fab := fabric.New(c)
				for o := 0; o < size.objects; o++ {
					obj, err := c.PlaceMaxRegister(types.ServerID(o % 3))
					if err != nil {
						b.Fatalf("place: %v", err)
					}
					if _, err := fab.ServerFor(obj); err != nil {
						b.Fatalf("ServerFor(%d): %v", obj, err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			placed := float64(b.N) * float64(size.objects)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/placed, "ns/object")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/placed, "B/object")
			b.ReportMetric(float64(size.objects), "objects")
		})
	}
}

// BenchmarkResizeTransition measures the freeze-to-activate wall-clock of
// batched view transitions per membership delta (experiment E27's timing
// axis): a live atomic abd-max register at n=5, f=1 is grown or swapped, and
// the forward transition's ResizeResult.Duration — the window concurrent
// clients retry through — is reported as ns/transition. A grow is undone by
// an unmeasured shrink so every iteration starts from n=5. No client load
// runs: this is the floor cost of the transition itself (freeze, drain, a
// grow's reshape seeding or a swap's transfer, activation).
func BenchmarkResizeTransition(b *testing.B) {
	for _, d := range []struct {
		name          string
		joins, leaves int
	}{{"join1", 1, 0}, {"join2", 2, 0}, {"swap1", 1, 1}, {"swap2", 2, 2}} {
		b.Run(d.name, func(b *testing.B) {
			ctx := context.Background()
			env, err := runner.NewEnv(5, nil)
			if err != nil {
				b.Fatalf("env: %v", err)
			}
			defer env.Fabric.Close()
			reg, _, err := runner.BuildWith(runner.KindABDMax, env.Fabric, 1, 1, runner.BuildOpts{Atomic: true})
			if err != nil {
				b.Fatalf("build: %v", err)
			}
			w, err := reg.Writer(0)
			if err != nil {
				b.Fatalf("writer: %v", err)
			}
			if err := w.Write(ctx, 7); err != nil {
				b.Fatalf("seeding write: %v", err)
			}
			var frozen time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := fabric.ResizeSpec{
					Join:  make([]fabric.LaneMaker, d.joins),
					Leave: env.Cluster.View().Members[:d.leaves],
				}
				res, err := env.Fabric.Resize(ctx, spec, reg.Reshape)
				if err != nil {
					b.Fatalf("transition %d: %v", i, err)
				}
				frozen += res.Duration
				if d.joins > d.leaves {
					if _, err := env.Fabric.Resize(ctx, fabric.ResizeSpec{Leave: res.Joined}, reg.Reshape); err != nil {
						b.Fatalf("restore %d: %v", i, err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(frozen.Nanoseconds())/float64(b.N), "ns/transition")
		})
	}
}

// BenchmarkFabricLaneTrigger measures trigger-to-completion throughput on
// the in-process lane vs the latency lane, side by side: the price of real
// asynchrony (timer dispatch, cross-goroutine completion) relative to the
// synchronous hot path. Each goroutine triggers on 256 recycled one-op
// groups, so the latency lane's in-flight population stays bounded.
func BenchmarkFabricLaneTrigger(b *testing.B) {
	const servers = 8
	lanes := []struct {
		name  string
		maker fabric.LaneMaker
	}{
		{"inproc", nil},
		{"latency", fabric.LatencyLanes(1, fabric.LatencyProfile{Jitter: 20 * time.Microsecond})},
	}
	for _, lane := range lanes {
		lane := lane
		b.Run("lane="+lane.name, func(b *testing.B) {
			c, err := cluster.New(servers)
			if err != nil {
				b.Fatalf("cluster: %v", err)
			}
			objs := make([]types.ObjectID, servers)
			for s := 0; s < servers; s++ {
				obj, err := c.PlaceRegister(types.ServerID(s), baseobj.WriterRange{})
				if err != nil {
					b.Fatalf("place: %v", err)
				}
				objs[s] = obj
			}
			var opts []fabric.Option
			if lane.maker != nil {
				opts = append(opts, fabric.WithLanes(lane.maker))
			}
			fab := fabric.New(c, opts...)
			defer fab.Close()
			var nextClient atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				const depth = 256
				client := types.ClientID(nextClient.Add(1))
				obj := objs[int(client)%len(objs)]
				// The groups and their completion are made once for the whole
				// run: the benchmark measures the fabric's dispatch cost, not
				// the harness's allocations.
				free := oneOpGroups(depth, func(int, *fabric.Outcome) {})
				i := 0
				for pb.Next() {
					i++
					g := <-free
					g.Ops[0] = fabric.BatchOp{Object: obj, Inv: baseobj.Invocation{
						Op:  baseobj.OpWrite,
						Arg: types.TSValue{TS: uint64(i), Writer: client},
					}}
					fab.TriggerBatch(client, g)
				}
				for j := 0; j < depth; j++ {
					<-free
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triggers/sec")
		})
	}
}

// BenchmarkLanenetPipeline measures round-trips/sec through one pipelined
// TCP lane connection at varying in-flight depth (experiment E21). Depth 1
// is the lock-step shape — every request waits for its response before the
// next is queued — while deeper pipelines keep many request IDs in flight,
// so queued frames coalesce into single writes, the node decodes them as
// one burst, and identical queued reads collapse onto one wire request
// (reported as coalesced/op). Allocations and bytes per round trip — client
// and in-process node together — sit beside the rate at every depth.
func BenchmarkLanenetPipeline(b *testing.B) {
	for _, depth := range []int{1, 16, 256} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatalf("listen: %v", err)
			}
			defer l.Close()
			node := lanenet.NewNode()
			go node.Serve(l)
			maker, clients, err := lanenet.Lanes([]string{l.Addr().String()}, time.Second)
			if err != nil {
				b.Fatalf("lanes: %v", err)
			}
			c, err := cluster.New(1)
			if err != nil {
				b.Fatalf("cluster: %v", err)
			}
			obj, err := c.PlaceRegister(0, baseobj.WriterRange{})
			if err != nil {
				b.Fatalf("place: %v", err)
			}
			fab := fabric.New(c, fabric.WithLanes(maker))
			defer fab.Close()

			// Warm the route and seed a value for the measured reads.
			warm := make(chan fabric.Outcome, 1)
			fab.TriggerBatch(0, &fabric.Group{
				Ops: []fabric.BatchOp{{Object: obj, Inv: baseobj.Invocation{
					Op:  baseobj.OpWrite,
					Arg: types.TSValue{TS: 1, Writer: 0, Val: 7},
				}}},
				Done: func(_ int, o *fabric.Outcome) { warm <- *o },
			})
			if o := <-warm; o.Err != nil {
				b.Fatalf("warm write: %v", o.Err)
			}

			// depth recycled one-op groups bound the pipeline: taking one
			// waits while all are in flight.
			var failed atomic.Int64
			free := oneOpGroups(depth, func(_ int, o *fabric.Outcome) {
				if o.Err != nil {
					failed.Add(1)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := <-free
				g.Ops[0] = fabric.BatchOp{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}
				fab.TriggerBatch(0, g)
			}
			for j := 0; j < depth; j++ {
				<-free
			}
			b.StopTimer()
			if n := failed.Load(); n != 0 {
				b.Fatalf("%d round trips failed", n)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "roundtrips/sec")
			b.ReportMetric(float64(clients[0].CoalescedReads())/float64(b.N), "coalesced/op")
		})
	}
}

// BenchmarkBoundsFormulas measures the closed-form calculator (sanity: it
// must be trivially cheap) and doubles as a sweep correctness check.
func BenchmarkBoundsFormulas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range benchParams {
			lo, err := bounds.RegisterLower(p.k, p.f, p.n)
			if err != nil {
				b.Fatalf("lower: %v", err)
			}
			hi, err := bounds.RegisterUpper(p.k, p.f, p.n)
			if err != nil {
				b.Fatalf("upper: %v", err)
			}
			if lo > hi {
				b.Fatalf("lower %d > upper %d at %+v", lo, hi, p)
			}
		}
	}
}
