package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/runner"
)

const (
	// checkWindow is the checked pass's window: long enough for thousands of
	// ops per key-set, short enough that every history is checked in full.
	checkWindow = time.Second
	// rounds is how many segments the end-to-end window is spent in, each on
	// a fresh deployment.
	rounds = 3
	// Set-up is repeated (fresh nodes, fresh store each time) so setup_s is a
	// median: before every segment until setupBudget is spent or maxSetups
	// reached, so the second-long set-up runs three times in all and the
	// millisecond ones fifteen.
	maxSetups   = 5
	setupBudget = 400 * time.Millisecond
)

// runConfig is one benchmark run: one workload, one seed, one mode.
type runConfig struct {
	w        *workload
	seed     int64
	window   time.Duration
	trace    bool
	traceOut string // span file (traced runs only; empty: not written)
}

// runResult is what one run reports.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	PassS      map[string]float64     `json:"pass_s"`                    // wall time per pass
	SliceN     []int                  `json:"latency_slice_n,omitempty"` // ops behind each slice's quantiles
	Slices     map[string][]float64   `json:"slices,omitempty"`          // per metric: every slice's value, in time order
	Violations []string               `json:"violations,omitempty"`
	// Unresolved lists reasons the run's figures should not be trusted
	// (generator lag, trace-buffer overflow); empty on a good run.
	Unresolved []string `json:"unresolved,omitempty"`
}

// run executes the workload's passes for the configured mode.
func (rc *runConfig) run(ctx context.Context) (*runResult, error) {
	w := rc.w
	res := &runResult{Workload: w.Name, Seed: rc.seed, Trace: rc.trace, PassS: map[string]float64{}}
	var nodeBin string
	if w.Lane == runner.LaneTCP {
		var err error
		if nodeBin, err = buildLanenode(ctx); err != nil {
			return nil, err
		}
	}
	var ms *metricSet
	var err error
	if rc.trace {
		ms, err = rc.layerRun(ctx, res, nodeBin)
	} else {
		ms, err = rc.endToEndRun(ctx, res, nodeBin)
	}
	if err != nil {
		return nil, err
	}
	checkS, err := rc.checkedPass(ctx, res, nodeBin)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		ms.set("spec.check_s", checkS, 1)
	}
	ms.fill()
	res.Metrics = ms.values
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// timed runs fn and files its wall time under name.
func (res *runResult) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	res.PassS[name] += time.Since(t0).Seconds()
	return err
}

// storePass builds the untraced pass over a deployment.
func (rc *runConfig) storePass(d *deployment, window time.Duration, seed int64) *pass {
	return &pass{
		w: rc.w, drv: storeDriver{d.st}, clients: d.clients, loops: rc.w.Engines,
		window: window, seed: seed,
		drain: d.st.Drain, crash: d.crashShards, nodes: d.nodes,
	}
}

// endToEndRun is --trace 0. The window is spent in `rounds` equal segments,
// each on a freshly set-up deployment — the set-ups the segments need are
// the repeats setup_s is the median of, so nothing is set up twice — and
// each segment is cut into slicesPerPass slices. The reference box (2 shared
// vCPUs) has stretches of seconds to tens of seconds in which the same work
// costs 30-40 % more CPU; spreading the slices over the whole run and taking
// their best quartile keeps one such stretch out of the result, where a
// single long window averages it in.
func (rc *runConfig) endToEndRun(ctx context.Context, res *runResult, nodeBin string) (*metricSet, error) {
	w := rc.w
	var setups, objects []float64
	var segs []*passResult
	for r := 0; r < rounds; r++ {
		seed := rc.seed*rounds + int64(r)
		var d *deployment
		err := res.timed("setup", func() error {
			began := time.Now()
			for n := 1; ; n++ {
				runtime.GC() // every set-up starts from a collected heap
				next, err := deploy(ctx, w, nodeBin, seed, false)
				if err != nil {
					return fmt.Errorf("set-up %d: %w", len(setups)+1, err)
				}
				setups = append(setups, next.setup.Seconds())
				if time.Since(began) >= setupBudget || n >= maxSetups {
					d = next
					return nil
				}
				next.close()
			}
		})
		if err != nil {
			return nil, err
		}
		var pr *passResult
		err = res.timed("measured", func() (err error) {
			defer d.close()
			runtime.GC()
			pr, err = rc.storePass(d, rc.window/rounds, seed).run(ctx)
			objects = append(objects, d.objectsPerKey())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("measured pass, segment %d: %w", r+1, err)
		}
		if err := rc.accept(res, pr, "measured"); err != nil {
			return nil, err
		}
		segs = append(segs, pr)
		res.Attempted += pr.Attempted
		res.Failed += pr.Failed
	}

	// Throughput is taken per slice; the run reports the best quartile over
	// all segments' slices.
	sliceS := (rc.window / rounds / slicesPerPass).Seconds()
	var opsPerS []float64
	var completed int64
	for _, pr := range segs {
		for _, sl := range pr.Sum.Slices {
			completed += sl.Completed
			opsPerS = append(opsPerS, float64(sl.Completed)/sliceS)
		}
	}
	res.Slices = map[string][]float64{"ops_per_s": opsPerS}
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", median(setups), int64(len(setups)))
	ms.set("ops_per_s", bestQuartile(opsPerS, true), completed)
	ms.set("objects_per_key", median(objects), int64(w.Keys))
	return ms, nil
}

// accept turns a pass that measured nothing, or whose generator could not
// keep its schedule, into an error or a recorded doubt.
func (rc *runConfig) accept(res *runResult, pr *passResult, name string) error {
	if pr.Sum.Completed == 0 {
		return fmt.Errorf("%s: %s pass completed zero ops (%d attempted)", rc.w.Name, name, pr.Attempted)
	}
	if pr.PacerLagP99 > time.Millisecond {
		res.Unresolved = append(res.Unresolved,
			fmt.Sprintf("%s pass: generator lag p99 %.3f ms exceeds 1 ms", name, msOf(pr.PacerLagP99)))
	}
	return nil
}

// checkedPass re-runs the load briefly on a fresh store with history on and
// checks every key: read validity always, sampled linearizability on atomic
// builds. It returns the checker's own time.
func (rc *runConfig) checkedPass(ctx context.Context, res *runResult, nodeBin string) (checkS float64, err error) {
	err = res.timed("checked", func() error {
		d, err := deploy(ctx, rc.w, nodeBin, rc.seed, true)
		if err != nil {
			return fmt.Errorf("checked pass set-up: %w", err)
		}
		defer d.close()
		pr, err := rc.storePass(d, checkWindow, rc.seed).run(ctx)
		if err != nil {
			return fmt.Errorf("checked pass: %w", err)
		}
		if err := rc.accept(res, pr, "checked"); err != nil {
			return err
		}
		if pr.Failed > 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("checked pass: %d of %d ops failed", pr.Failed, pr.Attempted))
		}
		t0 := time.Now()
		rep := d.st.CheckAll(4, rc.seed)
		checkS = time.Since(t0).Seconds()
		if rep.HistoryOps == 0 {
			return fmt.Errorf("%s: checked pass recorded no history", rc.w.Name)
		}
		res.Violations = append(res.Violations, rep.Violations...)
		return nil
	})
	return checkS, err
}

// layerRun is --trace 1: half the window untraced (public counters and
// resource meters), half on the span-instrumented stack, then the direct
// timed calls.
func (rc *runConfig) layerRun(ctx context.Context, res *runResult, nodeBin string) (*metricSet, error) {
	w := rc.w
	ms := newMetricSet(perLayer)
	half := rc.window / 2

	var d *deployment
	if err := res.timed("setup", func() (err error) {
		runtime.GC()
		d, err = deploy(ctx, w, nodeBin, rc.seed, false)
		return err
	}); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()

	var pr *passResult
	var trig0, trig1 uint64
	var done0, done1 int64
	err := res.timed("untraced", func() (err error) {
		runtime.GC()
		trig0, done0 = d.triggers(), completedOps(d)
		pr, err = rc.storePass(d, half, rc.seed).run(ctx)
		trig1, done1 = d.triggers(), completedOps(d)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	if err := rc.accept(res, pr, "untraced"); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = pr.Attempted, pr.Failed

	// CPU per op and latency: per slice, best quartile over the slices the
	// pass covers.
	sliced := func(name string, pick func(sl *sliceStat) (float64, int)) {
		var vals []float64
		var n int64
		for k := range pr.Sum.Slices {
			if v, samples := pick(&pr.Sum.Slices[k]); samples > 0 {
				vals = append(vals, v)
				n += int64(samples)
			}
		}
		ms.set(name, bestQuartile(vals, false), n)
		res.Slices[name] = vals
	}
	res.Slices = make(map[string][]float64)
	sliced("cpu_us_per_op", func(sl *sliceStat) (float64, int) {
		return usOf(sl.CPU) / float64(max(sl.Completed, 1)), int(sl.Completed)
	})
	sliced("p50_ms", func(sl *sliceStat) (float64, int) { return msOf(sl.P50), sl.N })
	sliced("p99_ms", func(sl *sliceStat) (float64, int) { return msOf(sl.P99), sl.N })
	sliced("write_p50_ms", func(sl *sliceStat) (float64, int) { return msOf(sl.WriteP50), sl.WriteN })
	sliced("read_p50_ms", func(sl *sliceStat) (float64, int) { return msOf(sl.ReadP50), sl.ReadN })
	for k := range pr.Sum.Slices {
		res.SliceN = append(res.SliceN, pr.Sum.Slices[k].N)
	}
	ms.set("failed_frac", float64(pr.Failed)/float64(max(pr.Attempted, 1)), pr.Attempted)
	ms.set("stored_bytes_per_key", d.storedBytesPerKey(), int64(w.Keys))
	ms.set("shardstore.first_touch_us", usOf(d.firstTouch)/float64(w.Keys), int64(w.Keys))
	route, err := routeNS(d.st, d.clients)
	if err != nil {
		return nil, fmt.Errorf("timing route lookup: %w", err)
	}
	ms.set("shardstore.route_ns", route, 0)
	var inFlight int64
	for _, es := range d.st.EngineStats() {
		inFlight += es.MaxInFlight
	}
	ms.set("async.max_in_flight", float64(inFlight), 0)
	if done1 > done0 {
		ms.set("fabric.triggers_per_op", float64(trig1-trig0)/float64(done1-done0), done1-done0)
	}
	if !w.Open {
		ms.set("closed.p50_ms", msOf(pr.Sum.P50), int64(pr.Sum.N))
	}
	if w.CrashAt > 0 {
		ms.set("crash.healthy_p50_ms", msOf(pr.Sum.BeforeP50), int64(pr.Sum.BeforeN))
		ms.set("crash.max_gap_ms", msOf(pr.Sum.MaxGapAfter), int64(pr.Sum.N))
	}
	if w.Lane == runner.LaneTCP {
		ms.set("lanenet.node_cpu_us_per_op", pr.perOp(usOf(pr.NodeCPU)), pr.Sum.Completed)
		ms.set("lanenet.client_cpu_us_per_op", pr.perOp(usOf(pr.SelfCPU)), pr.Sum.Completed)
	}
	ms.set("go.alloc_bytes_per_op", pr.perOp(float64(pr.AllocBytes)), pr.Sum.Completed)
	ms.set("go.allocs_per_op", pr.perOp(float64(pr.Allocs)), pr.Sum.Completed)
	if pr.SelfCPU > 0 {
		ms.set("go.gc_cpu_frac", pr.GCCPU.Seconds()/pr.SelfCPU.Seconds(), 0)
	}
	ms.set("go.heap_peak_mb", float64(pr.HeapPeak)/(1<<20), 0)
	if w.Open {
		ms.set("bench.pacer_lag_p99_ms", msOf(pr.PacerLagP99), pr.Attempted)
	}
	d.close()

	if err := res.timed("traced", func() error { return rc.tracedPass(ctx, res, ms, nodeBin, half, pr.opsPerSec()) }); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}

	apply, err := clusterApplyNS(w.N)
	if err != nil {
		return nil, fmt.Errorf("timing cluster.Apply: %w", err)
	}
	ms.set("cluster.apply_ns", apply, 0)
	if w.Kind == runner.KindCoded {
		enc, dec, err := codedNS(w.N, w.ValueSize)
		if err != nil {
			return nil, fmt.Errorf("timing coder: %w", err)
		}
		ms.set("coded.encode_us", enc/1e3, 0)
		ms.set("coded.decode_us", dec/1e3, 0)
	}
	return ms, nil
}

// completedOps sums the engine loops' completion counters.
func completedOps(d *deployment) int64 {
	var n int64
	for _, es := range d.st.EngineStats() {
		n += es.Completed
	}
	return n
}

// tracedPass drives the same load through the rebuilt, span-instrumented
// stack and files the per-layer figures of the offline join.
func (rc *runConfig) tracedPass(ctx context.Context, res *runResult, ms *metricSet, nodeBin string, window time.Duration, untracedOps float64) error {
	w := rc.w
	runtime.GC()
	ts, err := newTracedStack(ctx, w, nodeBin, rc.seed, true, false)
	if err != nil {
		return err
	}
	defer ts.close()
	ts.resetRecording()
	coalesced0, conn0 := ts.coalescedReads(), ts.connStats()
	p := &pass{
		w: w, drv: ts, clients: ts.clients, loops: w.Engines,
		window: window, seed: rc.seed,
		drain: ts.drain, crash: ts.crashShards, nodes: ts.nodes,
	}
	pr, err := p.run(ctx)
	if err != nil {
		return err
	}
	if err := rc.accept(res, pr, "traced"); err != nil {
		return err
	}
	ts.settle(200 * time.Millisecond)
	coalesced1, conn1 := ts.coalescedReads(), ts.connStats()
	st := ts.analyze()
	if st.TokenOverflow > 0 {
		res.Unresolved = append(res.Unresolved, fmt.Sprintf("traced pass: %d tokens past the span buffer", st.TokenOverflow))
	}
	if st.Ops == 0 || st.Tokens == 0 {
		return fmt.Errorf("%s: traced pass joined %d ops and %d tokens", w.Name, st.Ops, st.Tokens)
	}
	ops, toks := float64(st.Ops), float64(st.Tokens)

	ms.set("async.submit_ns", float64(st.SubmitP50), int64(st.Ops))
	ms.set("async.queue_wait_us_p50", usOf(st.QueueWaitP50), int64(st.Ops))
	ms.set("fabric.dispatch_ns", float64(st.DispatchP50), int64(st.Tokens))
	ms.set("fabric.trigger_rtt_us_p50", usOf(st.TriggerRTTP50), int64(st.Tokens))
	ms.set("lane.transit_us_p50", usOf(st.TransitP50), int64(st.TransitN))
	ms.set("lane.transit_us_p99", usOf(st.TransitP99), int64(st.TransitN))
	ms.set("lane.group_size_mean", st.GroupSizeMean, int64(st.Tokens))
	ms.set("lane.coalesced_reads_frac", float64(coalesced1-coalesced0)/toks, int64(st.Tokens))
	ms.set("baseobj.apply_ns_p50", float64(st.ApplyP50), int64(st.ApplyN))
	ms.set("rounds.late_response_frac", st.LateFrac, int64(st.Tokens))
	ms.set("casmax.cas_fail_frac", st.CASFailFrac, int64(st.CASOps))
	if w.Lane == runner.LaneTCP {
		framesOut := float64(conn1.FramesOut - conn0.FramesOut)
		frames := framesOut + float64(conn1.FramesIn-conn0.FramesIn)
		bytes := float64(conn1.BytesOut-conn0.BytesOut) + float64(conn1.BytesIn-conn0.BytesIn)
		ms.set("lanenet.frames_per_op", frames/ops, int64(st.Ops))
		ms.set("lanenet.bytes_per_op", bytes/ops, int64(st.Ops))
		if framesOut > 0 {
			ms.set("lanenet.ops_per_frame", toks/framesOut, int64(framesOut))
		}
	}
	ms.set("bench.traced_triggers_per_op", st.TriggersPerOp, int64(st.Ops))
	ms.set("bench.trace_overhead_frac", (untracedOps-pr.opsPerSec())/untracedOps, pr.Sum.Completed)

	cons, err := ts.constructionOpP50(ctx, 400)
	if err != nil {
		return err
	}
	ms.set("construction.op_us_p50", usOf(cons), 400)
	if rc.traceOut != "" {
		if err := ts.writeSpans(rc.traceOut, st); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }
