package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emulation"
	"repro/internal/emulation/async"
	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/runner"
	"repro/internal/shardstore"
	"repro/internal/spec"
	"repro/internal/types"
)

// shardstore.Config offers no tracing hook, so the traced pass rebuilds the
// store's stack with the same public calls shardstore makes — runner.NewEnv
// per shard, runner.BuildWith per key, async.NewDetached per engine loop,
// WriterOn/ReaderOn per client — with a decorated lane maker and a tracer
// slotted in. Routing is a fixed modulus instead of shardstore's hash; the
// routing cost itself is measured apart (shardstore.route_ns).

// opRec is one high-level op as the harness saw it: the async.op span.
type opRec struct {
	call, ret, done int64 // StartX called, StartX returned, completion fired
	write           bool
	sampled         bool // keep the op's token list for the span tree

	// Filled by the offline join.
	firstTrigger int64
	tokens       []uint64
}

// tracedClient is one logical client of the rebuilt stack with its op log.
// The log is appended by whichever goroutine issues (pacer or an engine
// loop), hence the mutex; ops complete in log order because the engine
// serializes a client's ops.
type tracedClient struct {
	h     *async.Client
	shard int

	mu  sync.Mutex
	ops []*opRec
}

// tracedStack is the span-instrumented twin of a deployment.
type tracedStack struct {
	w       *workload
	epoch   time.Time
	nodes   *nodeSet
	envs    []*runner.Env
	recs    []*spanRec
	lanes   []fabric.Lane // undecorated backends, for their own counters
	engines []*async.Engine
	cancel  context.CancelFunc

	regs    []emulation.Register
	hists   []*spec.History
	clients *clientTable
	tcl     []*tracedClient                    // by client.idx
	byID    []map[types.ClientID]*tracedClient // per key: fabric client id -> client
	objKey  [][]int32                          // per shard: object id -> key index

	// sampleEvery keeps one op in that many for span trees.
	sampleEvery uint64
	opSeq       atomic.Uint64

	tok0 []uint64 // per shard: fabric token counter when recording (re)started
}

// traceSampleEvery bounds the span trees kept for -trace-out.
const traceSampleEvery = 64

// innerLanes builds shard s's real lane maker, exactly as shardstore does.
func (ts *tracedStack) innerLanes(s int, seed int64, addrs []string) (fabric.LaneMaker, error) {
	w := ts.w
	switch w.Lane {
	case runner.LaneInProc:
		return func(types.ServerID) fabric.Lane { return fabric.InProcLane{} }, nil
	case runner.LaneLatency:
		return fabric.LatencyLanes(subSeed(seed, 1000+uint64(s)), shardstore.DefaultProfile), nil
	case runner.LaneTCP:
		clients := make([]fabric.Lane, w.N)
		for j := range clients {
			addr := addrs[(s*w.N+j)%len(addrs)]
			c, err := lanenet.Dial(addr, 5*time.Second, lanenet.WithTable(fmt.Sprintf("shard%d", s)))
			if err != nil {
				for _, prev := range clients[:j] {
					_ = prev.Close()
				}
				return nil, fmt.Errorf("shard %d server %d: %w", s, j, err)
			}
			clients[j] = c
		}
		return func(server types.ServerID) fabric.Lane { return clients[server] }, nil
	default:
		return nil, fmt.Errorf("unknown lane %q", w.Lane)
	}
}

// newTracedStack builds and first-touches the stack. decorated=false builds
// it on bare lanes with no tracer (the conformance test's control); history
// keeps the registers' histories (the test checks them).
func newTracedStack(ctx context.Context, w *workload, nodeBin string, seed int64, decorated, history bool) (_ *tracedStack, err error) {
	ts := &tracedStack{w: w, epoch: time.Now(), sampleEvery: traceSampleEvery}
	defer func() {
		if err != nil {
			ts.close()
		}
	}()
	var addrs []string
	if w.Lane == runner.LaneTCP {
		if ts.nodes, err = spawnNodes(ctx, nodeBin, w.Nodes); err != nil {
			return nil, err
		}
		addrs = ts.nodes.addrs()
	}
	engCtx, cancel := context.WithCancel(ctx)
	ts.cancel = cancel
	for m := 0; m < w.Engines; m++ {
		ts.engines = append(ts.engines, async.NewDetached(async.WithContext(engCtx)))
	}
	for s := 0; s < w.Shards; s++ {
		inner, err := ts.innerLanes(s, seed, addrs)
		if err != nil {
			return nil, err
		}
		rec := &spanRec{epoch: ts.epoch}
		maker := func(server types.ServerID) fabric.Lane {
			l := inner(server)
			ts.lanes = append(ts.lanes, l)
			if !decorated {
				return l
			}
			return decorate(l, rec)
		}
		opts := []fabric.Option{fabric.WithLanes(maker)}
		if decorated {
			opts = append(opts, fabric.WithTracer(rec))
		}
		env, err := runner.NewEnv(w.N, nil, opts...)
		if err != nil {
			return nil, err
		}
		ts.envs = append(ts.envs, env)
		ts.recs = append(ts.recs, rec)
	}
	ts.objKey = make([][]int32, w.Shards)

	keys := make([]uint64, w.Keys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	loopOf := func(key uint64) int { return int(key/uint64(w.Shards)) % w.Engines }
	ts.clients = newClientTable(w, keys, loopOf)
	ts.byID = make([]map[types.ClientID]*tracedClient, w.Keys)
	for ki := range keys {
		s := ki % w.Shards
		env := ts.envs[s]
		lo := env.Cluster.ResourceComplexity()
		reg, hist, err := runner.BuildWith(w.Kind, env.Fabric, w.WriterSlots, 1,
			runner.BuildOpts{ValueSize: w.ValueSize, Atomic: w.Atomic})
		if err != nil {
			return nil, fmt.Errorf("building key %d: %w", ki, err)
		}
		hist.SetDiscard(!history)
		// Object ids are handed out densely per cluster, so the ids this
		// register placed are exactly [lo, hi).
		for o := lo; o < env.Cluster.ResourceComplexity(); o++ {
			ts.objKey[s] = append(ts.objKey[s], int32(ki))
		}
		ts.regs = append(ts.regs, reg)
		ts.hists = append(ts.hists, hist)
		ts.byID[ki] = make(map[types.ClientID]*tracedClient)
	}
	ts.tcl = make([]*tracedClient, len(ts.clients.all))
	for _, c := range ts.clients.all {
		tc := &tracedClient{shard: c.keyIx % w.Shards}
		eng := ts.engines[c.loop]
		if c.write {
			if tc.h, err = eng.WriterOn(ts.regs[c.keyIx], c.slot); err != nil {
				return nil, err
			}
		} else {
			tc.h = eng.ReaderOn(ts.regs[c.keyIx])
		}
		ts.tcl[c.idx] = tc
		ts.byID[c.keyIx][tc.h.Client()] = tc
	}
	if err := firstTouch(ctx, ts, ts.clients, func() error { return ts.drain(ctx) }); err != nil {
		return nil, err
	}
	return ts, nil
}

func (ts *tracedStack) drain(ctx context.Context) error {
	for _, e := range ts.engines {
		if err := e.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (ts *tracedStack) now() int64 { return int64(time.Since(ts.epoch)) }

// logOp opens an async.op span on the client's log.
func (ts *tracedStack) logOp(tc *tracedClient, write bool) *opRec {
	o := &opRec{write: write, sampled: ts.opSeq.Add(1)%ts.sampleEvery == 0}
	tc.mu.Lock()
	tc.ops = append(tc.ops, o)
	tc.mu.Unlock()
	return o
}

// startWrite implements driver, stamping the op's call, return and
// completion.
func (ts *tracedStack) startWrite(c *client, v types.Value, done func(error)) {
	tc := ts.tcl[c.idx]
	o := ts.logOp(tc, true)
	o.call = ts.now()
	tc.h.StartWrite(v, func(err error) {
		o.done = ts.now()
		done(err)
	})
	o.ret = ts.now()
}

// startRead implements driver.
func (ts *tracedStack) startRead(c *client, done func(types.Value, error)) {
	tc := ts.tcl[c.idx]
	o := ts.logOp(tc, false)
	o.call = ts.now()
	tc.h.StartRead(func(v types.Value, err error) {
		o.done = ts.now()
		done(v, err)
	})
	o.ret = ts.now()
}

// resetRecording forgets everything recorded so far (first touch), so the
// pass's ratios cover only the pass's own ops and tokens.
func (ts *tracedStack) resetRecording() {
	ts.tok0 = make([]uint64, len(ts.envs))
	for s, env := range ts.envs {
		ts.tok0[s] = env.Fabric.Triggers()
	}
	for _, tc := range ts.tcl {
		tc.mu.Lock()
		tc.ops = nil
		tc.mu.Unlock()
	}
}

// triggers sums the shards' low-level trigger counters.
func (ts *tracedStack) triggers() uint64 {
	var total uint64
	for _, env := range ts.envs {
		total += env.Fabric.Triggers()
	}
	return total
}

func (ts *tracedStack) crashShards() error {
	for _, env := range ts.envs {
		if err := env.Fabric.Crash(0); err != nil {
			return err
		}
	}
	return nil
}

// coalescedReads sums the lanes' own merged-read counters.
func (ts *tracedStack) coalescedReads() uint64 {
	var total uint64
	for _, l := range ts.lanes {
		if c, ok := l.(interface{ CoalescedReads() uint64 }); ok {
			total += c.CoalescedReads()
		}
	}
	return total
}

// connStats sums the TCP connections' traffic counters.
func (ts *tracedStack) connStats() lanenet.ConnStats {
	var total lanenet.ConnStats
	for _, l := range ts.lanes {
		if c, ok := l.(*lanenet.Client); ok {
			st := c.Stats()
			total.FramesOut += st.FramesOut
			total.FramesIn += st.FramesIn
			total.BytesOut += st.BytesOut
			total.BytesIn += st.BytesIn
		}
	}
	return total
}

// settle waits (briefly) for the low-level ops still on the lanes — the
// responses beyond each quorum — so the offline join reads quiescent
// records. Ops on a crashed server are dropped by the fabric and count as
// settled too.
func (ts *tracedStack) settle(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		quiet := true
		for s, env := range ts.envs {
			if ts.recs[s].settled.Load() < env.Fabric.Triggers() {
				quiet = false
			}
		}
		if quiet {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (ts *tracedStack) close() {
	if ts.cancel != nil {
		ts.cancel()
	}
	for _, e := range ts.engines {
		_ = e.Close()
	}
	for _, env := range ts.envs {
		_ = env.Fabric.Close()
	}
	ts.nodes.stop()
	ts.nodes = nil
}

// traceStats is the traced pass's per-layer figures, from the offline join
// of op logs and token stamps.
type traceStats struct {
	Ops, Tokens int

	SubmitP50     time.Duration // StartX call -> return
	QueueWaitP50  time.Duration
	DispatchP50   time.Duration // trigger -> lane hand-off
	TriggerRTTP50 time.Duration
	TransitP50    time.Duration
	TransitP99    time.Duration
	TransitN      int
	ApplyP50      time.Duration
	ApplyN        int
	GroupSizeMean float64
	LateFrac      float64 // responses after their op completed / tokens
	CASFailFrac   float64
	CASOps        uint64
	Unattributed  int // tokens whose parent op was not found
	TokenOverflow uint64
	TriggersPerOp float64
	sampledOps    []*sampledOp
}

// sampledOp is one op kept whole for the span tree.
type sampledOp struct {
	client *client
	op     *opRec
	shard  int
}

// analyze joins tokens to ops. A token belongs to the op of its client that
// was in flight when it was triggered: the engine starts a client's next op
// only after the previous completion fired, so the client's ops partition
// time and a binary search on completion stamps finds the parent.
func (ts *tracedStack) analyze() *traceStats {
	st := &traceStats{}
	var submits, dispatches, rtts, transits, applies, queueWaits []int64
	var late int

	for _, tc := range ts.tcl {
		// Two goroutines issuing to one client at once may log in one order
		// and reach the engine in the other; completion order is the truth.
		sort.SliceStable(tc.ops, func(i, j int) bool {
			return tc.ops[i].done != 0 && (tc.ops[j].done == 0 || tc.ops[i].done < tc.ops[j].done)
		})
		for _, o := range tc.ops {
			if o.done == 0 {
				continue
			}
			st.Ops++
			submits = append(submits, o.ret-o.call)
		}
	}
	for s, rec := range ts.recs {
		hi := ts.envs[s].Fabric.Triggers()
		for token := ts.tok0[s] + 1; token <= hi; token++ {
			t := rec.peek(token)
			if t == nil || !t.hit {
				continue
			}
			st.Tokens++
			if t.deliver != 0 {
				dispatches = append(dispatches, t.deliver-t.trigger)
			}
			if t.respond != 0 {
				rtts = append(rtts, t.respond-t.trigger)
			}
			if t.complete != 0 && t.deliver != 0 {
				transits = append(transits, t.complete-t.deliver)
			}
			if t.applyEnd != 0 {
				applies = append(applies, t.applyEnd-t.applyStart)
			}
			o := ts.parent(s, t)
			if o == nil {
				st.Unattributed++
				continue
			}
			if o.firstTrigger == 0 || t.trigger < o.firstTrigger {
				o.firstTrigger = t.trigger
			}
			if t.respond > o.done {
				late++
			}
			if o.sampled {
				o.tokens = append(o.tokens, token)
			}
		}
		st.TokenOverflow += rec.overflow.Load()
		st.CASOps += rec.casOps.Load()
	}
	for _, c := range ts.clients.all {
		tc := ts.tcl[c.idx]
		for _, o := range tc.ops {
			if o.done == 0 {
				continue
			}
			if o.firstTrigger != 0 {
				queueWaits = append(queueWaits, o.firstTrigger-o.call)
			}
			if o.sampled {
				st.sampledOps = append(st.sampledOps, &sampledOp{client: c, op: o, shard: tc.shard})
			}
		}
	}

	for _, xs := range [][]int64{submits, dispatches, rtts, transits, applies, queueWaits} {
		slices.Sort(xs)
	}
	if st.Ops > 0 {
		st.TriggersPerOp = float64(st.Tokens) / float64(st.Ops)
	}
	st.SubmitP50 = time.Duration(rankQuantile(submits, 0.5))
	st.DispatchP50 = time.Duration(rankQuantile(dispatches, 0.5))
	st.QueueWaitP50 = time.Duration(rankQuantile(queueWaits, 0.5))
	st.TriggerRTTP50 = time.Duration(rankQuantile(rtts, 0.5))
	st.TransitP50 = time.Duration(rankQuantile(transits, 0.5))
	st.TransitP99 = time.Duration(rankQuantile(transits, 0.99))
	st.TransitN = len(transits)
	st.ApplyP50 = time.Duration(rankQuantile(applies, 0.5))
	st.ApplyN = len(applies)
	var handoffs, handoffOps, casFails uint64
	for _, rec := range ts.recs {
		handoffs += rec.handoffs.Load()
		handoffOps += rec.handoffOps.Load()
		casFails += rec.casFails.Load()
	}
	if handoffs > 0 {
		st.GroupSizeMean = float64(handoffOps) / float64(handoffs)
	}
	if st.Tokens > 0 {
		st.LateFrac = float64(late) / float64(st.Tokens)
	}
	if st.CASOps > 0 {
		st.CASFailFrac = float64(casFails) / float64(st.CASOps)
	}
	return st
}

// parent finds the op a token belongs to, or nil.
func (ts *tracedStack) parent(shard int, t *tokRec) *opRec {
	if int(t.object) >= len(ts.objKey[shard]) {
		return nil
	}
	tc := ts.byID[ts.objKey[shard][t.object]][t.client]
	if tc == nil {
		return nil
	}
	ops := tc.ops
	// First op whose completion is at or after the trigger. Ops that never
	// completed (done == 0) can only be the log's tail.
	i := sort.Search(len(ops), func(i int) bool { return ops[i].done == 0 || ops[i].done >= t.trigger })
	if i == len(ops) || ops[i].call > t.trigger {
		return nil
	}
	return ops[i]
}
