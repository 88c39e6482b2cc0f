package main

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/runner"
	"repro/internal/shardstore"
	"repro/internal/spec"
	"repro/internal/types"
)

// The decorator must expose exactly the optional interfaces of the lane it
// wraps — no more (the fabric would call a method the backend lacks), no
// fewer (the fabric would fall back to a slower path and the traced pass
// would measure a different system).
func TestDecoratedLaneKeepsBackendShape(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	tcp, err := lanenet.Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	latency := fabric.NewLatencyLane(1, shardstore.DefaultProfile)
	defer latency.Close()

	for _, c := range []struct {
		name  string
		inner fabric.Lane
		want  laneShape
	}{
		{"in-process", fabric.InProcLane{}, laneShape{}},
		{"latency", latency, laneShape{group: true, scan: true}},
		{"tcp", tcp, laneShape{group: true, scan: true, crash: true, mirror: true}},
	} {
		if got := shapeOf(c.inner); got != c.want {
			t.Errorf("%s lane has shape %+v, the harness expects %+v", c.name, got, c.want)
		}
		if got := shapeOf(decorate(c.inner, &spanRec{epoch: time.Now()})); got != c.want {
			t.Errorf("decorated %s lane has shape %+v, want %+v", c.name, got, c.want)
		}
	}
}

// conformanceWorkload is small enough to finish in well under a second on
// the latency lane and still exercise scatter, quorum and write-back.
var conformanceWorkload = &workload{
	Name: "conformance", Kind: runner.KindABDMax, Atomic: true, Lane: runner.LaneLatency,
	N: 3, Shards: 2, Engines: 2, Keys: 4, WriterSlots: 1, ReaderSlots: 2,
}

// driveFixed issues opsPerClient ops on every client, one at a time per
// client, and waits for all of them.
func driveFixed(t *testing.T, ts *tracedStack, opsPerClient int) (ops int) {
	t.Helper()
	errs := make(chan error, len(ts.clients.all)*opsPerClient)
	for round := 0; round < opsPerClient; round++ {
		for _, c := range ts.clients.all {
			ops++
			if c.write {
				ts.startWrite(c, ts.clients.value(c), func(err error) { errs <- err })
			} else {
				ts.startRead(c, func(_ types.Value, err error) { errs <- err })
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := ts.drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for i := 0; i < ops; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("op failed: %v", err)
		}
	}
	return ops
}

// verdict runs the checkers shardstore.CheckAll runs, on every key.
func verdict(t *testing.T, ts *tracedStack) (historyOps int) {
	t.Helper()
	for ki, h := range ts.hists {
		ops := h.Snapshot()
		historyOps += len(ops)
		if err := spec.CheckReadValidity(ops, types.InitialValue); err != nil {
			t.Errorf("key %d: %v", ki, err)
		}
		if err := spec.CheckLinearizable(ops, types.InitialValue); err != nil {
			t.Errorf("key %d: %v", ki, err)
		}
	}
	return historyOps
}

func TestSpanLaneConformance(t *testing.T) {
	const opsPerClient = 20
	w := conformanceWorkload
	type outcome struct {
		ops, historyOps int
		triggersPerOp   float64
	}
	run := func(decorated bool) (*tracedStack, outcome) {
		ts, err := newTracedStack(context.Background(), w, "", 7, decorated, true)
		if err != nil {
			t.Fatal(err)
		}
		ts.sampleEvery = 1
		ts.resetRecording()
		ops := driveFixed(t, ts, opsPerClient)
		var triggers uint64
		for s, env := range ts.envs {
			triggers += env.Fabric.Triggers() - ts.tok0[s]
		}
		return ts, outcome{ops: ops, historyOps: verdict(t, ts), triggersPerOp: float64(triggers) / float64(ops)}
	}

	bare, want := run(false)
	bare.close()
	ts, got := run(true)
	defer ts.close()
	if got != want {
		t.Fatalf("decorated run %+v differs from bare run %+v", got, want)
	}
	// abd-max with read write-back: a collect and a push of three each.
	if got.triggersPerOp != 6 {
		t.Errorf("triggers per op = %v, want 6", got.triggersPerOp)
	}
	// First touch (one write, one read per key) is in the history too.
	if wantOps := got.ops + 2*w.Keys; got.historyOps != wantOps {
		t.Errorf("history holds %d ops, want %d", got.historyOps, wantOps)
	}

	ts.settle(5 * time.Second)
	st := ts.analyze()
	if st.Ops != got.ops || st.Tokens != 6*got.ops || st.Unattributed != 0 {
		t.Fatalf("join found %d ops, %d tokens, %d unattributed; want %d, %d, 0", st.Ops, st.Tokens, st.Unattributed, got.ops, 6*got.ops)
	}
	if st.TriggersPerOp != got.triggersPerOp {
		t.Errorf("traced triggers per op %v, fabric counter says %v", st.TriggersPerOp, got.triggersPerOp)
	}
	if len(st.sampledOps) != got.ops {
		t.Fatalf("kept %d span trees, want one per op (%d)", len(st.sampledOps), got.ops)
	}
	for id, so := range st.sampledOps {
		spans := ts.tree(id, so)
		if len(so.op.tokens) != 6 {
			t.Fatalf("op %d has %d tokens, want 6", id, len(so.op.tokens))
		}
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("op %d: span %s runs backwards: %+v", id, s.Name, s)
			}
			if s.Self < 0 || s.Self > s.End-s.Start {
				t.Fatalf("op %d: span %s has self time %d outside [0, %d]", id, s.Name, s.Self, s.End-s.Start)
			}
			if s.Parent < 0 {
				continue
			}
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("op %d: %s [%d, %d] does not fit inside its parent %s [%d, %d]", id, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			if s.Late && s.RealEnd <= p.End {
				t.Fatalf("op %d: %s marked late but ended at %d, inside its parent", id, s.Name, s.RealEnd)
			}
		}
	}
}
