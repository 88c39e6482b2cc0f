package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// Spans are recorded from outside the program: the harness stamps its own
// StartWrite/StartRead calls (async.op), a fabric.Tracer stamps every
// low-level token's trigger and response (fabric.trigger), and spanLane — a
// decorator around the real lane backend — stamps the hand-off to the lane
// and the lane's completion (lane.transit) and wraps the apply closure
// (baseobj.apply). Everything stays in memory until the pass has drained.

// tokRec is the stamps of one low-level operation (one fabric token), in
// nanoseconds since the stack's epoch; zero means "never reached".
type tokRec struct {
	trigger, deliver      int64
	applyStart, applyEnd  int64
	complete, respond     int64
	client                types.ClientID
	object                types.ObjectID
	server                types.ServerID
	isCAS, casFailed, hit bool // hit: the tracer saw the trigger
}

const (
	tokChunkSize = 1 << 14
	tokChunks    = 1 << 11 // 2^25 tokens per shard per pass
)

// spanRec holds one shard's token stamps. Tokens are dense (the fabric hands
// them out from one counter), so a token indexes a lazily allocated chunk
// directory: recording is a couple of loads and a store, with no lock. A
// token's fields are written by different goroutines — trigger side, lane
// loop, completer — but always along the op's own causal chain, which the
// lane's channels and mutexes order.
type spanRec struct {
	epoch  time.Time
	chunks [tokChunks]atomic.Pointer[[tokChunkSize]tokRec]

	settled    atomic.Uint64 // tokens responded or dropped
	handoffs   atomic.Uint64 // Deliver/DeliverGroup/DeliverScan calls
	handoffOps atomic.Uint64 // ops carried by them
	casOps     atomic.Uint64
	casFails   atomic.Uint64
	overflow   atomic.Uint64 // tokens past the directory (not recorded)
}

func (r *spanRec) now() int64 { return int64(time.Since(r.epoch)) }

// tok returns the record for a token, or nil past the directory's capacity.
func (r *spanRec) tok(token uint64) *tokRec {
	ci := token / tokChunkSize
	if ci >= tokChunks {
		r.overflow.Add(1)
		return nil
	}
	c := r.chunks[ci].Load()
	if c == nil {
		fresh := new([tokChunkSize]tokRec)
		if r.chunks[ci].CompareAndSwap(nil, fresh) {
			c = fresh
		} else {
			c = r.chunks[ci].Load()
		}
	}
	return &c[token%tokChunkSize]
}

// peek is tok for the offline analysis: no allocation, nil if never touched.
func (r *spanRec) peek(token uint64) *tokRec {
	ci := token / tokChunkSize
	if ci >= tokChunks {
		return nil
	}
	c := r.chunks[ci].Load()
	if c == nil {
		return nil
	}
	return &c[token%tokChunkSize]
}

// Trace implements fabric.Tracer: the trigger and respond edges of the
// fabric.trigger span.
func (r *spanRec) Trace(ev fabric.TraceEvent) {
	switch ev.Kind {
	case fabric.TraceTrigger:
		if t := r.tok(ev.Op.Token); t != nil {
			t.trigger = r.now()
			t.client, t.object, t.server = ev.Op.Client, ev.Op.Object, ev.Op.Server
			t.hit = true
		}
	case fabric.TraceRespond:
		if t := r.tok(ev.Op.Token); t != nil {
			t.respond = r.now()
		}
		r.settled.Add(1)
	case fabric.TraceDrop:
		r.settled.Add(1)
	}
}

// laneHook carries one op through the decorated lane: its methods are the
// apply and complete closures the inner lane receives.
type laneHook struct {
	rec      *spanRec
	t        *tokRec
	apply    fabric.ApplyFunc
	complete fabric.CompleteFunc
	casExp   types.TSValue
}

func (h *laneHook) applyFn() (baseobj.Response, error) {
	h.t.applyStart = h.rec.now()
	resp, err := h.apply()
	h.t.applyEnd = h.rec.now()
	return resp, err
}

func (h *laneHook) completeFn(resp baseobj.Response, err error) {
	h.t.complete = h.rec.now()
	if h.t.isCAS && err == nil {
		h.rec.casOps.Add(1)
		if resp.Val != h.casExp {
			h.t.casFailed = true
			h.rec.casFails.Add(1)
		}
	}
	h.complete(resp, err)
}

// spanLane decorates a lane backend. The fabric picks its dispatch path by
// asserting optional interfaces on the backend, so the decorator must expose
// exactly the ones the wrapped lane has: decorate returns the variant that
// does. (One path cannot be kept: the fabric special-cases the concrete
// type fabric.InProcLane and applies inline; a decorated in-process lane
// goes through Deliver like any other backend. That cost is part of
// bench.trace_overhead_frac.)
type spanLane struct {
	inner fabric.Lane
	rec   *spanRec
}

// wrap stamps the hand-off and swaps in the hooked closures.
func (l *spanLane) wrap(op fabric.LaneOp) fabric.LaneOp {
	t := l.rec.tok(op.Ev.Token)
	if t == nil {
		return op
	}
	t.deliver = l.rec.now()
	h := &laneHook{rec: l.rec, t: t, apply: op.Apply, complete: op.Complete}
	if op.Ev.Inv.Op == baseobj.OpCAS {
		t.isCAS = true
		h.casExp = op.Ev.Inv.Exp
	}
	return fabric.LaneOp{Ev: op.Ev, Apply: h.applyFn, Complete: h.completeFn}
}

func (l *spanLane) handoff(n int) {
	l.rec.handoffs.Add(1)
	l.rec.handoffOps.Add(uint64(n))
}

// Deliver implements fabric.Lane.
func (l *spanLane) Deliver(ev fabric.TriggerEvent, apply fabric.ApplyFunc, complete fabric.CompleteFunc) {
	l.handoff(1)
	op := l.wrap(fabric.LaneOp{Ev: ev, Apply: apply, Complete: complete})
	l.inner.Deliver(op.Ev, op.Apply, op.Complete)
}

// Close implements fabric.Lane.
func (l *spanLane) Close() error { return l.inner.Close() }

// wrapAll hooks a group in place: the fabric built the slice for this
// hand-off and does not touch it again.
func (l *spanLane) wrapAll(ops []fabric.LaneOp) {
	l.handoff(len(ops))
	for i := range ops {
		ops[i] = l.wrap(ops[i])
	}
}

// groupSpanLane decorates a lane with group and scan hand-offs (the latency
// lane's shape).
type groupSpanLane struct{ *spanLane }

func (l groupSpanLane) DeliverGroup(ops []fabric.LaneOp) {
	l.wrapAll(ops)
	l.inner.(fabric.GroupLane).DeliverGroup(ops)
}

func (l groupSpanLane) DeliverScan(ops []fabric.LaneOp) {
	l.wrapAll(ops)
	l.inner.(fabric.ScanLane).DeliverScan(ops)
}

// netSpanLane additionally forwards crash reporting and placement mirroring
// (the TCP client's shape).
type netSpanLane struct{ groupSpanLane }

func (l netSpanLane) SetCrashHook(fn func()) { l.inner.(fabric.CrashReporter).SetCrashHook(fn) }
func (l netSpanLane) MirrorObject(o baseobj.Object) {
	l.inner.(fabric.ObjectMirror).MirrorObject(o)
}

// laneShape is the set of optional interfaces a lane implements.
type laneShape struct{ group, scan, crash, mirror bool }

func shapeOf(l fabric.Lane) laneShape {
	var s laneShape
	_, s.group = l.(fabric.GroupLane)
	_, s.scan = l.(fabric.ScanLane)
	_, s.crash = l.(fabric.CrashReporter)
	_, s.mirror = l.(fabric.ObjectMirror)
	return s
}

// decorate wraps inner in the span-stamping variant with inner's shape. The
// three shapes are those of the repo's three backends; any other is a
// harness bug, not an input.
func decorate(inner fabric.Lane, rec *spanRec) fabric.Lane {
	base := &spanLane{inner: inner, rec: rec}
	switch shapeOf(inner) {
	case laneShape{}:
		return base
	case laneShape{group: true, scan: true}:
		return groupSpanLane{base}
	case laneShape{group: true, scan: true, crash: true, mirror: true}:
		return netSpanLane{groupSpanLane{base}}
	default:
		panic(fmt.Sprintf("bench: no span decorator for lane %T with shape %+v", inner, shapeOf(inner)))
	}
}
