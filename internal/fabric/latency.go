package fabric

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/baseobj"
	"repro/internal/seed"
	"repro/internal/types"
)

// LatencyProfile is the per-operation delay distribution of a LatencyLane.
// Delivery delay is Base plus a uniform draw from [0, Jitter), plus Spike
// with probability SpikeProb. Because each operation draws independently,
// jitter alone already reorders operations relative to their trigger order
// — a later op with a small draw overtakes an earlier op with a large one —
// and spikes produce the long-tail stragglers that force quorum gathers to
// complete without their slowest servers.
type LatencyProfile struct {
	// Base is the minimum delivery delay.
	Base time.Duration
	// Jitter is the width of the uniform extra delay.
	Jitter time.Duration
	// SpikeProb is the probability of adding Spike on top.
	SpikeProb float64
	// Spike is the straggler delay.
	Spike time.Duration
}

// laneGroup is one mailbox entry: either a single operation (op) or a
// whole scattered group (ops), flagged scan when the group must be applied
// as one consistent snapshot.
type laneGroup struct {
	op   LaneOp   // single op, used when ops is nil
	ops  []LaneOp // group delivery
	scan bool
}

// heapNode is one delay-heap entry. The payload (a LaneOp or a scan group)
// lives out-of-line in the heap's slab, so sift swaps move 24 bytes instead
// of a full op record.
type heapNode struct {
	due int64 // deadline in ns since loop start epoch
	seq uint64
	idx int32 // payload slot in pendingHeap.pay
}

// heapPayload is the out-of-line op record of one heap node: a single
// operation, or an entire scan group that travels (and fires) as a unit.
type heapPayload struct {
	op   LaneOp
	scan []LaneOp // non-nil: snapshot group, applied back-to-back
}

// completion is one scan member's outcome, held between the group's applies
// and its completions.
type completion struct {
	complete CompleteFunc
	resp     baseobj.Response
	err      error
}

// LatencyLane is a delay-injecting backend: operations reach the (local)
// base object after a seeded pseudo-random delay, modelling an asynchronous
// lossless link. It composes with the Gate adversary — gate decisions
// happen at trigger and respond time as always; the lane only decides when
// a passed operation reaches the server — so chaos runs on a latency lane
// exercise held, released, *and* genuinely late operations at once.
//
// The lane is one goroutine, an event loop. A delivery appends to an
// unbounded mutex-guarded mailbox and never blocks; the loop draws each
// operation's delay, holds it in a timer heap, and when the delay expires
// applies it against the base object and runs its completion, both on the
// loop. A completion that triggers again — on this lane or another — only
// posts, so it cannot deadlock. Because the loop is the only goroutine that
// ever applies, a DeliverScan group applied back-to-back with nothing
// interleaved is a consistent snapshot without per-object locking.
//
// A delay is a floor, not a schedule: the loop sleeps on a Go timer, and
// when no goroutine is runnable the runtime's netpoller sleeps in whole
// milliseconds. Measured on a 2-vCPU Linux VM with go1.24, an idle timer
// set for 50–300 µs fires after ≈1.1 ms (p50 1.09–1.11 ms for 200 µs),
// and one set for 1.5 ms after ≈2.2 ms. So on a lightly loaded fabric
// every sequential round trip costs about 1.2 ms whatever the profile's
// Base below a millisecond, and a latency workload's time moves with the
// number of round trips an operation makes, not with the delays
// themselves.
type LatencyLane struct {
	profile LatencyProfile
	rng     *rand.Rand // drawn on the loop only

	startOnce sync.Once
	stop      chan struct{}
	notify    chan struct{} // 1-buffered nudge: the inbox is non-empty

	// Mailbox: deliveries append to inbox; the loop swaps it with spare,
	// the previous drain's emptied buffer. A closed lane takes no more.
	qmu          sync.Mutex
	inbox, spare []laneGroup
	closed       bool

	// scratch holds a scan group's outcomes until all members applied
	// (loop-only).
	scratch []completion

	// testHook, when set before the first delivery, runs on the loop
	// goroutine after each mailbox dequeue and before the group's delay
	// draw / snapshot apply. Tests use it to crash the server between
	// dequeue and snapshot, and to park the loop.
	testHook func()
}

// Compile-time interface compliance checks.
var (
	_ Lane      = (*LatencyLane)(nil)
	_ GroupLane = (*LatencyLane)(nil)
	_ ScanLane  = (*LatencyLane)(nil)
	_ Lane      = InProcLane{}
)

// NewLatencyLane creates a latency lane with its own seeded generator. The
// event loop starts lazily on the first delivery.
func NewLatencyLane(laneSeed int64, p LatencyProfile) *LatencyLane {
	return &LatencyLane{
		profile: p,
		rng:     rand.New(rand.NewSource(laneSeed)),
		stop:    make(chan struct{}),
		notify:  make(chan struct{}, 1),
	}
}

// LatencyLanes returns a maker that equips every server with a latency lane
// whose generator is an independent sub-stream of the given seed, so the
// whole fabric's delay schedule replays from one number.
func LatencyLanes(laneSeed int64, p LatencyProfile) LaneMaker {
	return func(server types.ServerID) Lane {
		return NewLatencyLane(seed.Sub(laneSeed, uint64(server)), p)
	}
}

// delay draws the next delivery delay.
func (l *LatencyLane) delay() time.Duration {
	d := l.profile.Base
	if l.profile.Jitter > 0 {
		d += time.Duration(l.rng.Int63n(int64(l.profile.Jitter)))
	}
	if l.profile.SpikeProb > 0 && l.rng.Float64() < l.profile.SpikeProb {
		d += l.profile.Spike
	}
	return d
}

// enqueue posts the group to the loop without blocking. On a closed lane
// the group is dropped: its ops stay pending forever — indistinguishable
// from ops dropped by a crash.
func (l *LatencyLane) enqueue(g laneGroup) {
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return
	}
	l.inbox = append(l.inbox, g)
	l.qmu.Unlock()
	l.startOnce.Do(func() { go l.loop() })
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// takeInbox claims the mailbox contents, swapping in the previous drain's
// buffer so a steady mailbox regrows neither. The loop clears what it took.
func (l *LatencyLane) takeInbox() []laneGroup {
	l.qmu.Lock()
	gs := l.inbox
	l.inbox, l.spare = l.spare[:0], gs
	l.qmu.Unlock()
	return gs
}

// Deliver implements Lane: the operation linearizes inside the event loop
// when its delay expires.
func (l *LatencyLane) Deliver(ev TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	l.enqueue(laneGroup{op: LaneOp{Ev: ev, Apply: apply, Complete: complete}})
}

// DeliverGroup implements GroupLane: the whole scattered group enters the
// mailbox as one entry; each member still draws its own delay, so the
// group's responses straggle exactly as independent Delivers would.
func (l *LatencyLane) DeliverGroup(ops []LaneOp) {
	if len(ops) == 0 {
		return
	}
	l.enqueue(laneGroup{ops: ops})
}

// DeliverScan implements ScanLane: the group draws one shared delay and is
// applied back-to-back inside the loop — a consistent snapshot of the
// server's objects at a single model time.
func (l *LatencyLane) DeliverScan(ops []LaneOp) {
	if len(ops) == 0 {
		return
	}
	l.enqueue(laneGroup{ops: ops, scan: true})
}

// Close implements Lane: stops the loop and drops the mailbox. Outstanding
// and still-queued operations never complete — the paper's pending-forever
// state, the same observable outcome as a crash drop.
func (l *LatencyLane) Close() error {
	l.qmu.Lock()
	if !l.closed {
		l.closed = true
		l.inbox = nil
		close(l.stop)
	}
	l.qmu.Unlock()
	return nil
}

// pendingHeap is a min-heap on (due, seq), hand-rolled to avoid both the
// interface boxing of container/heap and fat-element sift swaps: nodes are
// 24 bytes, payloads live in a free-listed slab indexed by node.
type pendingHeap struct {
	nodes []heapNode
	pay   []heapPayload
	free  []int32
	seq   uint64 // next push's tie-break: equal deadlines fire in push order
}

func (h *pendingHeap) len() int { return len(h.nodes) }

func (h *pendingHeap) less(i, j int) bool {
	a, b := &h.nodes[i], &h.nodes[j]
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

func (h *pendingHeap) push(due int64, p heapPayload) {
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
		h.pay[idx] = p
	} else {
		idx = int32(len(h.pay))
		h.pay = append(h.pay, p)
	}
	h.nodes = append(h.nodes, heapNode{due: due, seq: h.seq, idx: idx})
	h.seq++
	i := len(h.nodes) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.nodes[i], h.nodes[parent] = h.nodes[parent], h.nodes[i]
		i = parent
	}
}

// pop removes the earliest node and returns its payload, releasing the slot.
func (h *pendingHeap) pop() heapPayload {
	idx := h.nodes[0].idx
	n := len(h.nodes) - 1
	h.nodes[0] = h.nodes[n]
	h.nodes = h.nodes[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		small := left
		if right := left + 1; right < n && h.less(right, left) {
			small = right
		}
		if !h.less(small, i) {
			break
		}
		h.nodes[i], h.nodes[small] = h.nodes[small], h.nodes[i]
		i = small
	}
	p := h.pay[idx]
	h.pay[idx] = heapPayload{} // release op closures for GC
	h.free = append(h.free, idx)
	return p
}

// loop is the lane's event loop: the only goroutine that applies operations
// against this server's base objects and runs their completions.
func (l *LatencyLane) loop() {
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }

	var h pendingHeap
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()

	for {
		// Arm the timer for the earliest pending op.
		var timerC <-chan time.Time
		if h.len() > 0 {
			timer.Reset(time.Duration(h.nodes[0].due - now()))
			timerC = timer.C
		}

		select {
		case <-l.stop:
			return
		case <-l.notify:
			gs := l.takeInbox()
			for i := range gs {
				g := &gs[i]
				if l.testHook != nil {
					l.testHook()
				}
				t := now()
				switch {
				case g.scan:
					// One draw for the whole snapshot: the group arrives (and
					// linearizes) together at a single model time.
					h.push(t+int64(l.delay()), heapPayload{scan: g.ops})
				case g.ops == nil:
					h.push(t+int64(l.delay()), heapPayload{op: g.op})
				default:
					for _, op := range g.ops {
						h.push(t+int64(l.delay()), heapPayload{op: op})
					}
				}
			}
			clear(gs) // release op closures for GC, as pop does for the heap's slots
		case <-timerC:
			l.fire(&h, now())
		}
	}
}

// fire pops every entry due by t, in due order, applies it and runs its
// completion on the loop. A scan group's members all apply before any of
// them completes: past its first completion the group's slice belongs to
// another round.
func (l *LatencyLane) fire(h *pendingHeap, t int64) {
	for h.len() > 0 && h.nodes[0].due <= t {
		p := h.pop()
		if p.scan == nil {
			p.op.Complete(p.op.Apply())
			continue
		}
		out := l.scratch[:0]
		for _, op := range p.scan {
			resp, err := op.Apply()
			out = append(out, completion{complete: op.Complete, resp: resp, err: err})
		}
		for _, c := range out {
			c.complete(c.resp, c.err)
		}
		clear(out)
		l.scratch = out[:0]
	}
}
