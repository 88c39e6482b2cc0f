package fabric

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
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

// DefaultMailboxCapacity is the bound of a lane event loop's op mailbox when
// no option overrides it. The REPRO_LANE_MAILBOX environment variable
// replaces the default process-wide (the race-lanes CI variant sets it to 1
// to force every delivery through the backpressure path).
const DefaultMailboxCapacity = 1024

var envMailboxOnce sync.Once
var envMailboxCap int

func defaultMailboxCapacity() int {
	envMailboxOnce.Do(func() {
		envMailboxCap = parseMailboxCapacity(os.Getenv("REPRO_LANE_MAILBOX"))
	})
	return envMailboxCap
}

// parseMailboxCapacity maps a REPRO_LANE_MAILBOX value onto a capacity:
// any non-positive or unparsable value falls back to the default.
func parseMailboxCapacity(s string) int {
	if n, err := strconv.Atoi(s); err == nil && n > 0 {
		return n
	}
	return DefaultMailboxCapacity
}

// LatencyOption configures a LatencyLane.
type LatencyOption func(*LatencyLane)

// WithMailboxCapacity bounds the lane's op mailbox. Capacity 1 forces every
// delivery through the backpressure path (each send blocks until the loop
// dequeues the previous group); larger capacities let whole scattered rounds
// queue without blocking their triggering goroutines.
func WithMailboxCapacity(n int) LatencyOption {
	return func(l *LatencyLane) {
		if n > 0 {
			l.mailboxCap = n
		}
	}
}

// WithCoalesceWindow widens the loop's fire slack: when the delay timer
// fires, operations due within the next w are delivered in the same pass,
// giving read coalescing more ops to merge at the cost of up to w of extra
// model-time precision. Zero (the default) fires exactly on schedule.
func WithCoalesceWindow(w time.Duration) LatencyOption {
	return func(l *LatencyLane) {
		if w >= 0 {
			l.window = w
		}
	}
}

// laneGroup is one mailbox message: either a single operation (op) or a
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

// completion is one finished apply waiting for the completer goroutine.
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
// The lane is a single-goroutine event loop: deliveries enqueue into a
// bounded mailbox, the loop draws each operation's delay, holds it in a
// timer heap, and applies it against the base object when the delay
// expires. Because the loop is the only goroutine that ever applies, it
// exploits the serialization two ways: identical reads that fire in the
// same pass are answered from one apply (collect coalescing — see
// CoalescedReads), and a DeliverScan group is applied back-to-back with
// nothing interleaved, yielding a consistent snapshot without per-object
// locking. Completions are handed to a separate completer goroutine through
// an unbounded queue, so a completion that triggers a new operation on the
// same lane (a casmax chain, a round engine re-scatter) can never deadlock
// against a full mailbox.
type LatencyLane struct {
	profile    LatencyProfile
	mailboxCap int
	window     time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	startOnce sync.Once
	stopOnce  sync.Once
	mb        chan laneGroup
	stop      chan struct{}

	// Completion queue: mutex-guarded slice drained by the completer
	// goroutine, signalled by a 1-buffered channel.
	cmu  sync.Mutex
	cq   []completion
	csig chan struct{}

	// scratch is fire's reusable completion-staging buffer and cache its
	// read-coalescing cache, emptied after every pass (both loop-only).
	scratch []completion
	cache   map[types.ObjectID]cachedRead

	coalesced atomic.Uint64

	// testHook, when set before the first delivery, runs on the loop
	// goroutine after each mailbox dequeue and before the group's delay
	// draw / snapshot apply. Tests use it to crash the server in the
	// dequeue-to-snapshot window.
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
func NewLatencyLane(laneSeed int64, p LatencyProfile, opts ...LatencyOption) *LatencyLane {
	l := &LatencyLane{
		profile:    p,
		rng:        rand.New(rand.NewSource(laneSeed)),
		mailboxCap: defaultMailboxCapacity(),
		stop:       make(chan struct{}),
		csig:       make(chan struct{}, 1),
		cache:      make(map[types.ObjectID]cachedRead),
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// LatencyLanes returns a maker that equips every server with a latency lane
// whose generator is an independent sub-stream of the given seed, so the
// whole fabric's delay schedule replays from one number.
func LatencyLanes(laneSeed int64, p LatencyProfile, opts ...LatencyOption) LaneMaker {
	return func(server types.ServerID) Lane {
		return NewLatencyLane(seed.Sub(laneSeed, uint64(server)), p, opts...)
	}
}

// delay draws the next delivery delay.
func (l *LatencyLane) delay() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.profile.Base
	if l.profile.Jitter > 0 {
		d += time.Duration(l.rng.Int63n(int64(l.profile.Jitter)))
	}
	if l.profile.SpikeProb > 0 && l.rng.Float64() < l.profile.SpikeProb {
		d += l.profile.Spike
	}
	return d
}

// CoalescedReads reports how many read operations were answered from
// another read's apply instead of their own (collect coalescing).
func (l *LatencyLane) CoalescedReads() uint64 { return l.coalesced.Load() }

func (l *LatencyLane) start() {
	l.startOnce.Do(func() {
		l.mb = make(chan laneGroup, l.mailboxCap)
		go l.loop()
		go l.completer()
	})
}

// enqueue blocks until the loop accepts the group (backpressure) or the
// lane closes, in which case the ops silently stay pending forever —
// indistinguishable from ops dropped by a crash.
func (l *LatencyLane) enqueue(g laneGroup) {
	l.start()
	select {
	case l.mb <- g:
	case <-l.stop:
	}
}

// Deliver implements Lane: the operation linearizes inside the event loop
// when its delay expires.
func (l *LatencyLane) Deliver(ev TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	l.enqueue(laneGroup{op: LaneOp{Ev: ev, Apply: apply, Complete: complete}})
}

// DeliverGroup implements GroupLane: the whole scattered group enters the
// mailbox as one message; each member still draws its own delay, so the
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

// Close implements Lane: stops the loop and completer. Outstanding and
// still-enqueued operations never complete — the paper's pending-forever
// state, the same observable outcome as a crash drop.
func (l *LatencyLane) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	return nil
}

// pendingHeap is a min-heap on (due, seq), hand-rolled to avoid both the
// interface boxing of container/heap and fat-element sift swaps: nodes are
// 24 bytes, payloads live in a free-listed slab indexed by node.
type pendingHeap struct {
	nodes []heapNode
	pay   []heapPayload
	free  []int32
}

func (h *pendingHeap) len() int { return len(h.nodes) }

func (h *pendingHeap) less(i, j int) bool {
	a, b := &h.nodes[i], &h.nodes[j]
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

func (h *pendingHeap) push(due int64, seq uint64, p heapPayload) {
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
		h.pay[idx] = p
	} else {
		idx = int32(len(h.pay))
		h.pay = append(h.pay, p)
	}
	h.nodes = append(h.nodes, heapNode{due: due, seq: seq, idx: idx})
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

// pop removes the earliest node and returns its payload slot. The caller
// must release the slot with put after consuming the payload.
func (h *pendingHeap) pop() int32 {
	top := h.nodes[0].idx
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
	return top
}

// put releases a payload slot back to the free list.
func (h *pendingHeap) put(idx int32) {
	h.pay[idx] = heapPayload{} // release op closures for GC
	h.free = append(h.free, idx)
}

// loop is the lane's event loop: the only goroutine that applies operations
// against this server's base objects.
func (l *LatencyLane) loop() {
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }

	var h pendingHeap
	var seq uint64

	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	timerArmed := false

	admit := func(g laneGroup) {
		if l.testHook != nil {
			l.testHook()
		}
		t := now()
		if g.scan {
			// One draw for the whole snapshot: the group arrives (and
			// linearizes) together at a single model time.
			h.push(t+int64(l.delay()), seq, heapPayload{scan: g.ops})
			seq++
			return
		}
		ops := g.ops
		if ops == nil {
			h.push(t+int64(l.delay()), seq, heapPayload{op: g.op})
			seq++
			return
		}
		for _, op := range ops {
			h.push(t+int64(l.delay()), seq, heapPayload{op: op})
			seq++
		}
	}

	for {
		// Arm the timer for the earliest pending op.
		var timerC <-chan time.Time
		if h.len() > 0 {
			if timerArmed && !timer.Stop() {
				<-timer.C
			}
			timer.Reset(time.Duration(h.nodes[0].due - now()))
			timerArmed = true
			timerC = timer.C
		} else if timerArmed {
			if !timer.Stop() {
				<-timer.C
			}
			timerArmed = false
		}

		select {
		case <-l.stop:
			return
		case g := <-l.mb:
			admit(g)
			// Drain whatever else is already queued before re-arming: a
			// scattered round delivered as several sends coalesces into
			// one heap refill.
			for drained := false; !drained; {
				select {
				case g := <-l.mb:
					admit(g)
				default:
					drained = true
				}
			}
		case <-timerC:
			timerArmed = false
			l.fire(&h, now())
		}
	}
}

// cachedRead is one entry of fire's read-coalescing cache.
type cachedRead struct {
	op   baseobj.OpCode
	resp baseobj.Response
	err  error
}

// fire pops and applies every entry due by t (plus the coalescing window),
// in due order. Identical reads on the same object with no intervening
// write are answered from a single apply (collect coalescing).
func (l *LatencyLane) fire(h *pendingHeap, t int64) {
	horizon := t + int64(l.window)
	if h.len() == 0 || h.nodes[0].due > horizon {
		return
	}

	// Read-coalescing cache: object → outcome of the last apply on that
	// object in this pass, kept only while it stays a read.
	cache := l.cache

	out := l.scratch[:0]
	for h.len() > 0 && h.nodes[0].due <= horizon {
		idx := h.pop()
		p := &h.pay[idx]
		if p.scan != nil {
			// Snapshot group: applied back-to-back; the loop is the only
			// applier, so nothing interleaves. Scans bypass the read cache
			// — each member must observe the snapshot, not a response
			// recorded before it.
			for _, op := range p.scan {
				resp, err := op.Apply()
				out = append(out, completion{complete: op.Complete, resp: resp, err: err})
			}
			h.put(idx)
			continue
		}
		op := &p.op
		code := op.Ev.Inv.Op
		switch {
		case !code.IsRead():
			delete(cache, op.Ev.Object)
			resp, err := op.Apply()
			out = append(out, completion{complete: op.Complete, resp: resp, err: err})
		default:
			if c, ok := cache[op.Ev.Object]; ok && c.op == code {
				l.coalesced.Add(1)
				out = append(out, completion{complete: op.Complete, resp: c.resp, err: c.err})
				break
			}
			resp, err := op.Apply()
			cache[op.Ev.Object] = cachedRead{op: code, resp: resp, err: err}
			out = append(out, completion{complete: op.Complete, resp: resp, err: err})
		}
		h.put(idx)
	}
	l.cmu.Lock()
	l.cq = append(l.cq, out...)
	l.cmu.Unlock()
	clear(out) // release op closures for GC, as put does for the heap's slots
	clear(cache)
	l.scratch = out[:0]
	select {
	case l.csig <- struct{}{}:
	default:
	}
}

// completer drains the completion queue. Running completions off the loop
// goroutine keeps the loop free to dequeue: a completion that triggers a
// new op on this very lane blocks (at worst) on the mailbox, which the loop
// is always able to drain.
func (l *LatencyLane) completer() {
	var q []completion // the drained buffer, swapped with cq every pass
	for {
		l.cmu.Lock()
		q, l.cq = l.cq, q[:0]
		l.cmu.Unlock()
		if len(q) == 0 {
			select {
			case <-l.csig:
				continue
			case <-l.stop:
				return
			}
		}
		for _, c := range q {
			c.complete(c.resp, c.err)
		}
		clear(q) // release op callbacks and responses for GC
	}
}
