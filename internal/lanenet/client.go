package lanenet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// writeTimeout bounds one flush against a stalled peer: a node that stops
// draining its socket long enough to back pressure all the way into a
// blocked Write is indistinguishable from a dead node, and reconnect-as-
// crash handles it the same way.
const writeTimeout = 10 * time.Second

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTable binds the connection onto the node's named object table: the
// bind frame is queued before anything else, so every placement and
// invocation of this lane lands in that table. Sharded stores use one table
// per shard, letting several shards' fabrics — whose object ids all start
// at zero — share one node process without colliding.
func WithTable(name string) ClientOption {
	return func(c *Client) { c.table = name }
}

// outKind discriminates queued frames.
type outKind uint8

const (
	outPlace outKind = iota // pre-encoded no-reply frame body (placement, table bind)
	outApply                // one invocation
	outScan                 // an all-read snapshot group
)

// outItem is one queued frame awaiting the flusher.
type outItem struct {
	kind     outKind
	body     []byte // outPlace
	ev       fabric.TriggerEvent
	complete fabric.CompleteFunc // outApply
	ops      []fabric.LaneOp     // outScan
}

// slot is one request awaiting its response. A plain apply keeps its
// completion inline in first; more holds only the extra callers of reads
// coalesced onto the request, or — for a scan, whose first is nil — every
// member's completion in request order. more's backing array is on loan from
// the connection's free list (Client.spare) and goes back after the fan-out.
type slot struct {
	req   uint64 // 0: the slot is free (ids start at 1)
	first fabric.CompleteFunc
	more  []fabric.CompleteFunc
	scan  bool
}

// slotTable matches responses to requests. Request ids are dense and
// sequential per connection and the node answers in order, so the requests
// in flight occupy a short window of consecutive ids: a power-of-two ring
// indexed by id & mask holds them without hashing. Each slot records the id
// it holds, so a response for any other id — never issued, already taken,
// or discarded by fail — misses, exactly like an unknown map key. The ring
// doubles when a new id lands on an occupied slot. The caller serializes
// access (Client.mu).
type slotTable struct {
	slots []slot
}

// initialSlots is the ring's starting size; it grows to the deepest
// pipeline the connection has carried.
const initialSlots = 64

// put records a request, doubling the ring until the request's slot is
// free. Distinct ids that did not collide before a doubling do not collide
// after it, so only the new id can force another round.
func (t *slotTable) put(s slot) {
	if t.slots == nil {
		t.slots = make([]slot, initialSlots)
	}
	for t.home(s.req).req != 0 {
		old := t.slots
		t.slots = make([]slot, 2*len(old))
		for _, o := range old {
			if o.req != 0 {
				*t.home(o.req) = o
			}
		}
	}
	*t.home(s.req) = s
}

// home returns the slot req maps to in the (non-empty) ring.
func (t *slotTable) home(req uint64) *slot {
	return &t.slots[req&uint64(len(t.slots)-1)]
}

// at returns the live slot holding req, or nil.
func (t *slotTable) at(req uint64) *slot {
	if t.slots == nil || req == 0 {
		return nil
	}
	if s := t.home(req); s.req == req {
		return s
	}
	return nil
}

// take claims the request's slot and frees it.
func (t *slotTable) take(req uint64) (slot, bool) {
	s := t.at(req)
	if s == nil {
		return slot{}, false
	}
	claimed := *s
	*s = slot{}
	return claimed, true
}

// Client is the fabric side of a network lane: one pooled, multiplexed TCP
// connection to one server's storage node. It implements fabric.Lane,
// fabric.GroupLane, and fabric.ScanLane (pipelined asynchronous delivery),
// fabric.ObjectMirror (placement replication), and fabric.CrashReporter
// (reconnect-as-crash: a broken connection crashes the lane's server and
// the lane never delivers again).
//
// Deliveries do not write the socket: they enqueue, and a single flusher
// goroutine drains the queue, coalesces identical queued reads into one
// wire request, concatenates every queued frame, and writes them in one
// deadline-bounded Write. Responses are matched by request id in the read
// loop, so many operations are in flight per connection at once (the
// pipeline) and no sender ever blocks on a slow peer.
type Client struct {
	conn net.Conn

	table string

	// Outbound queue, drained by the flusher.
	qmu   sync.Mutex
	queue []outItem
	qsig  chan struct{}

	mu      sync.Mutex
	pending slotTable
	spare   [][]fabric.CompleteFunc // emptied slot.more arrays, from the read loop to the flusher
	hook    func()                  // crash hook installed by the fabric

	// Owned by the flusher goroutine.
	nextReq uint64                  // last request id issued
	scanBuf []scanEntry             // reused msgScan member list
	slots   []slot                  // the batch's requests, registered together before the write
	reads   map[readKey]int         // the batch's wire reads, by index in slots
	more    [][]fabric.CompleteFunc // spare arrays taken over at the last registration

	spent []fabric.CompleteFunc // owned by the read loop: the last claimed slot's more

	crashed  atomic.Bool
	closing  atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once

	coalesced atomic.Uint64
	bytesOut  atomic.Uint64
	bytesIn   atomic.Uint64
	framesOut atomic.Uint64
	framesIn  atomic.Uint64

	// testHook, when set before the first delivery, runs on the flusher
	// goroutine after each queue drain and before the batch is encoded and
	// written. Tests use it to sever the connection in the dequeue-to-write
	// window.
	testHook func()
}

// Compile-time interface compliance checks.
var (
	_ fabric.Lane          = (*Client)(nil)
	_ fabric.GroupLane     = (*Client)(nil)
	_ fabric.ScanLane      = (*Client)(nil)
	_ fabric.CrashReporter = (*Client)(nil)
	_ fabric.ObjectMirror  = (*Client)(nil)
)

// Dial connects to one storage node.
func Dial(addr string, timeout time.Duration, opts ...ClientOption) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("lanenet: dialing %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // the flusher already batches; don't add Nagle on top
	}
	return newClient(conn, opts), nil
}

// newClient starts a client over an established connection.
func newClient(conn net.Conn, opts []ClientOption) *Client {
	c := &Client{
		conn:  conn,
		qsig:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		reads: make(map[readKey]int),
	}
	for _, o := range opts {
		o(c)
	}
	if c.table != "" {
		// Queued before the goroutines start, so the bind is the first
		// frame on the wire: every later placement and invocation of this
		// lane operates on the bound table.
		c.enqueue(outItem{kind: outPlace, body: appendBind(nil, c.table)})
	}
	go c.readLoop()
	go c.flusher()
	return c
}

// Lanes dials one node per server and returns the fabric lane maker plus
// the dialed clients (for tests that sever individual connections). addrs
// is indexed by server id.
func Lanes(addrs []string, timeout time.Duration, opts ...ClientOption) (fabric.LaneMaker, []*Client, error) {
	clients := make([]*Client, len(addrs))
	for i, addr := range addrs {
		c, err := Dial(addr, timeout, opts...)
		if err != nil {
			for _, prev := range clients[:i] {
				_ = prev.Close()
			}
			return nil, nil, err
		}
		clients[i] = c
	}
	maker := func(server types.ServerID) fabric.Lane {
		if int(server) >= len(clients) {
			// More servers than nodes is a wiring error; a nil-conn
			// client would panic, so fail loudly at construction.
			panic(fmt.Sprintf("lanenet: no node address for server %d (have %d)", server, len(clients)))
		}
		return clients[server]
	}
	return maker, clients, nil
}

// SetCrashHook implements fabric.CrashReporter. If the transport already
// failed — the node died between Dial and the fabric wiring its lanes —
// the hook fires immediately: the crash must reach the fabric no matter
// which side of the installation the failure landed on.
func (c *Client) SetCrashHook(fn func()) {
	c.mu.Lock()
	c.hook = fn
	crashed := c.crashed.Load()
	c.mu.Unlock()
	if crashed && !c.closing.Load() && fn != nil {
		fn()
	}
}

// CoalescedReads reports how many read requests were merged into another
// identical queued read instead of going on the wire themselves.
func (c *Client) CoalescedReads() uint64 { return c.coalesced.Load() }

// ConnStats is a point-in-time snapshot of one connection's traffic.
// Byte counts include the 4-byte frame headers — they are what actually
// crossed the wire, which is the quantity the space/bandwidth experiments
// compare against the coded fragment sizes.
type ConnStats struct {
	FramesOut uint64 // frames written (after coalescing)
	FramesIn  uint64 // response frames received
	BytesOut  uint64 // bytes written, headers included
	BytesIn   uint64 // bytes received, headers included
}

// Stats returns this connection's traffic counters.
func (c *Client) Stats() ConnStats {
	return ConnStats{
		FramesOut: c.framesOut.Load(),
		FramesIn:  c.framesIn.Load(),
		BytesOut:  c.bytesOut.Load(),
		BytesIn:   c.bytesIn.Load(),
	}
}

// enqueue appends one frame to the outbound queue and nudges the flusher.
func (c *Client) enqueue(it outItem) {
	c.qmu.Lock()
	c.queue = append(c.queue, it)
	c.qmu.Unlock()
	select {
	case c.qsig <- struct{}{}:
	default:
	}
}

// MirrorObject implements fabric.ObjectMirror: it replicates the object's
// kind (and, for registers, the writer range) to the node before
// any operation on the object is delivered. The placement rides the same
// FIFO queue as invocations, preserving place-before-apply.
func (c *Client) MirrorObject(obj baseobj.Object) {
	// The full state ships, not the timestamp alone: that would lose payload
	// bytes and fragments on reconfiguration.
	p := placeReq{obj: obj.ID(), kind: obj.Kind(), writers: obj.Writers(), state: obj.PeekState()}
	c.enqueue(outItem{kind: outPlace, body: appendPlace(nil, p)})
}

// Deliver implements fabric.Lane. A crashed lane never delivers and never
// completes: the op stays pending forever, exactly like an op triggered on
// a crashed server. The local apply closure is unused — the authoritative
// object state lives in the node.
func (c *Client) Deliver(ev fabric.TriggerEvent, _ fabric.ApplyFunc, complete fabric.CompleteFunc) {
	if c.crashed.Load() {
		return
	}
	c.enqueue(outItem{kind: outApply, ev: ev, complete: complete})
}

// DeliverGroup implements fabric.GroupLane: the whole scattered group
// enters the queue together, so one flush carries it in one Write.
func (c *Client) DeliverGroup(ops []fabric.LaneOp) {
	if c.crashed.Load() {
		return
	}
	c.qmu.Lock()
	for _, op := range ops {
		c.queue = append(c.queue, outItem{kind: outApply, ev: op.Ev, complete: op.Complete})
	}
	c.qmu.Unlock()
	select {
	case c.qsig <- struct{}{}:
	default:
	}
}

// DeliverScan implements fabric.ScanLane: the group travels as one msgScan
// frame and the node answers every member from one consistent snapshot.
func (c *Client) DeliverScan(ops []fabric.LaneOp) {
	if c.crashed.Load() || len(ops) == 0 {
		return
	}
	c.enqueue(outItem{kind: outScan, ops: ops})
}

// flusher drains the outbound queue: it registers each request's pending
// completion, coalesces identical queued reads into one wire request,
// encodes every frame into one buffer, and writes the buffer with a single
// deadline-bounded Write. Holding no lock across the Write, a slow peer
// blocks only this goroutine — deliveries keep queueing — until the
// deadline converts the stall into a crash.
func (c *Client) flusher() {
	var buf []byte
	var batch []outItem
	for {
		select {
		case <-c.stop:
			return
		case <-c.qsig:
		}
		c.qmu.Lock()
		batch, c.queue = c.queue, batch[:0]
		c.qmu.Unlock()
		if len(batch) == 0 || c.crashed.Load() {
			continue
		}
		if c.testHook != nil {
			c.testHook()
		}
		var ok bool
		if buf, ok = c.encodeBatch(buf[:0], batch); !ok {
			c.fail()
			return
		}
		if len(buf) == 0 {
			continue
		}
		_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := c.conn.Write(buf); err != nil {
			c.fail()
			return
		}
		c.bytesOut.Add(uint64(len(buf)))
	}
}

// readKey identifies the reads one wire request can answer.
type readKey struct {
	obj types.ObjectID
	op  baseobj.OpCode
}

// encodeBatch encodes one drained queue into a single write buffer, each
// frame written in place behind its back-patched length prefix, and registers
// the batch's pending completions in one critical section at the end — before
// the flusher writes, so no response can precede its registration. Identical
// reads (same object, same read op) queued in the same batch collapse onto one
// wire request: none of them has been sent yet, so all their invocations
// precede the shared apply and one response answers every caller.
//
// An invocation whose encoding exceeds maxFrame completes on the spot with
// ErrFrameTooLarge — it is the caller's input that is at fault, not the
// server, so it must not cost a crash. ok is false only when a no-reply
// frame (a placement) is too large: the node cannot host that object, which
// leaves the lane as useless as a dead node.
func (c *Client) encodeBatch(buf []byte, batch []outItem) (_ []byte, ok bool) {
	slots := c.slots[:0]
	var frames uint64

	for i := range batch {
		it := &batch[i]
		var start int
		var err error
		switch it.kind {
		case outPlace:
			buf, start = beginFrame(buf)
			if buf, err = endFrame(append(buf, it.body...), start); err != nil {
				return buf, false
			}
		case outApply:
			isRead := it.ev.Inv.Op.IsRead()
			k := readKey{obj: it.ev.Object, op: it.ev.Inv.Op}
			if isRead {
				if j, dup := c.reads[k]; dup {
					c.coalesced.Add(1)
					s := &slots[j]
					if s.more == nil {
						s.more = c.spareMore()
					}
					s.more = append(s.more, it.complete)
					continue
				}
			}
			req := c.nextReq + 1
			buf, start = beginFrame(buf)
			buf = appendApply(buf, applyReq{req: req, obj: it.ev.Object, client: it.ev.Client, inv: it.ev.Inv})
			if buf, err = endFrame(buf, start); err != nil {
				it.complete(baseobj.Response{}, err)
				continue
			}
			c.nextReq = req
			if isRead {
				c.reads[k] = len(slots)
			}
			slots = append(slots, slot{req: req, first: it.complete})
		case outScan:
			req := c.nextReq + 1
			entries, completes := c.scanBuf[:0], c.spareMore()
			for j := range it.ops {
				op := &it.ops[j]
				entries = append(entries, scanEntry{obj: op.Ev.Object, client: op.Ev.Client, op: op.Ev.Inv.Op})
				completes = append(completes, op.Complete)
			}
			c.scanBuf = entries
			buf, start = beginFrame(buf)
			// 11 bytes plus 9 per member of a u16 count: always in bounds.
			buf, _ = endFrame(appendScan(buf, req, entries), start)
			c.nextReq = req
			slots = append(slots, slot{req: req, more: completes, scan: true})
		}
		frames++
	}
	c.mu.Lock()
	for i := range slots {
		c.pending.put(slots[i])
	}
	c.more, c.spare = append(c.more, c.spare...), c.spare[:0]
	c.mu.Unlock()
	// Release references so the reused slices don't retain them.
	clear(batch)
	clear(slots)
	clear(c.reads)
	c.slots = slots[:0]
	c.framesOut.Add(frames)
	return buf, true
}

// spareMore returns an empty slot.more array: a recycled one when the flusher
// holds any, else nil for append to grow.
func (c *Client) spareMore() (more []fabric.CompleteFunc) {
	if n := len(c.more); n > 0 {
		more, c.more = c.more[n-1], c.more[:n-1]
	}
	return more
}

// take claims a pending request for the read loop. The slot's more array is
// the loop's to fan out from until its next take, which files it — emptied —
// for the flusher to lend out again, in the critical section it takes anyway.
func (c *Client) take(req uint64) (slot, bool) {
	c.mu.Lock()
	if cap(c.spent) > 0 {
		clear(c.spent)
		c.spare = append(c.spare, c.spent[:0])
	}
	s, ok := c.pending.take(req)
	c.mu.Unlock()
	c.spent = s.more
	return s, ok
}

// readLoop matches responses to pending deliveries until the connection
// breaks. It reads through the frame reader's buffer, so one socket read
// takes in the node's whole response burst, and decodes each frame in place:
// frame is a view that the next iteration invalidates, and nothing below
// keeps a reference into it (the decoders copy).
func (c *Client) readLoop() {
	fr := newFrameReader(c.conn)
	for {
		frame, err := fr.next()
		if err != nil {
			c.fail()
			return
		}
		if len(frame) == 0 {
			c.fail()
			return
		}
		c.framesIn.Add(1)
		c.bytesIn.Add(uint64(len(frame)) + 4) // + the frame header
		switch frame[0] {
		case msgResp:
			r, err := decodeResp(frame[1:])
			if err != nil {
				c.fail()
				return
			}
			s, ok := c.take(r.req)
			if !ok {
				continue // response to an op a crash already discarded
			}
			if s.scan {
				c.fail()
				return // protocol violation: a plain response to a scan
			}
			rerr := respError(r)
			s.first(r.resp, rerr)
			for _, complete := range s.more {
				complete(r.resp, rerr)
			}
		case msgScanResp:
			req, results, err := decodeScanResp(frame[1:])
			if err != nil {
				c.fail()
				return
			}
			s, ok := c.take(req)
			if !ok {
				continue
			}
			if !s.scan || len(results) != len(s.more) {
				c.fail()
				return // protocol violation: member count mismatch
			}
			for i, r := range results {
				s.more[i](r.resp, respError(r))
			}
		default:
			c.fail()
			return
		}
	}
}

// respError rehydrates the canonical sentinel errors so errors.Is works
// across the wire.
func respError(r applyResp) error {
	switch r.status {
	case statusOK:
		return nil
	case statusWrongOp:
		return fmt.Errorf("%w: %s", baseobj.ErrWrongOp, r.msg)
	case statusUnauthorizedWriter:
		return fmt.Errorf("%w: %s", baseobj.ErrUnauthorizedWriter, r.msg)
	case statusUnknownObject:
		return fmt.Errorf("lanenet: %s", r.msg)
	default:
		return fmt.Errorf("lanenet: node error: %s", r.msg)
	}
}

// fail maps transport failure onto the fail-stop model: the lane stops
// delivering, discards every pending completion (those ops stay pending
// forever), and fires the crash hook so the fabric crashes the server. A
// deliberate Close skips the hook — tearing an environment down is not a
// crash.
func (c *Client) fail() {
	if !c.crashed.CompareAndSwap(false, true) {
		return
	}
	_ = c.conn.Close()
	c.mu.Lock()
	c.pending = slotTable{}
	hook := c.hook
	c.mu.Unlock()
	if hook != nil && !c.closing.Load() {
		hook()
	}
}

// Crashed reports whether the lane's transport has failed.
func (c *Client) Crashed() bool { return c.crashed.Load() }

// Close implements fabric.Lane.
func (c *Client) Close() error {
	c.closing.Store(true)
	c.stopOnce.Do(func() { close(c.stop) })
	return c.conn.Close()
}
