// Package async is the completion-based client engine: it drives any
// emulation.Register construction through StartWrite/StartRead handles so
// that a single goroutine can keep thousands of high-level operations in
// flight at once.
//
// The paper's clients are deterministic state machines — an operation is an
// invocation, a stretch of low-level triggers and responses, and a return —
// and nothing in the model ties one client to one OS thread. Every
// construction is written that way, as a callback chain behind its handles'
// StartWrite/StartRead (a blocking Write/Read is an adapter over the same
// chain), and the engine multiplexes any number of logical clients over one
// event loop, freestore-style.
//
// # Event loop and mailbox
//
// All engine state is owned by a single loop goroutine. Client calls
// (Client.StartWrite / Client.StartRead) and construction completions post
// events into an unbounded mutex-guarded mailbox and never block. The loop
// drains the mailbox, starts operations on
// the underlying construction, and fires user completion callbacks.
// Callbacks run on the loop goroutine and may immediately start the
// client's next operation (the closed-loop pattern), which enqueues rather
// than recurses. Operation records are recycled once their callback
// returned, so an operation in steady state allocates nothing; nothing
// changes for callers, who never see a record.
//
// # Per-client serialization
//
// The paper's histories are well-formed: a client invokes its next
// operation only after the previous one returned. The engine enforces this
// per logical client — a second StartWrite/StartRead on a busy client is
// queued and started only after the previous operation's completion fired —
// so histories produced through the engine stay checkable by internal/spec
// no matter how the caller issues work.
//
// # Cancellation and crashes
//
// An operation whose quorum can never complete (more than f servers
// crashed, or responses held forever) simply never completes, exactly like
// the paper's pending ops. The engine's context bounds that wait: Close —
// or the context's own cancellation — fails every queued and in-flight
// operation with ErrClosed, fires their callbacks, and stops the loop.
// Every chain runs under the engine's context, so a closed engine's
// operations start no further round and schedule no further view-change
// retry; the low-level ops already triggered stay pending in the fabric,
// and their late completions are dropped at the mailbox, so nothing ever
// blocks or fires twice.
package async

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/emulation"
	"repro/internal/types"
)

// ErrClosed is reported by every operation that the engine abandoned
// because it was closed (explicitly or by its context).
var ErrClosed = errors.New("async: engine closed")

// Engine multiplexes completion-based clients of emulated registers over a
// single event-loop goroutine. It is bound to no particular register: every
// client names its own through WriterOn/ReaderOn — the sharded store runs a
// pool of engine loops over the registers of all its shards.
type Engine struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// inbox collects posted events; spare is the previous drain's buffer,
	// handled and cleared, which the next takeInbox swaps back in.
	inbox, spare []event
	closed       bool
	outstanding  int64
	waiters      []chan struct{}
	clients      []*Client

	notify   chan struct{}
	loopDone chan struct{}

	// Stats counters; written by the loop, read from anywhere.
	started     atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithContext bounds the engine's lifetime: when ctx is cancelled the
// engine closes, failing all queued and in-flight operations.
func WithContext(ctx context.Context) Option {
	return func(e *Engine) { e.ctx = ctx }
}

// NewDetached creates an engine and starts its event loop. Every client is
// created through WriterOn/ReaderOn, naming its register explicitly: the
// sharded store's M loops share the registers of its S shards, each key's
// clients pinned to one loop by the store's key-affinity routing.
func NewDetached(opts ...Option) *Engine {
	e := &Engine{
		ctx:      context.Background(),
		notify:   make(chan struct{}, 1),
		loopDone: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	e.ctx, e.cancel = context.WithCancel(e.ctx)
	go e.loop()
	return e
}

// Stats is a snapshot of the engine's operation counters.
type Stats struct {
	// Started counts operations handed to the construction; Completed and
	// Failed partition the ones whose completion fired.
	Started, Completed, Failed int64
	// InFlight is the number of started-but-uncompleted operations now;
	// MaxInFlight is the highest concurrency the engine reached.
	InFlight, MaxInFlight int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Started:     e.started.Load(),
		Completed:   e.completed.Load(),
		Failed:      e.failed.Load(),
		InFlight:    e.inFlight.Load(),
		MaxInFlight: e.maxInFlight.Load(),
	}
}

// op is one queued or in-flight high-level operation. Ops are recycled: the
// completions the construction is handed are method values bound once, when
// the op was made, and the op returns to the pool in one place — handle,
// after its user callback ran. An op whose chain never completes, and one
// the shutdown sweep failed, are never recycled: the latter's chain may still
// fire, and its late completion must find its own dead op and be dropped at
// the closed mailbox, never the op's next tenant on another engine (ROADMAP,
// Op storage lifetime).
type op struct {
	c       *Client
	v       types.Value
	onWrite func(error)
	onRead  func(types.Value, error)

	writeDone func(error)              // o.wrote
	readDone  func(types.Value, error) // o.read
}

// ops has no New: it would close an initialization cycle through wrote.
var ops sync.Pool

func (o *op) wrote(err error) { o.c.eng.postDone(o, types.InitialValue, err) }

func (o *op) read(v types.Value, err error) { o.c.eng.postDone(o, v, err) }

// fire runs the op's callback: a read's with v, a write's without.
func (o *op) fire(v types.Value, err error) {
	if o.onWrite != nil {
		o.onWrite(err)
	} else {
		o.onRead(v, err)
	}
}

// event is one mailbox entry.
type event struct {
	op  *op
	val types.Value
	err error
	// done distinguishes a completion from a start request.
	done bool
}

// Client is one logical client: a writer or reader of the underlying
// register, driven through the engine. Operations on one client are
// serialized (queued) in invocation order; operations on different clients
// interleave freely. Start methods are safe from any goroutine, including
// from completion callbacks.
type Client struct {
	eng *Engine
	id  types.ClientID
	w   *emulation.Writer
	r   *emulation.Reader

	// active and the queue are owned by the engine loop; queue[head:] are
	// the ops waiting behind active, in invocation order.
	queue  []*op
	head   int
	active *op
}

// Client returns the logical client's ID.
func (c *Client) Client() types.ClientID { return c.id }

// WriterOn returns the engine client for writer i of reg; one engine drives
// clients of many registers through one loop. Repeated calls with the same
// (reg, i) return the same client: the underlying per-writer state admits
// one driver, so the client claims writer i's handle (emulation.Writer.Claim)
// and a repeated call finds it there — the engine keeps no index of its
// writers. A handle another engine claimed is refused.
func (e *Engine) WriterOn(reg emulation.Register, i int) (*Client, error) {
	w, err := reg.Writer(i)
	if err != nil {
		return nil, err
	}
	c := &Client{eng: e, id: w.Client(), w: w}
	if prev := w.Claim(c).(*Client); prev != c {
		if prev.eng != e {
			return nil, fmt.Errorf("async: writer %d of %s is driven by another engine", i, reg.Name())
		}
		return prev, nil
	}
	e.mu.Lock()
	e.clients = append(e.clients, c)
	e.mu.Unlock()
	return c, nil
}

// ReaderOn returns a fresh reader client on reg. Safe from any goroutine,
// including engine callbacks.
func (e *Engine) ReaderOn(reg emulation.Register) *Client {
	r := reg.NewReader()
	c := &Client{eng: e, id: r.Client(), r: r}
	e.mu.Lock()
	e.clients = append(e.clients, c)
	e.mu.Unlock()
	return c
}

// StartWrite enqueues a high-level write for this client; done fires
// exactly once, on the engine loop, when the write completes or the engine
// closes. done must not block; it may start the client's next operation.
func (c *Client) StartWrite(v types.Value, done func(error)) {
	if c.w == nil {
		done(fmt.Errorf("async: client %d is a reader", c.id))
		return
	}
	c.start(v, done, nil)
}

// StartRead enqueues a high-level read; the same contract as StartWrite.
func (c *Client) StartRead(done func(types.Value, error)) {
	if c.r == nil {
		done(types.InitialValue, fmt.Errorf("async: client %d is a writer", c.id))
		return
	}
	c.start(types.InitialValue, nil, done)
}

// start posts one operation on a recycled op.
func (c *Client) start(v types.Value, onWrite func(error), onRead func(types.Value, error)) {
	o, _ := ops.Get().(*op)
	if o == nil {
		o = new(op)
		o.writeDone, o.readDone = o.wrote, o.read
	}
	o.c, o.v, o.onWrite, o.onRead = c, v, onWrite, onRead
	c.eng.post(o)
}

// post enqueues a start request, failing it immediately when the engine is
// closed. It never blocks.
func (e *Engine) post(o *op) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		o.fire(types.InitialValue, ErrClosed)
		return
	}
	e.outstanding++
	e.inbox = append(e.inbox, event{op: o})
	e.mu.Unlock()
	e.wake()
}

// postDone enqueues a completion; late completions after close are
// dropped (their op was already failed by the shutdown sweep).
func (e *Engine) postDone(o *op, v types.Value, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.inbox = append(e.inbox, event{op: o, val: v, err: err, done: true})
	e.mu.Unlock()
	e.wake()
}

// wake nudges the loop; the 1-buffered notify coalesces bursts.
func (e *Engine) wake() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// takeInbox claims the mailbox contents, swapping in the buffer of the
// previous drain so that a steady mailbox regrows neither. The loop clears
// what it took once handled, so the idle buffer pins no op.
func (e *Engine) takeInbox() []event {
	e.mu.Lock()
	evs := e.inbox
	e.inbox, e.spare = e.spare[:0], evs
	e.mu.Unlock()
	return evs
}

// loop is the engine: it drains the mailbox until the context closes it.
func (e *Engine) loop() {
	defer close(e.loopDone)
	for {
		select {
		case <-e.ctx.Done():
			e.shutdown()
			return
		case <-e.notify:
			// The drain re-checks the context each round: on a synchronous
			// lane a closed-loop caller refills the mailbox from inside
			// handle(), so without the check a cancelled engine would spin
			// here forever and Close() would never return.
			for types.CtxErr(e.ctx) == nil {
				evs := e.takeInbox()
				if len(evs) == 0 {
					break
				}
				for i := range evs {
					e.handle(&evs[i])
				}
				clear(evs)
			}
			e.checkIdle()
		}
	}
}

// handle processes one mailbox event on the loop goroutine.
func (e *Engine) handle(ev *event) {
	o, c := ev.op, ev.op.c
	if !ev.done {
		if c.active == nil {
			e.begin(o)
		} else {
			c.queue = append(c.queue, o)
		}
		return
	}
	if c.active != o {
		return // stale completion for an op the shutdown sweep failed
	}
	c.active = nil
	e.inFlight.Add(-1)
	if ev.err != nil {
		e.failed.Add(1)
	} else {
		e.completed.Add(1)
	}
	// The callback runs before the client's next queued op starts, so a
	// closed-loop caller that issues from the callback stays ahead of its
	// own queue — invocation order is preserved either way.
	o.fire(ev.val, ev.err)
	// Its one completion consumed, its callback run: nothing can reach o.
	o.c, o.onWrite, o.onRead = nil, nil, nil
	ops.Put(o)
	e.settle(1)
	if c.active == nil && c.head < len(c.queue) {
		// Pop without pinning the started op in the backing array, and
		// rewind an emptied queue to the array's front.
		next := c.queue[c.head]
		c.queue[c.head] = nil
		if c.head++; c.head == len(c.queue) {
			c.queue, c.head = c.queue[:0], 0
		}
		e.begin(next)
	}
}

// begin hands an operation to the construction. The construction's Start
// call must not block; its completion posts back into the mailbox from
// whatever goroutine completes the chain.
func (e *Engine) begin(o *op) {
	o.c.active = o
	e.started.Add(1)
	cur := e.inFlight.Add(1)
	if cur > e.maxInFlight.Load() {
		e.maxInFlight.Store(cur)
	}
	if o.onWrite != nil {
		o.c.w.StartWrite(e.ctx, o.v, o.writeDone)
	} else {
		o.c.r.StartRead(e.ctx, o.readDone)
	}
}

// settle retires n outstanding ops and wakes Drain waiters at zero.
func (e *Engine) settle(n int64) {
	e.mu.Lock()
	e.outstanding -= n
	if e.outstanding == 0 {
		for _, w := range e.waiters {
			close(w)
		}
		e.waiters = nil
	}
	e.mu.Unlock()
}

// checkIdle wakes Drain waiters if everything settled between mailbox
// drains (settle covers the common case; this covers waiters registered
// while the loop was busy).
func (e *Engine) checkIdle() {
	e.settle(0)
}

// shutdown fails every queued and in-flight op. It runs on the loop
// goroutine, which owns all client state.
func (e *Engine) shutdown() {
	e.mu.Lock()
	e.closed = true
	inbox := e.inbox
	e.inbox = nil
	e.outstanding = 0
	waiters := e.waiters
	e.waiters = nil
	clients := e.clients
	e.mu.Unlock()

	err := ErrClosed
	if cause := context.Cause(e.ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		err = fmt.Errorf("%w: %v", ErrClosed, cause)
	}
	for i := range inbox {
		if !inbox[i].done {
			inbox[i].op.fire(types.InitialValue, err)
		}
	}
	for _, c := range clients {
		if c.active != nil {
			e.inFlight.Add(-1)
			e.failed.Add(1)
			c.active.fire(types.InitialValue, err)
			c.active = nil
		}
		for _, o := range c.queue[c.head:] {
			o.fire(types.InitialValue, err)
		}
		c.queue, c.head = nil, 0
	}
	for _, w := range waiters {
		close(w)
	}
}

// Close stops the engine: every queued and in-flight operation fails with
// ErrClosed, and the loop exits. Close is idempotent and safe from any
// goroutine except the engine loop itself (i.e. not from a completion
// callback — cancel the engine's context instead).
func (e *Engine) Close() error {
	e.cancel()
	<-e.loopDone
	return nil
}

// Drain blocks until every operation issued so far has completed (or the
// engine closed), or ctx expires. New operations issued while draining —
// e.g. closed-loop callbacks — extend the wait.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if e.outstanding == 0 || e.closed {
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return nil
	}
	w := make(chan struct{})
	e.waiters = append(e.waiters, w)
	e.mu.Unlock()
	e.wake()
	select {
	case <-w:
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("async: drain: %w", ctx.Err())
	}
}
