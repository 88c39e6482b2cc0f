package emulation

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/spec"
	"repro/internal/types"
)

// Protocol is a construction's high-level write and read: completion-based
// chains of quorum rounds that never block and fire done exactly once when
// (and if) the operation completes. Each must check ctx before starting each
// round (rounds.Scatter does) and record nothing — the handles own the
// history. It is an interface over the construction's own state, not a pair
// of funcs, so the thousands of handles of a large store carry no closure
// each.
type Protocol interface {
	StartWrite(ctx context.Context, client types.ClientID, v types.Value, done func(error))
	StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error))
}

// Handles is the client half every register shares: its name and k, the
// write handles of writers 0..k-1 and their timestamp floor (Propose), the
// reader-ID counter, the history, and the Protocol every handle drives. A
// register embeds it and sets it up once (Init), and so implements every
// method of Register but F, ResourceComplexity and Reshape. Writer(i) is the
// same handle on every call, so the driver a client engine claims on it
// (Writer.Claim) is found again. Writer 0 is held inline, so a one-writer
// register allocates nothing for its writer side. A Handles must not be
// copied once set up.
type Handles struct {
	name    string
	proto   Protocol
	first   Writer
	rest    []Writer     // writers 1..k-1
	readers atomic.Int64 // reader IDs handed out
	hist    spec.History
}

// Init checks k (ValidateWriters) and sets h up as register name's handles
// for writers 0..k-1 over proto.
func (h *Handles) Init(name string, k int, proto Protocol) error {
	if err := ValidateWriters(k); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	h.name, h.proto = name, proto
	if k > 1 {
		h.rest = make([]Writer, k-1)
	}
	for i := range k {
		w := h.at(types.ClientID(i))
		w.h, w.client = h, types.ClientID(i)
	}
	return nil
}

// Name identifies the construction (for reports and benches).
func (h *Handles) Name() string { return h.name }

// K returns the number of supported writers.
func (h *Handles) K() int { return len(h.rest) + 1 }

// History returns the high-level history the register's handles record.
func (h *Handles) History() *spec.History { return &h.hist }

func (h *Handles) at(i types.ClientID) *Writer {
	if i == 0 {
		return &h.first
	}
	return &h.rest[i-1]
}

// Writer returns the handle for writer i in [0, k): the same handle on
// every call; it must be used from one goroutine at a time.
func (h *Handles) Writer(i int) (*Writer, error) {
	if i < 0 || i >= h.K() {
		return nil, fmt.Errorf("%s: writer %d out of range (k=%d)", h.name, i, h.K())
	}
	return h.at(types.ClientID(i)), nil
}

// NewReader returns a fresh reader handle with a fresh client ID above
// ReaderIDBase. It is safe for concurrent callers: the async engine creates
// readers from its event loop while other goroutines hold handles too.
func (h *Handles) NewReader() *Reader {
	return &Reader{h: h, client: ReaderIDBase + types.ClientID(h.readers.Add(1))}
}

// Propose returns writer's next timestamp — above collected and above
// everything writer proposed before — and records it. A write abandoned
// before its last round reached a quorum can be missed by the writer's next
// collect, and types.TSValue.Less cannot order two values with the same
// (timestamp, writer) pair — so every proposal starts above the writer's
// last, not just above the collect. The floor is atomic because an abandoned
// write's collect may still complete beside the next write's.
func (h *Handles) Propose(writer types.ClientID, collected uint64) uint64 {
	last := &h.at(writer).floor
	for {
		prev := last.Load()
		if ts := max(collected, prev) + 1; last.CompareAndSwap(prev, ts) {
			return ts
		}
	}
}

// Writer is the write-side handle of an emulated register for one client.
type Writer struct {
	h      *Handles
	floor  atomic.Uint64 // the highest timestamp this writer proposed (Handles.Propose)
	driver atomic.Value  // the first Claim's driver
	client types.ClientID
}

// Client returns the writer's client ID.
func (w *Writer) Client() types.ClientID { return w.client }

// Claim records driver as the one party driving this handle, unless one was
// recorded before, and returns the recorded driver: driver itself, or the
// earlier claimant. A client engine claims a handle before it drives it
// (async.Engine.WriterOn), so a writer slot has one driver however often it
// is asked for. Every driver of a handle has the same type.
func (w *Writer) Claim(driver any) any {
	w.driver.CompareAndSwap(nil, driver)
	return w.driver.Load()
}

// StartWrite is the completion-based write: it triggers the high-level
// write and returns immediately; done fires exactly once when (and if) the
// write completes — possibly inline, on the in-process lane, or later on a
// fabric goroutine. If the failure assumption is violated (more than f
// servers crash, or the environment holds responses forever) done never
// fires, exactly like a pending high-level op; callers bound the wait with
// ctx or their own clocks. Once ctx is done the operation starts no further
// round. done must not block. A handle serializes: the caller must not start
// a second operation before the previous one completed or its ctx ended (the
// paper's well-formed histories); internal/emulation/async enforces this per
// logical client.
func (w *Writer) StartWrite(ctx context.Context, v types.Value, done func(error)) {
	c := newCall()
	c.pw, c.onWrite = w.h.hist.BeginWrite(w.client, v), done
	w.h.proto.StartWrite(ctx, w.client, v, c.writeDone)
}

// Write performs a high-level write of v. It blocks until the write returns
// or ctx is done; a ctx error means the operation could not complete (e.g.
// too many servers crashed for the failure threshold) and was abandoned: it
// starts no further round and stays pending in the history, like the
// paper's incomplete high-level ops. A round triggers in one batch, so
// nothing follows the return — except where a store takes its step later:
// abd-cas's Algorithm 1 loop, and an aac-max push waiting behind the
// writer's own earlier write on that server. A store that checked ctx just
// before the abandonment still triggers the step it was about to, at most
// one per store (ROADMAP item 1(b)).
func (w *Writer) Write(ctx context.Context, v types.Value) error {
	b := &blocked{pw: w.h.hist.BeginWrite(w.client, v)}
	_, err := b.wait(ctx, func() {
		w.h.proto.StartWrite(ctx, w.client, v, func(err error) { b.done(v, err) })
	})
	return err
}

// Reader is the read-side handle of an emulated register for one client;
// the same contracts as Writer's apply.
type Reader struct {
	h      *Handles
	client types.ClientID
}

// Client returns the reader's client ID.
func (r *Reader) Client() types.ClientID { return r.client }

// StartRead is the completion-based read.
func (r *Reader) StartRead(ctx context.Context, done func(types.Value, error)) {
	c := newCall()
	c.pr, c.onRead = r.h.hist.BeginRead(r.client), done
	r.h.proto.StartRead(ctx, r.client, c.readDone)
}

// Read performs a high-level read.
func (r *Reader) Read(ctx context.Context) (types.Value, error) {
	b := &blocked{pr: r.h.hist.BeginRead(r.client)}
	return b.wait(ctx, func() { r.h.proto.StartRead(ctx, r.client, b.done) })
}

// call is one completion-based operation through a handle: its history
// entry, the caller's completion, and the two completions the chain is
// handed, bound once when the record was made. Records are recycled: a chain
// fires exactly once, and that firing is the one place the record returns to
// the pool — after copying out what it still needs. An operation whose chain
// never fires keeps its record, which becomes ordinary garbage (ROADMAP, Op
// storage lifetime).
type call struct {
	pw      spec.PendingWrite
	pr      spec.PendingRead
	onWrite func(error)
	onRead  func(types.Value, error)

	writeDone func(error)              // c.endWrite
	readDone  func(types.Value, error) // c.endRead
}

// calls has no New: it would close an initialization cycle through endWrite.
var calls sync.Pool

func newCall() *call {
	c, _ := calls.Get().(*call)
	if c == nil {
		c = new(call)
		c.writeDone, c.readDone = c.endWrite, c.endRead
	}
	return c
}

func (c *call) endWrite(err error) {
	pw, done := c.pw, c.onWrite
	c.pw, c.onWrite = spec.PendingWrite{}, nil
	calls.Put(c)
	if err == nil {
		pw.End()
	}
	done(err)
}

func (c *call) endRead(v types.Value, err error) {
	pr, done := c.pr, c.onRead
	c.pr, c.onRead = spec.PendingRead{}, nil
	calls.Put(c)
	if err == nil {
		pr.End(v)
	}
	done(v, err)
}

// blocked is one blocking call over a chain — the one blocking adapter: its
// history entry (pw or pr), its result slot and the one cancellation latch.
// The chain's completion and the caller's abandonment race on settled, and
// only the winner acts — so an operation either closes its history entry
// before the call returns, or never.
type blocked struct {
	pw      spec.PendingWrite
	pr      spec.PendingRead
	settled atomic.Bool
	fired   chan struct{}
	v       types.Value
	err     error
}

func (b *blocked) done(v types.Value, err error) {
	if !b.settled.CompareAndSwap(false, true) {
		return // abandoned: nobody is listening, the entry stays pending
	}
	switch {
	case err != nil:
	case b.pw != (spec.PendingWrite{}):
		b.pw.End()
	default:
		b.pr.End(v)
	}
	b.v, b.err = v, err
	close(b.fired)
}

// wait runs the operation that start triggers to its end or to ctx's,
// whichever comes first. A context that is already done fails the operation
// before start runs, so nothing is triggered. On cancellation mid-flight
// the operation is abandoned: its history entry is never closed after wait
// returned, the chain — which watches the same ctx — starts no further
// round (a per-store loop already past its check takes that one step), and
// late low-level completions are absorbed where they land.
func (b *blocked) wait(ctx context.Context, start func()) (types.Value, error) {
	if err := types.CtxErr(ctx); err != nil {
		return types.InitialValue, fmt.Errorf("emulation: operation not started: %w", err)
	}
	b.fired = make(chan struct{})
	start()
	select {
	case <-b.fired:
	case <-ctx.Done():
		if b.settled.CompareAndSwap(false, true) {
			return types.InitialValue, fmt.Errorf("emulation: operation abandoned: %w", ctx.Err())
		}
		<-b.fired // the completion won the latch; its verdict is being published
	}
	return b.v, b.err
}
