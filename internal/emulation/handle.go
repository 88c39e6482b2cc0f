package emulation

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/spec"
	"repro/internal/types"
)

// WriteChain is a construction's high-level write: a completion-based chain
// of quorum rounds that never blocks and fires done exactly once when (and
// if) the write completes. It must check ctx before starting each round
// (rounds.Scatter does) and record nothing — the handle owns the history.
// It is an interface over the construction's own state, not a func, so the
// thousands of handles of a large store carry no closure each.
type WriteChain interface {
	StartWrite(ctx context.Context, client types.ClientID, v types.Value, done func(error))
}

// ReadChain is the read-side analogue of WriteChain.
type ReadChain interface {
	StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error))
}

// Writers is a register's writer side: the write handles of writers 0..k-1
// over one chain, and their timestamp floor (Propose). A register embeds it
// and sets it up once (Init): At(i) is then the same handle on every call, as
// Register.Writer promises, so the driver a client engine claims on it
// (Writer.Claim) is found again. Writer 0 is held inline, so a one-writer
// register allocates nothing for its writer side. A Writers must not be
// copied once set up.
type Writers struct {
	first writer
	rest  []writer // writers 1..k-1
}

// Init sets ws up for writers 0..k-1 (k ≥ 1) over chain, recording every
// operation into hist.
func (ws *Writers) Init(k int, hist *spec.History, chain WriteChain) {
	if k > 1 {
		ws.rest = make([]writer, k-1)
	}
	for i := range k {
		w := ws.at(types.ClientID(i))
		w.client, w.hist, w.chain = types.ClientID(i), hist, chain
	}
}

func (ws *Writers) at(i types.ClientID) *writer {
	if i == 0 {
		return &ws.first
	}
	return &ws.rest[i-1]
}

// At returns writer i's handle; i must be in [0, k).
func (ws *Writers) At(i int) Writer { return ws.at(types.ClientID(i)) }

// Propose returns writer's next timestamp — above collected and above
// everything writer proposed before — and records it. A write abandoned
// before its last round reached a quorum can be missed by the writer's next
// collect, and types.TSValue.Less cannot order two values with the same
// (timestamp, writer) pair — so every proposal starts above the writer's
// last, not just above the collect. The floor is atomic because an abandoned
// write's collect may still complete beside the next write's.
func (ws *Writers) Propose(writer types.ClientID, collected uint64) uint64 {
	last := &ws.at(writer).floor
	for {
		prev := last.Load()
		if ts := max(collected, prev) + 1; last.CompareAndSwap(prev, ts) {
			return ts
		}
	}
}

// NewReader returns client's read handle over a construction's chain.
func NewReader(client types.ClientID, hist *spec.History, chain ReadChain) Reader {
	return &reader{client: client, hist: hist, chain: chain}
}

type writer struct {
	client types.ClientID
	hist   *spec.History
	chain  WriteChain

	floor  atomic.Uint64 // the highest timestamp this writer proposed (Writers.Propose)
	mu     sync.Mutex
	driver any // the first Claim's driver
}

func (w *writer) Client() types.ClientID { return w.client }

func (w *writer) Claim(driver any) any {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.driver == nil {
		w.driver = driver
	}
	return w.driver
}

func (w *writer) StartWrite(ctx context.Context, v types.Value, done func(error)) {
	c := newCall()
	c.pw, c.onWrite = w.hist.BeginWrite(w.client, v), done
	w.chain.StartWrite(ctx, w.client, v, c.writeDone)
}

func (w *writer) Write(ctx context.Context, v types.Value) error {
	b := &blocked{pw: w.hist.BeginWrite(w.client, v)}
	_, err := b.wait(ctx, func() {
		w.chain.StartWrite(ctx, w.client, v, func(err error) { b.done(v, err) })
	})
	return err
}

type reader struct {
	client types.ClientID
	hist   *spec.History
	chain  ReadChain
}

func (r *reader) Client() types.ClientID { return r.client }

func (r *reader) StartRead(ctx context.Context, done func(types.Value, error)) {
	c := newCall()
	c.pr, c.onRead = r.hist.BeginRead(r.client), done
	r.chain.StartRead(ctx, r.client, c.readDone)
}

func (r *reader) Read(ctx context.Context) (types.Value, error) {
	b := &blocked{pr: r.hist.BeginRead(r.client)}
	return b.wait(ctx, func() { r.chain.StartRead(ctx, r.client, b.done) })
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
