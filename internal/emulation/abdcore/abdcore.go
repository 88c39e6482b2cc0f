// Package abdcore implements the quorum protocol shared by the
// max-register, CAS, and baseline emulations: the multi-writer ABD pattern
// [Attiya, Bar-Noy, Dolev 1995; Gilbert, Lynch, Shvartsman 2010] in which a
// write first collects the highest timestamp from a quorum, picks a larger
// one, and then pushes the timestamped value to a quorum; a read collects
// from a quorum and returns the value with the highest timestamp.
//
// The paper observes (Section 1, "Results") that the per-server code of
// multi-writer ABD is exactly the write-max / read-max interface of a
// max-register, so the engine is parameterized by a MaxStore abstraction:
// one store per server, with asynchronous start/report semantics matching
// the fabric's trigger/respond model. Plugging in different stores yields
// the different rows of Table 1.
//
// The round mechanics (scatter, quorum threshold, crash adaptivity,
// view-change retry) live in the shared internal/emulation/rounds engine;
// this package is the collect/push chain on top of it.
package abdcore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/types"
)

// MaxStore is the per-server storage abstraction: an asynchronous
// max-register. Each of its two operations is either direct — a single
// low-level op, exposed as a rounds.DirectReader / rounds.DirectWriter
// target that the engine batch-scatters with the rest of the round — or
// started: a multi-step chain the store runs itself (ReadStarter /
// WriteStarter). A store whose server crashed simply never reports, like
// any faulty base object.
type MaxStore interface {
	// Server returns the hosting server.
	Server() types.ServerID
	// Objects returns the base objects backing the store — its share of
	// the construction's resource complexity, read when a view resize folds
	// the old placement's state and retired with a store the new one drops.
	Objects() []types.ObjectID
	// Seed folds m, the non-zero maximum over the old placement, into the
	// store, so that every member of a resized placement holds at least
	// the last committed value. It runs only inside a fabric transition's
	// frozen window, where applying directly through rs cannot race client
	// operations.
	Seed(rs *fabric.Reshaper, m types.TSValue) error
}

// ReadStarter is a store whose read-max is a chain of low-level operations
// (aacmax's per-server scan). The start must not block and must start
// nothing once ctx is done; report must be invoked at most once, when (and
// if) the operation completes.
type ReadStarter interface {
	StartReadMax(ctx context.Context, client types.ClientID, report func(types.TSValue, error))
}

// WriteStarter is the write-max analogue of ReadStarter (casmax's
// Algorithm 1 loop, aacmax's floor-checked register write).
type WriteStarter interface {
	StartWriteMax(ctx context.Context, client types.ClientID, v types.TSValue, report func(types.TSValue, error))
}

// Errors reported by the engine.
var (
	// ErrTooFewStores is returned when fewer than 2f+1 stores back the
	// engine.
	ErrTooFewStores = errors.New("abdcore: need at least 2f+1 stores")
)

// placement is one epoch's worth of quorum geometry: the store set, the
// failure budget, and the precomputed direct-dispatch artifacts. It is
// immutable once published — a resize installs a whole new placement — so
// every round derives its targets and its n−f threshold from ONE snapshot
// and can never pair the new store set with the old budget or vice versa.
type placement struct {
	stores []MaxStore
	f      int

	// readTargets is non-nil when every store is a rounds.DirectReader
	// (the per-store read-max invocations, precomputed — they are constant
	// for a placement), and directWriters is non-nil when every store is a
	// rounds.DirectWriter; otherwise every store is a starter for that side.
	readTargets   []rounds.Target
	directWriters []rounds.DirectWriter
}

func (p *placement) quorum() int { return len(p.stores) - p.f }

// Engine is the quorum read/write core. It is stateless across operations
// and safe for concurrent use by multiple clients; Resize swaps the
// placement atomically while operations are in flight.
type Engine struct {
	p             atomic.Pointer[placement]
	readWriteBack bool
	fab           *fabric.Fabric

	// proposed[i] is the highest timestamp writer i ever proposed. A write
	// abandoned with its push on at most f servers can be missed by the
	// writer's next collect, and types.TSValue.Less cannot order two values
	// with the same (timestamp, writer) pair: every proposal starts above the
	// last. Atomic, because an abandoned write's collect may still complete
	// beside the next write's.
	proposed []atomic.Uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithReadWriteBack makes reads write the collected maximum back to a
// quorum before returning. This is the classic atomicity (linearizability)
// fix: it costs readers a write round, which is exactly why the paper's
// space bounds target regularity ("since atomicity usually requires readers
// to write", Section 1).
func WithReadWriteBack() Option {
	return func(e *Engine) { e.readWriteBack = true }
}

// New creates an engine for writers 0..k-1 over the given stores, which
// trigger on fab, with failure threshold f.
func New(fab *fabric.Fabric, stores []MaxStore, k, f int, opts ...Option) (*Engine, error) {
	e := &Engine{fab: fab, proposed: make([]atomic.Uint64, k)}
	for _, opt := range opts {
		opt(e)
	}
	p, err := buildPlacement(stores, f)
	if err != nil {
		return nil, err
	}
	e.p.Store(p)
	return e, nil
}

// buildPlacement validates a store set + budget pair and precomputes its
// direct-dispatch artifacts.
func buildPlacement(stores []MaxStore, f int) (*placement, error) {
	if f <= 0 {
		return nil, fmt.Errorf("abdcore: f must be positive, got %d", f)
	}
	if len(stores) < 2*f+1 {
		return nil, fmt.Errorf("%w: have %d, f=%d", ErrTooFewStores, len(stores), f)
	}
	p := &placement{
		stores:        stores,
		f:             f,
		readTargets:   make([]rounds.Target, 0, len(stores)),
		directWriters: make([]rounds.DirectWriter, 0, len(stores)),
	}
	for _, s := range stores {
		if dr, ok := s.(rounds.DirectReader); ok {
			p.readTargets = append(p.readTargets, dr.ReadTarget())
		}
		if dw, ok := s.(rounds.DirectWriter); ok {
			p.directWriters = append(p.directWriters, dw)
		}
	}
	// A side is scattered directly only when every store offers it;
	// otherwise each store is started, which all must then support.
	if len(p.readTargets) != len(stores) {
		p.readTargets = nil
		for _, s := range stores {
			if _, ok := s.(ReadStarter); !ok {
				return nil, fmt.Errorf("abdcore: store on server %d cannot start a read-max", s.Server())
			}
		}
	}
	if len(p.directWriters) != len(stores) {
		p.directWriters = nil
		for _, s := range stores {
			if _, ok := s.(WriteStarter); !ok {
				return nil, fmt.Errorf("abdcore: store on server %d cannot start a write-max", s.Server())
			}
		}
	}
	return p, nil
}

// Resize atomically installs a new store set and failure budget. In-flight
// rounds keep their current snapshot — completing against the old stores
// is sound while they exist — and every round started (or retried) after
// the swap derives both its targets and its threshold from the new
// placement. Callers resize inside a frozen fabric transition, where old
// rounds can only bounce with retryable view-change errors.
func (e *Engine) Resize(stores []MaxStore, f int) error {
	p, err := buildPlacement(stores, f)
	if err != nil {
		return err
	}
	e.p.Store(p)
	return nil
}

// Stores returns the current placement's store set (do not mutate).
func (e *Engine) Stores() []MaxStore { return e.p.Load().stores }

// F returns the current placement's failure budget.
func (e *Engine) F() int { return e.p.Load().f }

// Quorum returns the number of store responses each phase waits for:
// len(stores) - f, a majority when len(stores) = 2f+1 — derived from one
// placement snapshot, never from a caller's remembered f.
func (e *Engine) Quorum() int { return e.p.Load().quorum() }

// chain is one high-level operation above its rounds — collect, push, done
// as methods on one pooled record, reducers and plans bound once, so an
// operation allocates nothing of its own. The record returns to the pool in
// one place, finish; a chain whose quorum never forms keeps its record, which
// becomes ordinary garbage (ROADMAP, Op storage lifetime).
type chain struct {
	e       *Engine
	ctx     context.Context
	client  types.ClientID
	v       types.TSValue // what the push carries; until the collect, a write's value
	onWrite func(error)
	onRead  func(types.Value, error)

	onCollect, onPush     func(types.TSValue, error) // c.collected, c.pushed
	collectPlan, pushPlan rounds.Plan                // c.planCollect, c.planPush
}

// chains has no New: it would close an initialization cycle through finish.
var chains sync.Pool

func (e *Engine) newChain(ctx context.Context, client types.ClientID) *chain {
	c, _ := chains.Get().(*chain)
	if c == nil {
		c = new(chain)
		c.onCollect, c.onPush, c.collectPlan, c.pushPlan = c.collected, c.pushed, c.planCollect, c.planPush
	}
	c.e, c.ctx, c.client = e, ctx, client
	return c
}

// collect reads the highest timestamped value from a quorum of stores.
// onCollect fires exactly once, on the quorum'th response, the first error,
// or ctx's end before an attempt — possibly inline. If fewer than a quorum of
// stores ever respond, it never fires: a pending op. Each attempt —
// including view-change retries — snapshots the placement afresh, so a
// retry that crosses a resize gathers against the new targets at the new
// n−f, never a mixed view.
func (c *chain) collect() {
	if c.e.p.Load().readTargets == nil {
		c.startStores(false)
		return
	}
	rounds.Scatter(c.ctx, c.e.fab, c.client, rounds.Round{Max: c.onCollect, Plan: c.collectPlan})
}

// planCollect is the direct collect's plan: the live placement's
// precomputed read-max targets at its quorum.
func (c *chain) planCollect(buf []rounds.Target) ([]rounds.Target, int) {
	p := c.e.p.Load()
	return append(buf, p.readTargets...), p.quorum()
}

// push writes c.v to a quorum of stores, with collect's contract. Write-max
// is idempotent, so on a view-change retry the already-acknowledged members
// absorb the replay.
func (c *chain) push() {
	if c.e.p.Load().directWriters == nil {
		c.startStores(true)
		return
	}
	rounds.Scatter(c.ctx, c.e.fab, c.client, rounds.Round{Max: c.onPush, Plan: c.pushPlan})
}

func (c *chain) planPush(buf []rounds.Target) ([]rounds.Target, int) {
	p := c.e.p.Load()
	for _, dw := range p.directWriters {
		buf = append(buf, dw.WriteTarget(c.v))
	}
	return buf, p.quorum()
}

// startStores is the round over started stores: every store of the live
// placement runs its own chain (a write-max of c.v, or a read-max), the
// quorum'th report completes the round into the phase's bound reducer, and a
// view-change completion re-starts every store once the transition ended,
// through rounds.Retry — the view stamp is read before the placement, so it
// is older than every table lookup the chains make.
func (c *chain) startStores(write bool) {
	// The quorum'th store may report inline and recycle c while the loop
	// below still has stores to start: they run on copies.
	report, ctx, fab, client, v := c.onCollect, c.ctx, c.e.fab, c.client, c.v
	if write {
		report = c.onPush
	}
	if err := types.CtxErr(ctx); err != nil {
		report(types.ZeroTSValue, err)
		return
	}
	seen := fab.ViewStamp()
	p := c.e.p.Load()
	j := rounds.NewFold(p.quorum(), func(v types.TSValue, err error) {
		if err != nil && rounds.Retry(ctx, fab, seen, err,
			func() { c.startStores(write) },
			func(err error) { report(types.ZeroTSValue, err) }) {
			return
		}
		report(v, err)
	})
	for _, s := range p.stores {
		if write {
			s.(WriteStarter).StartWriteMax(ctx, client, v, j.Complete)
		} else {
			s.(ReadStarter).StartReadMax(ctx, client, j.Complete)
		}
	}
}

// collected is the collect's reducer: a write stamps its value above the
// collected maximum and above everything its writer ever proposed, and
// pushes; a read returns the maximum, written back first on an atomic build.
func (c *chain) collected(cur types.TSValue, err error) {
	switch {
	case err != nil:
		c.finish("collect", err)
	case c.onWrite != nil:
		c.v.TS, c.v.Writer = c.e.propose(c.client, cur.TS), c.client
		c.push()
	case c.e.readWriteBack:
		c.v = cur
		c.push()
	default:
		c.v = cur
		c.finish("", nil)
	}
}

// pushed is the push's reducer.
func (c *chain) pushed(_ types.TSValue, err error) { c.finish("push", err) }

// finish fires the operation's one completion (a read returns c.v's value)
// and is the one place a record returns to the pool: copy out what the
// completion needs, clear the rest, put, then call.
func (c *chain) finish(phase string, err error) {
	onWrite, onRead, v := c.onWrite, c.onRead, c.v.Val
	c.e, c.ctx, c.onWrite, c.onRead = nil, nil, nil, nil
	chains.Put(c)
	if err != nil {
		err, v = fmt.Errorf("abdcore: %s: %w", phase, err), types.InitialValue
	}
	if onWrite != nil {
		onWrite(err)
	} else {
		onRead(v, err)
	}
}

// propose returns writer's next timestamp and records it.
func (e *Engine) propose(writer types.ClientID, collected uint64) uint64 {
	floor := &e.proposed[writer]
	for {
		last := floor.Load()
		if ts := max(collected, last) + 1; floor.CompareAndSwap(last, ts) {
			return ts
		}
	}
}

// StartWrite is the high-level write: collect, bump the timestamp, push.
// The phases run as a callback chain on whatever goroutines complete the
// low-level operations, so nothing ever blocks — one caller goroutine can
// keep thousands of writes in flight. done fires exactly once, when the
// push quorum acknowledged (or on the first protocol error, or when ctx
// ended before a round); it never fires if the failure assumption is
// violated, like any pending op.
func (e *Engine) StartWrite(ctx context.Context, client types.ClientID, v types.Value, done func(error)) {
	c := e.newChain(ctx, client)
	c.v, c.onWrite = types.TSValue{Val: v}, done
	c.collect()
}

// StartRead is the high-level read: collect, optionally write back (with
// WithReadWriteBack the push chains in before done fires), return the
// freshest value.
func (e *Engine) StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error)) {
	c := e.newChain(ctx, client)
	c.onRead = done
	c.collect()
}
