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
	readPlan      rounds.Plan // planRead, bound once: a direct collect allocates no plan
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

// New creates an engine over the given stores, which trigger on fab, with
// failure threshold f.
func New(fab *fabric.Fabric, stores []MaxStore, f int, opts ...Option) (*Engine, error) {
	e := &Engine{fab: fab}
	e.readPlan = e.planRead
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

// collect reads the highest timestamped value from a quorum of stores.
// report fires exactly once, on the quorum'th response, the first error, or
// ctx's end before an attempt — possibly inline. If fewer than a quorum of
// stores ever respond, report never fires: a pending op. Each attempt —
// including view-change retries — snapshots the placement afresh, so a
// retry that crosses a resize gathers against the new targets at the new
// n−f, never a mixed view.
func (e *Engine) collect(ctx context.Context, client types.ClientID, report func(types.TSValue, error)) {
	if e.p.Load().readTargets == nil {
		e.startStores(ctx, report, func(s MaxStore, rep func(types.TSValue, error)) {
			s.(ReadStarter).StartReadMax(ctx, client, rep)
		})
		return
	}
	rounds.Scatter(ctx, e.fab, client, rounds.Round{Max: report, Plan: e.readPlan})
}

// planRead is the direct collect's plan: the live placement's precomputed
// read-max targets at its quorum.
func (e *Engine) planRead(buf []rounds.Target) ([]rounds.Target, int) {
	p := e.p.Load()
	return append(buf, p.readTargets...), p.quorum()
}

// push writes v to a quorum of stores, with collect's contract. Write-max
// is idempotent, so on a view-change retry the already-acknowledged members
// absorb the replay.
func (e *Engine) push(ctx context.Context, client types.ClientID, v types.TSValue, report func(types.TSValue, error)) {
	if e.p.Load().directWriters == nil {
		e.startStores(ctx, report, func(s MaxStore, rep func(types.TSValue, error)) {
			s.(WriteStarter).StartWriteMax(ctx, client, v, rep)
		})
		return
	}
	rounds.Scatter(ctx, e.fab, client, rounds.Round{Max: report, Plan: func(buf []rounds.Target) ([]rounds.Target, int) {
		p := e.p.Load()
		for _, dw := range p.directWriters {
			buf = append(buf, dw.WriteTarget(v))
		}
		return buf, p.quorum()
	}})
}

// startStores is the round over started stores: every store of the live
// placement runs its own chain (start), the quorum'th report completes the
// round, and a view-change completion re-starts every store once the
// transition ended, through rounds.Retry — the view stamp is read before the
// placement, so it is older than every table lookup the chains make.
func (e *Engine) startStores(ctx context.Context, report func(types.TSValue, error), start func(MaxStore, func(types.TSValue, error))) {
	if err := types.CtxErr(ctx); err != nil {
		report(types.ZeroTSValue, err)
		return
	}
	seen := e.fab.ViewStamp()
	p := e.p.Load()
	j := rounds.NewFold(p.quorum(), func(v types.TSValue, err error) {
		if err != nil && rounds.Retry(ctx, e.fab, seen, err,
			func() { e.startStores(ctx, report, start) },
			func(err error) { report(types.ZeroTSValue, err) }) {
			return
		}
		report(v, err)
	})
	for _, s := range p.stores {
		start(s, j.Complete)
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
	e.collect(ctx, client, func(cur types.TSValue, err error) {
		if err != nil {
			done(fmt.Errorf("abdcore: write collect: %w", err))
			return
		}
		next := types.TSValue{TS: cur.TS + 1, Writer: client, Val: v}
		e.push(ctx, client, next, func(_ types.TSValue, err error) {
			if err != nil {
				done(fmt.Errorf("abdcore: write push: %w", err))
				return
			}
			done(nil)
		})
	})
}

// StartRead is the high-level read: collect, optionally write back (with
// WithReadWriteBack the push chains in before done fires), return the
// freshest value.
func (e *Engine) StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error)) {
	e.collect(ctx, client, func(cur types.TSValue, err error) {
		if err != nil {
			done(types.InitialValue, fmt.Errorf("abdcore: read collect: %w", err))
			return
		}
		if !e.readWriteBack {
			done(cur.Val, nil)
			return
		}
		e.push(ctx, client, cur, func(_ types.TSValue, err error) {
			if err != nil {
				done(types.InitialValue, fmt.Errorf("abdcore: read write-back: %w", err))
				return
			}
			done(cur.Val, nil)
		})
	})
}
