// Package rounds is the shared quorum round engine underneath every
// emulation: scatter a round of low-level operations across the fabric's
// per-server dispatch lanes in one TriggerBatch call, then gather responses
// until a quorum condition holds. The paper's constructions differ in what
// they scatter (max-register ops, CAS chains, per-server register scans)
// and in the quorum condition (n-f responses, n-f complete server scans),
// but the round mechanics — trigger everything, fold the highest
// timestamped value, stay correct when servers crash or the environment
// holds responses forever — are identical, so they live here once.
//
// Three gather modes cover the five constructions:
//
//   - Round.AwaitMax: block until `need` responses arrived (the ABD
//     collect/push phases of abdmax, casmax, aacmax, naiveabd).
//   - Round.AwaitServers: block until all but f of the servers the round
//     targets responded to every operation aimed at them (Algorithm 2's
//     complete per-server scans in regemu).
//   - ScatterFold / ScatterFoldServers: non-blocking; invoke a report
//     callback when the quorum condition holds (count-based or complete
//     per-server scans). These carry the asynchronous store starts (such
//     as aacmax's read-max) and the whole completion-based client path of
//     internal/emulation/async, where nothing may ever block a fabric
//     goroutine. Fold is the reusable accumulator underneath.
//
// Crash adaptivity is inherited from the fabric's semantics: operations on
// crashed servers never respond, so gathers simply keep waiting for other
// servers; a quorum assumption of at most f faulty servers makes the
// condition eventually reachable, and the caller's context bounds the wait
// otherwise.
//
// Gather (the channel-level primitive) is exported for stores whose
// operations are multi-step callback chains (casmax's Algorithm 1 loop)
// rather than single low-level ops.
package rounds

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// Errors reported by the round engine.
var (
	// ErrOverDelivery is returned by AwaitServers when a server produces
	// more reports than the round scattered to it: a duplicated or retried
	// completion. Without the guard the per-server countdown would pass
	// through zero and silently double-count complete scans, so the engine
	// treats over-delivery as a protocol violation instead.
	ErrOverDelivery = errors.New("rounds: server delivered more reports than its scattered operations")

	// ErrReportOverflow reports a send into a report channel whose buffer
	// is exhausted. Every report channel is sized for the maximum number
	// of sends its producers can make (one per scattered call, one per
	// store), which is what lets completion closures run on fabric
	// goroutines without ever blocking; an overflow means a producer
	// violated its at-most-once contract.
	ErrReportOverflow = errors.New("rounds: report channel overflow")
)

// Deliver sends a report without ever blocking: report channels are sized
// so that every producer's at-most-once send fits the buffer, even when
// the gather abandoned the channel early (ctx cancellation) and nothing
// will ever drain it. A full buffer therefore cannot mean "consumer is
// slow" — it means a producer sent more than it was sized for — and
// Deliver turns that from a fabric goroutine blocked forever (a silent
// leak that eventually deadlocks the whole dispatch path) into a loud
// panic at the violation site.
func Deliver(ch chan<- Report, rep Report) {
	select {
	case ch <- rep:
	default:
		panic(fmt.Errorf("%w (cap %d): dropping %+v", ErrReportOverflow, cap(ch), rep))
	}
}

// Target is one low-level operation of a round: an invocation on a base
// object.
type Target struct {
	// Object is the target base object.
	Object types.ObjectID
	// Inv is the invocation.
	Inv baseobj.Invocation
}

// Report is one completed operation of a round.
type Report struct {
	// Index is the operation's position in the scattered target slice
	// (or the store index for channel-level gathers).
	Index int
	// Object and Server identify where the operation executed.
	Object types.ObjectID
	Server types.ServerID
	// Val is the response value.
	Val types.TSValue
	// Data carries response payload bytes (payload registers).
	Data types.Payload
	// Frags carries the response fragment list (fragment stores — the
	// coded construction's gather rounds).
	Frags []baseobj.Fragment
	// Err is a protocol error (wrong op, unauthorized writer) — crash
	// failures never produce a report at all.
	Err error
}

// DirectReader is implemented by stores whose read-max is a single
// low-level operation; the engine batch-scatters such rounds through the
// fabric instead of starting each store individually.
type DirectReader interface {
	// ReadTarget returns the read-max invocation target.
	ReadTarget() Target
}

// DirectWriter is the write-side analogue of DirectReader.
type DirectWriter interface {
	// WriteTarget returns the write-max(v) invocation target.
	WriteTarget(v types.TSValue) Target
}

// Round is one in-flight scatter: the triggered calls plus their response
// stream.
type Round struct {
	calls []*fabric.Call
	ch    chan Report
}

// Scatter triggers every target in one TriggerBatch and wires completions
// into the round's report stream. It never blocks: completions arrive on
// fabric goroutines (or immediately, for synchronous passes). The report
// channel's capacity equals the number of scattered calls and each call
// completes at most once, so the completion closures can never block —
// not even when the round was abandoned by a cancelled gather and late
// releases complete the remaining calls with nobody left to drain them.
//
// Completions are registered at trigger time (BatchOp.Done), so the server
// of each report is resolved up front via Fabric.ServerFor — an unroutable
// target reports server 0 with its routing error, exactly as its call
// completes.
func Scatter(fab *fabric.Fabric, client types.ClientID, targets []Target) *Round {
	return scatter(fab, client, targets, false)
}

// ScatterScan is Scatter for an all-read round dispatched via TriggerScan:
// each server's members are answered from one consistent snapshot of that
// server's objects (backends without snapshot support fall back to per-op
// delivery — same responses, no cut guarantee). Algorithm 2's collects are
// exactly this shape, and the snapshot both tightens the model and lets
// event-loop/network lanes answer the whole group in one pass.
func ScatterScan(fab *fabric.Fabric, client types.ClientID, targets []Target) *Round {
	return scatter(fab, client, targets, true)
}

func scatter(fab *fabric.Fabric, client types.ClientID, targets []Target, scan bool) *Round {
	r := &Round{ch: make(chan Report, len(targets))}
	batch := make([]fabric.BatchOp, len(targets))
	for i, t := range targets {
		srv, _ := fab.ServerFor(t.Object)
		i, t, srv := i, t, srv
		batch[i] = fabric.BatchOp{Object: t.Object, Inv: t.Inv, Done: func(o fabric.Outcome) {
			Deliver(r.ch, Report{Index: i, Object: t.Object, Server: srv, Val: o.Resp.Val, Data: o.Resp.Data, Frags: o.Resp.Frags, Err: o.Err})
		}}
	}
	if scan {
		r.calls = fab.TriggerScan(client, batch)
	} else {
		r.calls = fab.TriggerBatch(client, batch)
	}
	return r
}

// Calls returns the round's call handles in target order.
func (r *Round) Calls() []*fabric.Call { return r.calls }

// Size returns the number of scattered operations.
func (r *Round) Size() int { return len(r.calls) }

// AwaitMax blocks until need responses arrived (folding the maximum
// timestamped value) or ctx is done.
func (r *Round) AwaitMax(ctx context.Context, need int) (types.TSValue, error) {
	return Gather(ctx, r.ch, need)
}

// AwaitServers blocks until all but f of the servers the round targets have
// delivered complete scans — every operation of the round on that server
// responded — folding the maximum timestamped value. This is Algorithm 2's
// "n-f complete scans" condition: a server hosting none of the round's
// registers has vacuously completed its scan, so of the n-f servers the
// paper waits for, exactly (hosting servers)-f have anything to say. The
// threshold is derived from the round's own resolved targets, never from a
// caller's remembered n, so it stays right when a layout spans fewer than n
// servers and when a reconfiguration re-homes registers between attempts.
func (r *Round) AwaitServers(ctx context.Context, f int) (types.TSValue, error) {
	remaining := make(map[types.ServerID]int)
	for _, call := range r.calls {
		remaining[call.Event().Server]++
	}
	need, err := scanQuorum(remaining, f)
	if err != nil {
		return types.ZeroTSValue, err
	}
	return awaitServers(ctx, r.ch, remaining, need)
}

// scanQuorum derives a server-scan round's threshold from its per-server
// countdown: all but f of the servers hosting a target. It rejects an f
// that leaves no server to wait for.
func scanQuorum(remaining map[types.ServerID]int, f int) (int, error) {
	need := len(remaining) - f
	if f < 0 || need <= 0 {
		return 0, fmt.Errorf("rounds: scan gather tolerating %d of %d hosting servers", f, len(remaining))
	}
	return need, nil
}

// awaitServers is AwaitServers on an explicit report stream and per-server
// countdown (split out so the duplicate-report accounting is testable in
// isolation). A server's scan counts exactly when its countdown reaches
// zero; a report arriving for a server whose countdown is already exhausted
// — a duplicated or retried completion — is a protocol violation: letting
// the countdown go negative would both miscount and, on a later pass
// through zero, double-count the server's scan.
func awaitServers(ctx context.Context, ch <-chan Report, remaining map[types.ServerID]int, need int) (types.TSValue, error) {
	max := types.ZeroTSValue
	for scans := 0; scans < need; {
		// A done context fails deterministically even when reports are
		// already buffered (select picks ready cases at random).
		if err := ctx.Err(); err != nil {
			return max, fmt.Errorf("rounds: scan gather (%d/%d servers): %w", scans, need, err)
		}
		select {
		case <-ctx.Done():
			return max, fmt.Errorf("rounds: scan gather (%d/%d servers): %w", scans, need, ctx.Err())
		case rep := <-ch:
			if rep.Err != nil {
				return max, fmt.Errorf("rounds: scan gather: %w", rep.Err)
			}
			left := remaining[rep.Server]
			if left <= 0 {
				return max, fmt.Errorf("%w: server %d at %d/%d scans", ErrOverDelivery, rep.Server, scans, need)
			}
			max = types.MaxTSValue(max, rep.Val)
			remaining[rep.Server] = left - 1
			if left == 1 {
				scans++
			}
		}
	}
	return max, nil
}

// Gather folds need reports from ch with MaxTSValue, failing fast on
// report errors (protocol violations, not crash failures) and failing
// deterministically when ctx is done.
func Gather(ctx context.Context, ch <-chan Report, need int) (types.TSValue, error) {
	max := types.ZeroTSValue
	for got := 0; got < need; got++ {
		// A done context fails deterministically even when reports are
		// already buffered (select picks ready cases at random).
		if err := ctx.Err(); err != nil {
			return max, fmt.Errorf("rounds: quorum gather (%d/%d): %w", got, need, err)
		}
		select {
		case <-ctx.Done():
			return max, fmt.Errorf("rounds: quorum gather (%d/%d): %w", got, need, ctx.Err())
		case rep := <-ch:
			if rep.Err != nil {
				return max, fmt.Errorf("rounds: store error: %w", rep.Err)
			}
			max = types.MaxTSValue(max, rep.Val)
		}
	}
	return max, nil
}

// Fold is the non-blocking counterpart of Gather: it accumulates responses
// (folding the maximum timestamped value) and fires its report exactly once
// — on the need'th response or the first error. Complete never blocks, so
// folds are safe to feed from fabric goroutines; late completions after the
// report fired are absorbed silently, matching the buffered-channel
// discipline of the blocking gathers. If fewer than need responses ever
// arrive (held or crashed operations), the report simply never fires,
// exactly like any pending op — callers bound the wait at a higher level.
type Fold struct {
	mu        sync.Mutex
	remaining int
	max       types.TSValue
	done      bool
	report    func(types.TSValue, error)
}

// NewFold creates a fold firing report after need successful responses.
func NewFold(need int, report func(types.TSValue, error)) *Fold {
	return &Fold{remaining: need, report: report}
}

// Complete accumulates one response, firing the report on the need'th
// response or the first error.
func (j *Fold) Complete(v types.TSValue, err error) {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return
	}
	if err != nil {
		j.done = true
		r := j.report
		j.mu.Unlock()
		r(types.ZeroTSValue, err)
		return
	}
	j.max = types.MaxTSValue(j.max, v)
	j.remaining--
	if j.remaining > 0 {
		j.mu.Unlock()
		return
	}
	j.done = true
	r := j.report
	max := j.max
	j.mu.Unlock()
	r(max, nil)
}

// viewRetry wraps a fold's report with the engine's built-in view-change
// recovery: a round that fails because some member reached a departing
// server re-scatters whole (through fresh routes — the re-resolution is the
// point) after fabric.ViewRetryDelay, up to fabric.MaxViewRetries attempts.
// The re-scatter is sound because a view-change completion guarantees the
// failed op never applied, and every other member of a quorum round is an
// idempotent read / (re)write of the same timestamped value. rescatter runs
// from a timer goroutine, never from the completing fabric goroutine, so
// retries cannot recurse into the dispatch path mid-completion.
func ViewRetry(attempt int, report func(types.TSValue, error), rescatter func(attempt int)) func(types.TSValue, error) {
	return func(v types.TSValue, err error) {
		if err != nil && fabric.IsViewChange(err) && attempt < fabric.MaxViewRetries {
			next := attempt + 1
			time.AfterFunc(fabric.ViewRetryDelay(attempt), func() { rescatter(next) })
			return
		}
		report(v, err)
	}
}

// ScatterFold triggers every target and invokes report exactly once: when
// need responses arrived (with their folded maximum) or on the first
// error. It never blocks — completions run on fabric goroutines — which
// makes it the right shape inside asynchronous store starts: if any
// operation never responds (held or crashed), the report simply never
// fires, exactly like any pending op. Rounds that race a reconfiguration
// retry transparently (see viewRetry).
func ScatterFold(fab *fabric.Fabric, client types.ClientID, targets []Target, need int, report func(types.TSValue, error)) {
	ScatterFoldDyn(fab, client, func() ([]Target, int) { return targets, need }, report)
}

// Plan supplies one attempt's round geometry: the targets to scatter and
// the quorum threshold to fold at. Dynamic rounds call it afresh on every
// attempt, so a retry that crosses a resize epoch re-scatters against the
// NEW placement and the NEW n−f — a plan captured at first call would pin
// a gather spanning the epoch to the old, possibly retired, object set and
// the old threshold.
type Plan func() (targets []Target, need int)

// ScatterFoldDyn is ScatterFold with per-attempt geometry: build runs
// before every scatter (including view-change retries), so rounds follow
// live resizes instead of replaying the shape of their first attempt.
func ScatterFoldDyn(fab *fabric.Fabric, client types.ClientID, build Plan, report func(types.TSValue, error)) {
	scatterFoldDynAttempt(fab, client, build, report, 0)
}

func scatterFoldDynAttempt(fab *fabric.Fabric, client types.ClientID, build Plan, report func(types.TSValue, error), attempt int) {
	targets, need := build()
	if need <= 0 || need > len(targets) {
		report(types.ZeroTSValue, fmt.Errorf("rounds: fold needs %d of %d targets", need, len(targets)))
		return
	}
	j := NewFold(need, ViewRetry(attempt, report, func(next int) {
		scatterFoldDynAttempt(fab, client, build, report, next)
	}))
	done := func(o fabric.Outcome) { j.Complete(o.Resp.Val, o.Err) }
	batch := make([]fabric.BatchOp, len(targets))
	for i, t := range targets {
		batch[i] = fabric.BatchOp{Object: t.Object, Inv: t.Inv, Done: done}
	}
	fab.TriggerBatch(client, batch)
}

// serverFold accumulates per-server scan completions for ScatterFoldServers:
// the callback analogue of AwaitServers, with the same duplicate-report
// accounting.
type serverFold struct {
	mu        sync.Mutex
	remaining map[types.ServerID]int
	need      int
	scans     int
	max       types.TSValue
	done      bool
	report    func(types.TSValue, error)
}

// complete accumulates one operation completion for its server, firing the
// report when need servers delivered complete scans or on the first error
// (including over-delivery, mirroring AwaitServers).
func (j *serverFold) complete(server types.ServerID, v types.TSValue, err error) {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return
	}
	fire := func(v types.TSValue, err error) {
		j.done = true
		r := j.report
		j.mu.Unlock()
		r(v, err)
	}
	if err != nil {
		fire(types.ZeroTSValue, fmt.Errorf("rounds: scan fold: %w", err))
		return
	}
	left := j.remaining[server]
	if left <= 0 {
		fire(types.ZeroTSValue, fmt.Errorf("%w: server %d at %d/%d scans", ErrOverDelivery, server, j.scans, j.need))
		return
	}
	j.max = types.MaxTSValue(j.max, v)
	j.remaining[server] = left - 1
	if left == 1 {
		j.scans++
		if j.scans >= j.need {
			fire(j.max, nil)
			return
		}
	}
	j.mu.Unlock()
}

// ScatterFoldServers is the non-blocking counterpart of
// Scatter+AwaitServers: it triggers every target in one batch and invokes
// report exactly once — when all but f of the servers hosting a target
// delivered complete scans (Algorithm 2's "n-f complete scans"; see
// AwaitServers for why the count is over hosting servers), or on the first
// error. Completions run on fabric goroutines and never block; a
// partially-scanned crashed server never counts, because its remaining
// operations never respond.
func ScatterFoldServers(fab *fabric.Fabric, client types.ClientID, targets []Target, f int, report func(types.TSValue, error)) {
	scatterFoldServersAttempt(fab, client, targets, f, report, false, 0)
}

// ScatterFoldServersScan is ScatterFoldServers dispatched via TriggerScan:
// the non-blocking snapshot collect (see ScatterScan).
func ScatterFoldServersScan(fab *fabric.Fabric, client types.ClientID, targets []Target, f int, report func(types.TSValue, error)) {
	scatterFoldServersAttempt(fab, client, targets, f, report, true, 0)
}

func scatterFoldServersAttempt(fab *fabric.Fabric, client types.ClientID, targets []Target, f int, report func(types.TSValue, error), scan bool, attempt int) {
	// The per-server countdown must exist before the batch fires: with
	// trigger-time callbacks, the in-process lane completes ops inside the
	// TriggerBatch call itself. Unroutable targets count under server 0 and
	// report their routing error through their call's completion, as before.
	// A retry rebuilds the countdown — and the threshold derived from it —
	// from scratch: ServerFor re-resolves under the new epoch, so migrated
	// objects count under their new server.
	remaining := make(map[types.ServerID]int)
	servers := make([]types.ServerID, len(targets))
	for i, t := range targets {
		srv, _ := fab.ServerFor(t.Object)
		servers[i] = srv
		remaining[srv]++
	}
	need, err := scanQuorum(remaining, f)
	if err != nil {
		report(types.ZeroTSValue, err)
		return
	}
	j := &serverFold{remaining: remaining, need: need, report: ViewRetry(attempt, report, func(next int) {
		scatterFoldServersAttempt(fab, client, targets, f, report, scan, next)
	})}
	batch := make([]fabric.BatchOp, len(targets))
	for i, t := range targets {
		server := servers[i]
		batch[i] = fabric.BatchOp{Object: t.Object, Inv: t.Inv, Done: func(o fabric.Outcome) {
			j.complete(server, o.Resp.Val, o.Err)
		}}
	}
	if scan {
		fab.TriggerScan(client, batch)
	} else {
		fab.TriggerBatch(client, batch)
	}
}
