// Package rounds is the quorum round engine underneath every emulation: one
// completion-based Scatter that triggers a round of low-level operations
// across the fabric's lanes and reports exactly once when its quorum
// condition holds, and Retry, the one place a view-change retry is decided
// and scheduled. Nothing here blocks or parks a goroutine; the architecture
// narrative (what the constructions scatter, how blocking callers ride the
// same path) lives in the module's doc.go.
//
// Crash adaptivity is inherited from the fabric's semantics: operations on
// crashed servers never respond, so a round simply keeps waiting for other
// servers; a quorum assumption of at most f faulty servers makes the
// condition eventually reachable, and otherwise the report never fires —
// exactly a pending op, bounded by the caller's context at a higher level.
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

// ErrOverDelivery fails a server-scan round when a server produces more
// reports than the round scattered to it: a duplicated or retried
// completion. Without the guard the per-server countdown would pass through
// zero and silently double-count complete scans, so the engine treats
// over-delivery as a protocol violation instead.
var ErrOverDelivery = errors.New("rounds: server delivered more reports than its scattered operations")

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
	// Index is the operation's position in the scattered target slice.
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

// Plan supplies one attempt's round geometry: the targets to scatter and
// the threshold to complete at. It runs afresh before every attempt, so a
// retry that crosses a resize epoch re-scatters against the NEW placement
// and the NEW n−f — a plan captured at first call would pin a round
// spanning the epoch to the old, possibly retired, object set and the old
// threshold.
type Plan func() (targets []Target, need int)

// Round describes one quorum round: its geometry, how it is dispatched,
// when it is complete, and how its responses are reduced. Exactly one of
// Max and Reports is set.
type Round struct {
	// Plan supplies each attempt's targets and threshold.
	Plan Plan
	// Scan dispatches through TriggerScan: every server's members of an
	// all-read round are answered from one consistent snapshot of that
	// server's objects (backends without snapshot support fall back to
	// per-op delivery — same responses, no cut guarantee).
	Scan bool
	// Servers selects Algorithm 2's completion condition — all but f of the
	// servers hosting a target delivered complete scans, every operation
	// aimed at them responded — instead of a response count; Plan's int is
	// then f. A server hosting none of the round's registers has vacuously
	// completed its scan, so of the n−f servers the paper waits for exactly
	// (hosting servers)−f have anything to say. The threshold is derived
	// from the attempt's own resolved targets, never from a caller's
	// remembered n, so it stays right when a layout spans fewer than n
	// servers and when a reconfiguration re-homes registers between
	// attempts. A partially-scanned crashed server never counts, because
	// its remaining operations never respond.
	Servers bool
	// Max reduces the round to the highest timestamped response.
	Max func(types.TSValue, error)
	// Reports hands over the raw responses that completed the round, in
	// arrival order (the coded construction needs fragment lists and
	// payload bytes, not a fold).
	Reports func([]Report, error)
}

// Scatter runs one quorum round: it triggers every planned target in one
// batch and invokes the round's reducer exactly once — when the completion
// condition holds, on the first protocol error, or with ctx's error when
// the op was cancelled before an attempt. It never blocks: completions run
// on fabric goroutines (or inline, on the in-process lane), late ones after
// the report fired are absorbed silently, and a round that races a
// reconfiguration re-scatters whole through Retry.
func Scatter(ctx context.Context, fab *fabric.Fabric, client types.ClientID, r Round) {
	if err := ctx.Err(); err != nil {
		r.report(nil, types.ZeroTSValue, err)
		return
	}
	r.attempt(ctx, fab, client, 0)
}

func (r Round) report(j *Fold, v types.TSValue, err error) {
	if err != nil {
		err = fmt.Errorf("rounds: %w", err)
	}
	if r.Reports == nil {
		r.Max(v, err)
		return
	}
	var reps []Report
	if err == nil {
		reps = j.reports
	}
	r.Reports(reps, err)
}

func (r Round) attempt(ctx context.Context, fab *fabric.Fabric, client types.ClientID, attempt int) {
	targets, need := r.Plan()
	j := &Fold{left: need}
	if r.Reports != nil {
		j.reports = make([]Report, 0, len(targets))
	}
	j.report = func(v types.TSValue, err error) {
		if err != nil && Retry(ctx, attempt, err,
			func(next int) { r.attempt(ctx, fab, client, next) },
			func(err error) { r.report(j, types.ZeroTSValue, err) }) {
			return
		}
		r.report(j, v, err)
	}
	batch := make([]fabric.BatchOp, len(targets))
	if r.Servers || j.reports != nil {
		// Reports name their server, and the per-server countdown must exist
		// before the batch fires: with trigger-time callbacks the in-process
		// lane completes ops inside the dispatch call itself. ServerFor
		// resolves under the current epoch, so on a retry migrated objects
		// count under their new server. An unroutable target counts under
		// server 0 and reports its routing error through its completion.
		if r.Servers {
			j.owed = make(map[types.ServerID]int)
		}
		for i, t := range targets {
			srv, _ := fab.ServerFor(t.Object)
			if r.Servers {
				j.owed[srv]++
			}
			batch[i] = fabric.BatchOp{Object: t.Object, Inv: t.Inv, Done: func(o fabric.Outcome) {
				rep := Report{Index: i, Object: t.Object, Server: srv, Val: o.Resp.Val, Data: o.Resp.Data, Frags: o.Resp.Frags, Err: o.Err}
				j.add(&rep)
			}}
		}
	} else {
		// The count-threshold max-fold — every ABD collect and push — shares
		// one completion closure across the round and resolves no servers.
		done := func(o fabric.Outcome) { j.Complete(o.Resp.Val, o.Err) }
		for i, t := range targets {
			batch[i] = fabric.BatchOp{Object: t.Object, Inv: t.Inv, Done: done}
		}
	}
	if r.Servers {
		// need is f: wait for all but f of the hosting servers, and reject
		// an f that leaves no server to wait for.
		j.left = len(j.owed) - need
		if need < 0 || j.left <= 0 {
			r.report(j, types.ZeroTSValue, fmt.Errorf("scan round tolerating %d of %d hosting servers", need, len(j.owed)))
			return
		}
	} else if need <= 0 || need > len(targets) {
		r.report(j, types.ZeroTSValue, fmt.Errorf("round needs %d of %d targets", need, len(targets)))
		return
	}
	if r.Scan {
		fab.TriggerScan(client, batch)
	} else {
		fab.TriggerBatch(client, batch)
	}
}

// Retry is the one place a view-change retry is decided and scheduled, for
// whole rounds (Scatter, abdcore's store-start rounds) and for single
// low-level operations (regemu's per-register re-trigger) alike. It returns
// false when err is not a view change or attempt (0-based) has spent
// fabric.MaxViewRetries: the caller reports err. Otherwise it takes the
// outcome over: after fabric.ViewRetryDelay(attempt) it calls
// again(attempt+1) — or, when ctx ended meanwhile, fail with ctx's error,
// so nothing is re-triggered for a caller that gave up or an engine that
// closed.
//
// Retrying is sound because a view-change completion guarantees the failed
// op never applied (fabric.IsViewChange), and every other member of a
// quorum round is an idempotent read / (re)write of the same timestamped
// value. again runs from a timer goroutine, never from the completing
// fabric goroutine, so retries cannot recurse into the dispatch path
// mid-completion; it re-resolves routes — the re-resolution is the point.
func Retry(ctx context.Context, attempt int, err error, again func(attempt int), fail func(error)) bool {
	if !fabric.IsViewChange(err) || attempt >= fabric.MaxViewRetries {
		return false
	}
	time.AfterFunc(fabric.ViewRetryDelay(attempt), func() {
		if err := ctx.Err(); err != nil {
			fail(err)
			return
		}
		again(attempt + 1)
	})
	return true
}

// Fold is a round's accumulator: it counts responses toward the threshold,
// folding the maximum timestamped value, and fires its report exactly once
// — on the completing response or the first error. Complete never blocks,
// so folds are safe to feed from fabric goroutines; late completions after
// the report fired are absorbed silently. If the threshold is never reached
// (held or crashed operations), the report simply never fires, exactly like
// any pending op — callers bound the wait at a higher level.
type Fold struct {
	mu     sync.Mutex
	left   int // responses — or, with owed, complete server scans — still needed
	max    types.TSValue
	done   bool
	report func(types.TSValue, error)

	// Set by Scatter for the rounds that need them, nil otherwise.
	owed    map[types.ServerID]int // responses each hosting server still owes (server-scan rounds)
	reports []Report               // the raw responses so far (report rounds)
}

// NewFold creates a count-threshold fold firing report after need
// successful responses — the accumulator for rounds whose members are
// multi-step store chains rather than single scattered operations.
func NewFold(need int, report func(types.TSValue, error)) *Fold {
	return &Fold{left: need, report: report}
}

// Complete accumulates one response, firing the report on the need'th
// response or the first error.
func (j *Fold) Complete(v types.TSValue, err error) {
	j.add(&Report{Val: v, Err: err})
}

// add accumulates one report. On a server-scan round a server's scan counts
// exactly when its countdown reaches zero; a report for a server whose
// countdown is already exhausted — or that the round never scattered to —
// fails the round with ErrOverDelivery.
func (j *Fold) add(rep *Report) {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return
	}
	err, counts := rep.Err, true
	if err == nil && j.owed != nil {
		owes := j.owed[rep.Server]
		if owes <= 0 {
			err = fmt.Errorf("%w: server %d with %d scans outstanding", ErrOverDelivery, rep.Server, j.left)
		}
		j.owed[rep.Server] = owes - 1
		counts = owes == 1
	}
	if err != nil {
		j.done = true
		j.mu.Unlock()
		j.report(types.ZeroTSValue, err)
		return
	}
	j.max = types.MaxTSValue(j.max, rep.Val)
	if j.reports != nil {
		j.reports = append(j.reports, *rep)
	}
	if counts {
		j.left--
	}
	if j.left > 0 {
		j.mu.Unlock()
		return
	}
	j.done = true
	max := j.max
	j.mu.Unlock()
	j.report(max, nil)
}
