// Package rounds is the quorum round engine underneath every emulation: one
// completion-based Scatter that triggers a round of low-level operations
// across the fabric's lanes and reports exactly once when its quorum
// condition holds, and Retry, the one place a view-change retry is decided:
// it parks the op on the fabric's view stamp until the transition that
// bounced it has ended — no backoff, no budget, no clock. Nothing here
// blocks or parks a goroutine; the architecture
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
// object — the fabric's batch op itself, so a plan writes its targets once,
// into the storage the fabric dispatches from.
type Target = fabric.BatchOp

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

// Plan supplies one attempt's round geometry: it appends the targets to
// scatter to buf — the round's recycled buffer, handed over empty — and
// returns it with the threshold to complete at. The round keeps the result
// as its buffer, so a plan must append, never return a slice of its own. It
// runs afresh before every attempt, so a
// retry that crosses a resize epoch re-scatters against the NEW placement
// and the NEW n−f — a plan captured at first call would pin a round
// spanning the epoch to the old, possibly retired, object set and the old
// threshold.
type Plan func(buf []Target) (targets []Target, need int)

// Round describes one quorum round: its geometry, how it is dispatched,
// when it is complete, and how its responses are reduced. Exactly one of
// Max and Reports is set.
type Round struct {
	// Plan supplies each attempt's targets and threshold.
	Plan Plan
	// Scan makes the round a server scan, Algorithm 2's collect. It
	// dispatches through TriggerScan: every server's members of an all-read
	// round are answered from one consistent snapshot of that server's
	// objects (backends without snapshot support fall back to per-op
	// delivery — same responses, no cut guarantee). It completes when all
	// but f of the servers hosting a target delivered complete scans, every
	// operation aimed at them responded, instead of at a response count;
	// Plan's int is then f. A server hosting none of the round's registers
	// has vacuously completed its scan, so of the n−f servers the paper
	// waits for exactly (hosting servers)−f have anything to say. The
	// threshold is derived from the attempt's own resolved targets, never
	// from a caller's remembered n, so it stays right when a layout spans
	// fewer than n servers and when a reconfiguration re-homes registers
	// between attempts; a plan whose objects a reshape retired before they
	// resolved retries like any view-change bounce. A partially-scanned
	// crashed server never counts, because its remaining operations never
	// respond.
	Scan bool
	// Max reduces the round to the highest timestamped response and its
	// agreement set: bit i is set when target i's response, one of those
	// that completed the round, equalled that maximum (targets past the
	// 64th never set a bit, so the set may be smaller than the truth,
	// never larger). abdcore's atomic read skips the write-back to the
	// stores in it; every other reducer ignores it.
	Max func(max types.TSValue, agree uint64, err error)
	// Reports hands over the raw responses that completed the round, in
	// arrival order (the coded construction needs fragment lists and
	// payload bytes, not a fold). The slice is the reducer's to keep.
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
	if err := types.CtxErr(ctx); err != nil {
		r.report(nil, types.ZeroTSValue, 0, err)
		return
	}
	start(ctx, fab, client, r)
}

func (r *Round) report(j *Fold, v types.TSValue, agree uint64, err error) {
	if err != nil {
		err = fmt.Errorf("rounds: %w", err)
	}
	if r.Reports == nil {
		r.Max(v, agree, err)
		return
	}
	var reps []Report
	if err == nil {
		reps = j.reports
	}
	r.Reports(reps, err)
}

// attempt is everything one attempt of a round needs, pooled so that a round
// in steady state allocates nothing: the fold, the fabric group (op batch,
// call slab, table entries), the per-op server table, completion funcs bound once.
// The fabric's reference count on the group decides the lifetime (recycle is
// the group's Released), so a response after the report fired still finds its
// own round's fold, and an attempt with an op that never responds is never
// recycled: the collector takes it.
type attempt struct {
	Fold
	group   fabric.Group
	servers []types.ServerID // each op's hosting server (report and server-scan rounds)

	ctx    context.Context
	fab    *fabric.Fabric
	client types.ClientID
	round  Round
	stamp  uint64 // fab.ViewStamp() before the plan and its lookups (Retry)
}

// attempts has no New: it would close an initialization cycle through finish.
var attempts sync.Pool

// start plans and triggers one attempt of r on a pooled attempt.
func start(ctx context.Context, fab *fabric.Fabric, client types.ClientID, r Round) {
	s, _ := attempts.Get().(*attempt)
	if s == nil {
		s = new(attempt)
		s.Fold.report, s.group.Done, s.group.Released = s.finish, s.complete, s.recycle
	}
	s.ctx, s.fab, s.client, s.round, s.stamp = ctx, fab, client, r, fab.ViewStamp()
	targets, need := r.Plan(s.group.Ops[:0])
	s.group.Ops = targets
	s.left, s.max, s.agree, s.done = need, types.ZeroTSValue, 0, false
	if r.Reports != nil {
		s.reports = make([]Report, 0, len(targets))
	}
	var stale error // a target a transition retired after the plan read it
	if r.Scan || r.Reports != nil {
		// Reports name their server, and the per-server countdown must exist
		// before the batch fires: the in-process lane completes ops inside
		// the dispatch call. ServerFor resolves under the current epoch, so
		// on a retry migrated objects count under their new server; an
		// unroutable target counts under server 0 and reports its routing
		// error through its completion.
		if r.Scan && s.owed == nil {
			s.owed = make(map[types.ServerID]int)
		}
		for i := range targets {
			srv, err := fab.ServerFor(targets[i].Object)
			if fabric.IsViewChange(err) {
				stale = err
			}
			s.servers = append(s.servers, srv)
			if r.Scan {
				s.owed[srv]++
			}
		}
	}
	var err error
	if r.Scan {
		// need is f: wait for all but f of the hosting servers, and reject
		// an f that leaves no server to wait for — unless the plan was
		// stale: a reshape that retired every object of the old placement
		// leaves none of them a server, and the round retries against the
		// new one like any view-change bounce.
		s.left = len(s.owed) - need
		if need < 0 || s.left <= 0 {
			err = fmt.Errorf("scan round tolerating %d of %d hosting servers", need, len(s.owed))
			if stale != nil {
				err = stale
			}
		}
	} else if need <= 0 || need > len(targets) {
		err = fmt.Errorf("round needs %d of %d targets", need, len(targets))
	}
	if err != nil { // nothing was triggered, so no reference is out
		s.finish(types.ZeroTSValue, 0, err)
		s.recycle()
		return
	}
	if r.Scan {
		fab.TriggerScan(client, &s.group)
	} else {
		fab.TriggerBatch(client, &s.group)
	}
}

// complete is the group's Done: one response into the fold.
func (s *attempt) complete(i int, o *fabric.Outcome) {
	if len(s.servers) == 0 { // the count-threshold max-fold: every ABD collect and push
		s.add(&Report{Index: i, Val: o.Resp.Val, Err: o.Err})
		return
	}
	s.add(&Report{Index: i, Object: s.group.Ops[i].Object, Server: s.servers[i], Val: o.Resp.Val, Data: o.Resp.Data, Frags: o.Resp.Frags, Err: o.Err})
}

// finish is the fold's report, fired inside a completion (s is alive): retry
// the whole round on a view change, otherwise reduce. The next attempt
// outlives s, so a retry runs on copies of the parameters.
func (s *attempt) finish(v types.TSValue, agree uint64, err error) {
	if err != nil {
		ctx, fab, client, r := s.ctx, s.fab, s.client, s.round
		if Retry(ctx, fab, s.stamp, err,
			func() { start(ctx, fab, client, r) },
			func(err error) { r.report(nil, types.ZeroTSValue, 0, err) }) {
			return
		}
	}
	s.round.report(&s.Fold, v, agree, err)
}

// recycle is the group's Released: nothing can reach s any more. The report
// slice went to the reducer for good.
func (s *attempt) recycle() {
	s.ctx, s.fab, s.round = nil, nil, Round{}
	s.reports, s.servers = nil, s.servers[:0]
	clear(s.owed)
	attempts.Put(s)
}

// Retry is the one place a view-change retry is decided, for whole rounds
// (Scatter, abdcore's push over chain stores) and for the one-op groups of a
// single register's re-trigger (regemu's) alike. It returns false when err is not
// a view change: the caller reports err. Otherwise it takes the outcome over
// through fab.AwaitView: again runs once the view stamp differs from seen —
// the stamp read before the failed attempt looked any object up — which is at
// once when the transition that bounced the attempt is already over (a sealed
// or retired object) and at that transition's end otherwise;
// fail runs instead, with ctx's error, if ctx ends first, so nothing is
// re-triggered for a caller that gave up or an engine that closed. Nothing
// re-triggers without a stamp advance, so there is no hot loop to guard and no
// budget to exhaust: a view-change error never reaches a client.
//
// Retrying is sound because a view-change completion guarantees the failed
// op never applied (fabric.IsViewChange), and every other member of a
// quorum round is an idempotent read / (re)write of the same timestamped
// value. again runs on a goroutine of its own, never on the completing
// fabric goroutine, so retries cannot recurse into the dispatch path
// mid-completion; it plans and looks its objects up afresh — that is the point.
func Retry(ctx context.Context, fab *fabric.Fabric, seen uint64, err error, again func(), fail func(error)) bool {
	if !fabric.IsViewChange(err) {
		return false
	}
	fab.AwaitView(ctx, seen, again, fail)
	return true
}

// Fold is a round's accumulator: it counts responses toward the threshold,
// folding the maximum timestamped value and the indices of the responses
// that carry it, and fires its report exactly once — on the completing
// response or the first error. Complete never blocks,
// so folds are safe to feed from fabric goroutines; late completions after
// the report fired are absorbed silently. If the threshold is never reached
// (held or crashed operations), the report simply never fires, exactly like
// any pending op — callers bound the wait at a higher level.
type Fold struct {
	mu     sync.Mutex
	left   int // responses — or, with owed, complete server scans — still needed
	max    types.TSValue
	agree  uint64 // bit i: report Index i carried max (indices < 64)
	done   bool
	report func(max types.TSValue, agree uint64, err error)

	// Set by Scatter for the rounds that need them, empty otherwise.
	owed    map[types.ServerID]int // responses each hosting server still owes (server-scan rounds)
	reports []Report               // the raw responses so far (report rounds)
}

// Init readies a fold — fresh, or recycled once its last response came in —
// as a count-threshold fold firing report after need successful responses:
// the accumulator for rounds whose members are multi-step store chains
// rather than single scattered operations. Its responses carry no index, so
// the agreement set it reports is meaningless. A pooled owner passes a
// report bound once, so Init allocates nothing.
func (j *Fold) Init(need int, report func(types.TSValue, uint64, error)) {
	j.left, j.max, j.agree, j.done, j.report = need, types.ZeroTSValue, 0, false, report
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
	if err == nil && len(j.owed) > 0 {
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
		j.report(types.ZeroTSValue, 0, err)
		return
	}
	switch bit := uint64(1) << rep.Index; { // 0 past the 64th target
	case j.max.Less(rep.Val):
		j.max, j.agree = rep.Val, bit
	case j.max == rep.Val:
		j.agree |= bit
	}
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
	max, agree := j.max, j.agree
	j.mu.Unlock()
	j.report(max, agree, nil)
}
