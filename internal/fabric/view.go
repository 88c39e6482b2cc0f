// View-change coordination: live resizing of the membership — grow n,
// shrink n, change f, swap any number of servers — with state transfer,
// without stopping reads or writes.
//
// Every membership delta is one Resize, committed as ONE activation, and
// the delta alone picks the transition:
//
//   - Same shape — as many joiners as leavers, f unchanged: n and f, and
//     with them every construction's quorum geometry, stay as they are.
//     Only the leavers freeze, and each one's objects move with their state
//     onto its joiner; the construction is never asked to re-place anything.
//   - Shape change — n or f moves: every register's placement depends on
//     both, so every old member freezes and the construction's reshape
//     re-places its objects against the quiesced world.
//
// The steps:
//
//  1. Admit every joiner (Fabric.addServer): fresh server IDs, empty
//     of objects, new dispatch lanes. Joiners receive no traffic yet — the
//     object table still holds the old placement.
//  2. Freeze (Server.Depart + lane.setDeparting): the leavers, or on a shape
//     change every old member — thresholds derived from the old view must
//     never gather concurrently with seeding of the new placement, or a
//     write acked by an old quorum could miss every member of a new one.
//  3. Drain once: force-complete the gate-parked ops of every frozen lane
//     (PhaseApply never applied → retryable error; PhaseRespond already
//     linearized → its real response) and wait for on-the-wire ops to
//     finish. A frozen server that crashes mid-drain is detected — its
//     in-flight ops move to dropped, not completed — and the transition
//     aborts cleanly instead of transferring unsound state.
//  4. Transfer: a same-shape delta seals, fetches and moves each leaver's
//     objects one by one onto its joiner; a shape change runs the reshape
//     callback, which re-places and re-seeds base objects.
//  5. Activate: cluster.CommitView retires every leaver — refusing one that
//     still hosts an object (cluster.ErrServerNotEmpty) — and installs the
//     new failure budget under a single epoch bump — no operation can ever
//     observe a mixed view — then surviving frozen lanes unfreeze and
//     leaver backends close.
//
// Clients never stop: ops caught in a freeze window complete with a
// retryable ErrViewChanged (the error guarantees the op never applied, so
// the retry is exactly-once safe even for CAS), park on the view stamp
// (AwaitView) and re-execute once the transition has ended — committed or
// aborted — and its surviving frozen lanes serve again. An aborted
// transition (ErrResizeAborted) restores the old view: sealed-but-unmoved
// objects are rolled back via fresh unsealed clones, frozen survivors
// unfreeze, and empty joiners are retired. A leave is not a crash; a crash
// mid-transfer is — the abort spends nothing from the fail-stop budget
// beyond the crash that caused it.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/types"
)

// ErrResizeAborted marks a transition that was rolled back — typically
// because a frozen server crashed mid-drain or a transfer target crashed
// inside the sealed-but-not-activated window. The old view stays active
// (minus whatever the causing crash cost); the resize can be retried.
var ErrResizeAborted = errors.New("fabric: resize aborted")

// IsResizeAborted reports whether err is (or wraps) an aborted transition.
func IsResizeAborted(err error) bool { return errors.Is(err, ErrResizeAborted) }

// ResizeSpec describes a membership delta: any mix of joins, leaves, and a
// failure-budget change, committed as one transition.
type ResizeSpec struct {
	// Join lists the lane makers for the joining servers, one per joiner;
	// a nil entry uses the fabric's default maker.
	Join []LaneMaker
	// Leave lists the departing members. Each must be a live, non-departing
	// member of the current view.
	Leave []types.ServerID
	// F is the new failure budget; 0 keeps the current one.
	F int
}

// ResizeResult reports a committed transition.
type ResizeResult struct {
	// Joined are the admitted servers' IDs, in admission order.
	Joined []types.ServerID
	// Epoch is the activated view's epoch.
	Epoch uint64
	// Moved counts the objects a same-shape transition transferred off its
	// leavers (a reshape's re-placed objects are not counted here).
	Moved int
	// Duration is the freeze→activate wall-clock: how long operations
	// routed at frozen servers had to retry.
	Duration time.Duration
}

// ReshapeFunc is a construction-level resize, run inside the frozen window
// of a transition that changes n or f: every old member is quiesced, so the
// callback may read authoritative state, create and seed base objects on
// the new placement, and retire old ones through the Reshaper without
// racing any client operation. It must leave nothing on a leaver. A nil
// ReshapeFunc says the fabric hosts nothing to re-place.
type ReshapeFunc func(rs *Reshaper) error

// Resize commits an arbitrary membership delta as one transition: admit
// all joiners, freeze, drain once, move each object's state to its new
// placement, then activate the new view — with its re-derived quorum
// thresholds — atomically. No operation ever gathers against a mixed view:
// the old view serves until the freeze, the new one from the single
// CommitView epoch bump.
//
// The spec picks the transition. A delta that keeps n and f — as many
// joiners as leavers, F zero or the current f — freezes only the leavers
// and moves leaver i's objects onto joiner i, 1-for-1; reshape is never
// called. Any other delta freezes every old member and calls reshape to
// re-place construction state against the quiesced world (see Reshaper); a
// leaver that still hosts an object then aborts the transition at
// activation with cluster.ErrServerNotEmpty — which is what a nil reshape
// gets for a leaver hosting anything.
//
// A frozen server crashing at any point before activation aborts the
// transition (ErrResizeAborted): sealed-but-unmoved objects are restored,
// surviving frozen lanes unfreeze, empty joiners retire, and the old view
// stays active. The causing crash — and only it — is spent from the
// fail-stop budget. Concurrent view changes serialize.
func (f *Fabric) Resize(ctx context.Context, spec ResizeSpec, reshape ReshapeFunc) (*ResizeResult, error) {
	f.reconfMu.Lock()
	defer f.reconfMu.Unlock()

	// Validate the departing set before disturbing anything.
	type leaver struct {
		srv *cluster.Server
		l   *lane
	}
	seen := make(map[types.ServerID]bool, len(spec.Leave))
	leavers := make([]leaver, 0, len(spec.Leave))
	for _, old := range spec.Leave {
		if seen[old] {
			return nil, fmt.Errorf("fabric: server %d listed twice in the leave set", old)
		}
		seen[old] = true
		srv, err := f.cluster.Server(old)
		if err != nil {
			return nil, err
		}
		if srv.Crashed() {
			return nil, fmt.Errorf("fabric: cannot retire crashed server %d (its state is lost)", old)
		}
		if srv.Departing() {
			return nil, fmt.Errorf("fabric: server %d is already departing", old)
		}
		l := f.laneFor(old)
		if l == nil {
			return nil, fmt.Errorf("fabric: no dispatch lane for server %d", old)
		}
		leavers = append(leavers, leaver{srv: srv, l: l})
	}
	newF := spec.F
	if newF == 0 {
		newF = f.cluster.F()
	}
	sameShape := len(spec.Join) == len(spec.Leave) && newF == f.cluster.F()
	oldMembers := f.cluster.Members()

	// 1. Admit every joiner before freezing anything: if an admission
	// fails, the old members were never disturbed (earlier joiners stay as
	// empty members; the caller may retire them with another Resize).
	joined := make([]types.ServerID, 0, len(spec.Join))
	for _, maker := range spec.Join {
		id, err := f.addServer(maker)
		if err != nil {
			return nil, fmt.Errorf("fabric: admitting joiner: %w", err)
		}
		joined = append(joined, id)
	}

	// 2. Freeze. A shape change must freeze every old member: a quorum
	// gathered against the old thresholds concurrently with seeding could
	// ack a write on old members only, and a new-view quorum might
	// intersect that ack set nowhere. A same-shape transition keeps the old
	// quorum geometry, so only the leavers freeze.
	frozen := leavers
	if !sameShape {
		for _, m := range oldMembers {
			if seen[m] {
				continue // already in the leaver set
			}
			srv, err := f.cluster.Server(m)
			if err != nil {
				return nil, err
			}
			l := f.laneFor(m)
			if l == nil {
				return nil, fmt.Errorf("fabric: no dispatch lane for server %d", m)
			}
			frozen = append(frozen, leaver{srv: srv, l: l})
		}
	}
	freezeStart := time.Now()
	for _, fr := range frozen {
		fr.srv.Depart()
		f.drainParked(fr.l.setDeparting())
	}
	if f.testAfterFreeze != nil {
		f.testAfterFreeze()
	}

	// Abort restores the old view: roll back sealed-but-unmoved objects,
	// unfreeze surviving frozen lanes, retire joiners that stayed empty.
	sealed := make(map[types.ObjectID]baseobj.State)
	abort := func(cause error) error {
		for obj, state := range sealed {
			if err := f.cluster.ReplaceObject(obj, state); err != nil {
				cause = fmt.Errorf("%v (rollback of object %d failed: %v)", cause, obj, err)
			}
		}
		for _, fr := range frozen {
			if fr.srv.Crashed() {
				continue // a crashed server stays down; crashed wins over departing
			}
			fr.srv.Undepart()
			fr.l.clearDeparting()
		}
		for _, id := range joined {
			srv, err := f.cluster.Server(id)
			if err != nil || srv.NumObjects() != 0 {
				continue // a joiner that already hosts state stays a member
			}
			if err := f.cluster.RemoveServer(id); err == nil {
				if l := f.laneFor(id); l != nil {
					_ = l.backend.Close()
				}
			}
		}
		f.advanceView()
		// Both the abort marker and the cause stay matchable: callers branch
		// on IsResizeAborted, constructions' typed rejections (e.g. a pinned
		// coder refusing a restripe) stay reachable through errors.Is.
		return fmt.Errorf("%w: %w", ErrResizeAborted, cause)
	}

	// 3. Drain: wait out every frozen lane's on-the-wire ops. A frozen
	// server crashing here moves its in-flight ops to dropped — the count
	// reaches zero, but nothing completed — so the crash check, not the
	// count, is the exit condition that matters.
	for _, fr := range frozen {
		if err := f.awaitQuiesce(ctx, fr.l, fr.srv); err != nil {
			return nil, abort(fmt.Errorf("drain of server %d: %w", fr.l.server, err))
		}
	}

	// 4. A shape change re-places construction state against the quiesced
	// world; a same-shape one transfers whatever each leaver hosts onto its
	// joiner, in ascending object order: seal + fetch the authoritative
	// state, then move.
	moved := 0
	switch {
	case sameShape:
		for i, fr := range leavers {
			old, to := fr.l.server, joined[i]
			for _, obj := range f.cluster.ObjectsOn(old) {
				if fr.srv.Crashed() {
					return nil, abort(fmt.Errorf("server %d crashed before object %d transferred", old, obj))
				}
				o, err := f.cluster.Object(obj)
				if err != nil {
					return nil, abort(err)
				}
				// fetchState seals before it can fail, so the rollback must
				// restore the pre-seal state either way.
				state, err := f.fetchState(ctx, fr.l, fr.srv, o)
				sealed[obj] = state
				if err != nil {
					return nil, abort(fmt.Errorf("state fetch for object %d on server %d: %w", obj, old, err))
				}
				if f.testBeforeMove != nil {
					f.testBeforeMove(obj, to)
				}
				if err := f.cluster.MoveObject(obj, to, state); err != nil {
					return nil, abort(fmt.Errorf("move object %d to server %d: %w", obj, to, err))
				}
				delete(sealed, obj)
				moved++
			}
		}
	case reshape != nil:
		members := make([]types.ServerID, 0, len(oldMembers)+len(joined))
		for _, m := range oldMembers {
			if !seen[m] {
				members = append(members, m)
			}
		}
		members = append(members, joined...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		rs := &Reshaper{f: f, ctx: ctx, members: members, newF: newF}
		if err := reshape(rs); err != nil {
			return nil, abort(fmt.Errorf("reshape: %w", err))
		}
	}

	// 5. Activate: one epoch bump retires every leaver and installs the
	// new failure budget; then surviving frozen lanes return to service
	// and leaver backends tear down. Close is ordered after CommitView so
	// a backend whose Close reports failure (reconnect-as-crash) cannot
	// crash a server that is still a member.
	if err := f.cluster.CommitView(spec.Leave, newF); err != nil {
		return nil, abort(fmt.Errorf("activate: %w", err))
	}
	duration := time.Since(freezeStart)
	for _, fr := range frozen {
		if seen[fr.l.server] || fr.srv.Crashed() {
			continue
		}
		fr.srv.Undepart()
		fr.l.clearDeparting()
	}
	f.advanceView()
	var closeErr error
	for _, fr := range leavers {
		if err := fr.l.backend.Close(); err != nil && closeErr == nil {
			closeErr = fmt.Errorf("fabric: closing lane backend of server %d: %w", fr.l.server, err)
		}
	}
	res := &ResizeResult{Joined: joined, Epoch: f.cluster.Epoch(), Moved: moved, Duration: duration}
	return res, closeErr
}

// Reshaper is the handle a ReshapeFunc uses to re-place construction state
// during the frozen window. Every old member is departed and quiesced and
// the coordinator holds the reconfiguration lock, so the direct state
// reads and applies below cannot race client operations — they are the
// seeding primitive that makes a quorum-geometry change sound.
type Reshaper struct {
	f       *Fabric
	ctx     context.Context
	members []types.ServerID
	newF    int
}

// Members returns the post-activation member set in ascending ID order:
// the servers a construction should place its resized quorum sets on.
func (rs *Reshaper) Members() []types.ServerID { return rs.members }

// F returns the post-activation failure budget.
func (rs *Reshaper) F() int { return rs.newF }

// State reads an object's authoritative state without sealing or retiring
// it: local state for in-process/latency backends, a wire read for
// external-store backends. It fails — rather than hanging — if the hosting
// server has crashed.
func (rs *Reshaper) State(obj types.ObjectID) (baseobj.State, error) {
	e, l, err := rs.f.lookup(obj)
	if err != nil {
		return baseobj.State{}, err
	}
	return rs.f.readState(rs.ctx, l, e.Server(), e.Object())
}

// Apply applies an invocation directly to an object's authoritative copy,
// bypassing routing gates, freezes, and in-flight bookkeeping — legal only
// because the world is frozen. Constructions use it to seed fresh objects
// and re-seed surviving ones with the folded maximum of the old placement.
func (rs *Reshaper) Apply(obj types.ObjectID, inv baseobj.Invocation) (baseobj.Response, error) {
	return rs.ApplyAs(types.ClientID(-1), obj, inv)
}

// ApplyAs is Apply with an explicit client identity, for seeding
// writer-restricted base objects: a single-writer register accepts only its
// owner, so the seed must carry the owning writer's ID rather than the
// synthetic coordinator identity.
func (rs *Reshaper) ApplyAs(client types.ClientID, obj types.ObjectID, inv baseobj.Invocation) (baseobj.Response, error) {
	e, l, err := rs.f.lookup(obj)
	if err != nil {
		return baseobj.Response{}, err
	}
	return rs.f.directApply(rs.ctx, l, e.Server(), e.Object(), client, inv)
}

// Retire removes a base object the construction no longer places (a store
// dropped by a shrink). Its table slot becomes a tombstone, so an op that
// planned over the old placement completes retryably instead of reaching the
// retired copy.
func (rs *Reshaper) Retire(obj types.ObjectID) error {
	return rs.f.cluster.RemoveObject(obj)
}

// readState reads the full state of srv's copy of obj behind lane l, without
// mutating it, as one frozen-window operation under the coordinator's
// synthetic identity.
func (f *Fabric) readState(ctx context.Context, l *lane, srv *cluster.Server, obj baseobj.Object) (baseobj.State, error) {
	resp, err := f.directApply(ctx, l, srv, obj, types.ClientID(-1), baseobj.Invocation{Op: obj.Kind().StateRead()})
	if err != nil {
		return baseobj.State{}, err
	}
	return baseobj.State{Val: resp.Val, Data: resp.Data, Frags: resp.Frags}, nil
}

// directApply performs one frozen-window operation against an object's
// authoritative copy: a direct local apply for local-state backends, a
// real wire delivery (with a synthetic client identity; a crash of the
// server ends the wait) for external-store backends.
func (f *Fabric) directApply(ctx context.Context, l *lane, srv *cluster.Server, obj baseobj.Object, client types.ClientID, inv baseobj.Invocation) (baseobj.Response, error) {
	if srv.Crashed() {
		return baseobj.Response{}, fmt.Errorf("fabric: server %d crashed", l.server)
	}
	if l.mirror == nil {
		return obj.Apply(client, &inv)
	}
	ev := TriggerEvent{
		Token:  f.nextToken.Add(1),
		Client: client,
		Object: obj.ID(),
		Server: l.server,
		Inv:    inv,
	}
	done := make(chan Outcome, 1)
	l.backend.Deliver(ev,
		func() (baseobj.Response, error) {
			return baseobj.Response{}, fmt.Errorf("fabric: direct apply for object %d applied locally on a remote-state backend", obj.ID())
		},
		func(resp baseobj.Response, err error) {
			done <- Outcome{Resp: resp, Err: err}
		})
	select {
	case <-ctx.Done():
		return baseobj.Response{}, ctx.Err()
	case out := <-done:
		return out.Resp, out.Err
	case <-srv.CrashC():
		return baseobj.Response{}, fmt.Errorf("fabric: server %d crashed mid-delivery", l.server)
	}
}

// ViewStamp returns the fabric's view stamp: a counter advanced exactly when
// a transition has ended — committed or aborted — and its surviving frozen
// lanes are back in service. Every view-change completion is caused by a
// transition, so an op that read the stamp before looking its objects up and
// then completed with a view-change error either finds the stamp moved (that
// transition is over: retry now) or will see it move (AwaitView). The cluster
// epoch cannot stand in: CommitView bumps it before the survivors unfreeze —
// a retry woken then would bounce off them again — and an abort with nothing
// sealed and no joiner bumps nothing. The stamp moves at a transition's end
// only, never per moved object: a per-object wake re-fails every waiter whose
// object has not moved yet. The price is that an op bounced once during a
// long swap waits for that server's whole transfer, not for its own object.
func (f *Fabric) ViewStamp() uint64 { return f.viewStamp.Load() }

// ViewWaiters reports how many ops are parked on the view stamp: zero
// whenever no transition is in progress.
func (f *Fabric) ViewWaiters() int {
	f.viewMu.Lock()
	defer f.viewMu.Unlock()
	return len(f.viewWaiters)
}

// viewWaiter is one op parked by AwaitView.
type viewWaiter struct {
	ctx   context.Context
	again func()
	fail  func(error)
	stop  func() bool // detaches the waiter from ctx
}

// resume is a retry's own goroutine: again, unless the op's context ended.
func (w *viewWaiter) resume() {
	if err := w.ctx.Err(); err != nil {
		w.fail(err)
		return
	}
	w.again()
}

// AwaitView runs again once the view stamp differs from seen — at once if it
// already does — or fail with ctx's error if ctx ends first: exactly one of
// the two, on a goroutine of its own, never the caller's (a completer, which
// must not recurse into the dispatch path) nor the coordinator's. It never
// blocks and keeps nothing once either ran.
func (f *Fabric) AwaitView(ctx context.Context, seen uint64, again func(), fail func(error)) {
	w := &viewWaiter{ctx: ctx, again: again, fail: fail}
	f.viewMu.Lock()
	defer f.viewMu.Unlock()
	if f.viewStamp.Load() != seen {
		go w.resume()
		return
	}
	if f.viewWaiters == nil {
		f.viewWaiters = make(map[*viewWaiter]struct{})
	}
	f.viewWaiters[w] = struct{}{}
	// The callback runs on its own goroutine (right away for an ended ctx) and
	// takes viewMu, so it cannot observe the waiter half-registered; leaving
	// the set under viewMu is the claim that keeps again and fail exclusive.
	w.stop = context.AfterFunc(ctx, func() {
		f.viewMu.Lock()
		_, parked := f.viewWaiters[w]
		delete(f.viewWaiters, w)
		f.viewMu.Unlock()
		if parked {
			fail(ctx.Err())
		}
	})
}

// advanceView ends a transition: the stamp moves and every parked op resumes.
func (f *Fabric) advanceView() {
	f.viewMu.Lock()
	f.viewStamp.Add(1)
	woken := f.viewWaiters
	f.viewWaiters = nil
	f.viewMu.Unlock()
	for w := range woken {
		w.stop()
		go w.resume()
	}
}

// drainParked force-completes the ops the gate had parked on a now-frozen
// lane, in ascending token order.
func (f *Fabric) drainParked(parked []*call) {
	sort.Slice(parked, func(i, j int) bool { return parked[i].ev.Token < parked[j].ev.Token })
	for _, h := range parked {
		f.bounce(h)
	}
}

// awaitQuiesce waits until the frozen lane has no operation on the wire.
// Every such op was admitted before the freeze, so it completes in the old
// view — unless the server crashes, which moves its in-flight ops to
// dropped (not completed): the lane goes idle all the same, so the crash is
// checked for explicitly after the wait and reported as an error the
// coordinator turns into a clean abort.
func (f *Fabric) awaitQuiesce(ctx context.Context, l *lane, srv *cluster.Server) error {
	if idle := l.whenIdle(); idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			return fmt.Errorf("quiesce (%d in flight): %w", l.inflightCount(), ctx.Err())
		}
	}
	if srv.Crashed() {
		return fmt.Errorf("server %d crashed mid-drain (its in-flight ops are dropped, not completed; its state is lost)", l.server)
	}
	return nil
}

// fetchState returns an object's authoritative state at the freeze point
// and seals the local copy so no write can land behind the transfer.
//
// For local-state backends (in-process, latency) the seal IS the fetch: the
// snapshot and the rejection of later writes are atomic under the object's
// mutex. For external-store backends (ObjectMirror — the network lane) the
// local copy is only a placeholder; the authoritative state lives in the
// storage node and is read over the still-open connection. The read is
// sound because the lane has quiesced and its freeze rejects new sends, so
// the node can receive no further write for this fabric's objects before
// the connection closes. A server crashing mid-fetch fails the read
// instead of hanging it — the caller rolls the seal back.
func (f *Fabric) fetchState(ctx context.Context, l *lane, srv *cluster.Server, o baseobj.Object) (baseobj.State, error) {
	local := o.SealState()
	if l.mirror == nil {
		return local, nil
	}
	// The fetch is a frozen-window wire read like the reshaper's: no
	// gating or in-flight bookkeeping. On failure the caller needs the
	// pre-seal state to roll the seal back.
	state, err := f.readState(ctx, l, srv, o)
	if err != nil {
		return local, err
	}
	return state, nil
}
