package fabric

import (
	"sync"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// Lane is the backend of one server's dispatch shard: the transport that
// carries a gate-passed low-level operation to the server's base object and
// its response back. The paper's model only requires that the medium be
// asynchronous — an operation's effect and response may each be delayed
// arbitrarily — so a lane backend is free to be a synchronous function call
// (InProcLane), a delay distribution (LatencyLane), or a real network
// connection to a storage node (internal/lanenet).
//
// Everything above the lane is backend-agnostic: the Gate adversary, the
// held-op and crash-drop accounting, the quorum round engine, and the six
// constructions all compose with any backend. The fabric keeps the paper's
// fault model intact by wrapping every delivery: operations for crashed
// servers are dropped (never delivered, never responded), whichever side of
// the transport the crash is observed on.
type Lane interface {
	// Deliver carries one operation to the server and invokes complete
	// exactly once per delivery with its response — never a second time: the
	// op's record is recycled with its round once it completed, so a repeated
	// call would land on another round's op — either by calling apply at the
	// moment the operation reaches the server (local-state backends: that
	// call is the linearization point) or by obtaining the response
	// elsewhere (network backends apply remotely and relay it). Deliver
	// must not block; asynchronous backends invoke complete from their own
	// goroutines. A backend whose transport has failed never invokes
	// complete: the operation stays pending forever, exactly like an
	// operation on a crashed server.
	Deliver(ev TriggerEvent, apply ApplyFunc, complete CompleteFunc)
	// Close releases backend resources (connections, timers). The fabric
	// closes every lane on Fabric.Close.
	Close() error
}

// LaneOp is one prepared delivery: the trigger event plus the fabric-built
// apply and completion callbacks (crash checks and in-flight claim folded
// in). Group-capable backends receive whole rounds as []LaneOp.
type LaneOp struct {
	// Ev is the trigger event.
	Ev TriggerEvent
	// Apply linearizes the op against the server's local base object.
	Apply ApplyFunc
	// Complete delivers the op's response back into the fabric.
	Complete CompleteFunc
}

// GroupLane is implemented by backends that accept a whole batch of
// operations in one hand-off — an event-loop lane turns the group into a
// single mailbox entry, a network lane into a single buffered flush. The
// group carries no extra semantics: delivering it is equivalent to calling
// Deliver once per op, just cheaper.
type GroupLane interface {
	Lane
	// DeliverGroup delivers every op of the group. Like Deliver it must
	// not block.
	//
	// ops is the triggering round's own storage, not a copy made for the
	// lane. The lane may rewrite it in place until DeliverGroup returns (a
	// decorator swapping in its own callbacks), and may go on reading it
	// until the last op of the slice has completed — forever, if one never
	// does: an uncompleted op keeps its round from being recycled. Past that
	// completion the slice is another round's, so a backend that retains it
	// (a mailbox message, a queued group of frames) is done reading it by the
	// time its last op completes: the latency lane reads all of it before it
	// completes any member, the TCP lane encodes each op in place and
	// completes none before its whole window is encoded, but for one whose
	// frame is too large, which fails while the ops after it still pend.
	DeliverGroup(ops []LaneOp)
}

// ScanLane is implemented by backends that can answer an all-read group
// from one consistent snapshot: the ops apply back-to-back with no other
// operation of the same server interleaved, so the responses form a
// consistent cut of the server's objects. The fabric hands ScanLane the
// gate-passed members of a TriggerScan; backends without the interface fall
// back to per-op delivery (losing only the snapshot guarantee, never
// correctness — a scan is still a set of independent reads).
type ScanLane interface {
	Lane
	// DeliverScan delivers an all-read group atomically. ops is lent on
	// DeliverGroup's terms.
	DeliverScan(ops []LaneOp)
}

// ApplyFunc linearizes an operation against the server's local base object.
// The fabric builds it with the crash check folded in: applying an op whose
// server has crashed returns errCrashedDrop, and the fabric maps that to
// the dropped (pending forever) state rather than an error response.
type ApplyFunc func() (baseobj.Response, error)

// CompleteFunc delivers an operation's response back into the fabric, which
// routes it through the respond gate. It must be invoked at most once per
// delivery: it is a method value of the op's call, which lives in recycled
// round storage — once it ran and the op completed, the same func belongs to
// whatever op that slot carries next.
type CompleteFunc func(resp baseobj.Response, err error)

// LaneMaker builds the dispatch backend for one server. The fabric calls it
// once per server at construction time.
type LaneMaker func(server types.ServerID) Lane

// CrashReporter is implemented by lane backends whose transport can fail on
// its own (a lost connection, a dead storage node). The fabric installs a
// hook that crashes the lane's server, mapping transport failure onto the
// paper's fail-stop server model: every in-flight and future operation on
// the lane becomes PhaseDropped.
type CrashReporter interface {
	// SetCrashHook installs the transport-failure callback. The backend
	// must invoke it at most once, from any goroutine, and must stop
	// delivering (and completing) operations from that point on.
	SetCrashHook(fn func())
}

// ObjectMirror is implemented by lane backends that replicate object
// placement to an external store (the network lane). The fabric calls
// MirrorObject before the first operation on an object is delivered through
// the lane, so the remote store can host a matching object.
type ObjectMirror interface {
	MirrorObject(obj baseobj.Object)
}

// WithLanes selects the lane backend per server; the default is the
// in-process lane. The maker runs once per server during New.
func WithLanes(maker LaneMaker) Option {
	return func(f *Fabric) {
		if maker != nil {
			f.laneMaker = maker
		}
	}
}

// InProcLane is the default backend: the operation reaches the base object
// by a function call, synchronously inside the dispatch pass. It is the backend the
// exhaustive sweeps and the dispatch-throughput benchmarks run on. Under the
// benign gate the fabric does not even call it — nothing can hold or reorder
// the op, so it applies inline with no record and no lock, identical to a
// direct Apply; under any other gate an op is listed, gated and filed exactly
// as on every other lane, and Deliver runs it at its position in the batch.
type InProcLane struct{}

// Deliver implements Lane.
func (InProcLane) Deliver(_ TriggerEvent, apply ApplyFunc, complete CompleteFunc) {
	complete(apply())
}

// Close implements Lane.
func (InProcLane) Close() error { return nil }

// lane is one server's dispatch shard: the backend plus every piece of
// mutable fabric state attributable to that server — held, in-flight, and
// dropped operations — so operations on different servers never contend.
type lane struct {
	server  types.ServerID
	backend Lane
	// inproc marks the default backend: InProcLane completes inside Deliver,
	// so its ops are handed over at their position in a batch instead of
	// staged, and under the benign gate run inline with no record at all.
	inproc bool
	// mirror is the backend as an ObjectMirror, nil for local-state
	// backends: an external store must host an object before any operation
	// on it is delivered, and holds the object's authoritative state.
	mirror ObjectMirror

	mu   sync.Mutex
	held map[uint64]*call
	// inflight is the index of recorded ops between their trigger and their
	// completion, on every backend (only a benign in-process op is never
	// recorded): a circular doubly linked list threaded through the ops
	// themselves (call.prev/next; inflight is the sentinel, oldest op first)
	// plus a count, so indexing an op costs two pointer writes and no lookup.
	// An op is linked exactly when its next is non-nil. Four rules, all under
	// mu:
	//   - an op is linked only after the departing check (putInflight), so
	//     a frozen lane admits nothing;
	//   - completion and the crash drain race for one unlink-if-linked
	//     claim (settle / Fabric.Crash): whoever unlinks the op owns its
	//     outcome, the other sees it unlinked and does nothing;
	//   - an op a gate verdict moves to the held index leaves this one in the
	//     same critical section (settle), so Pending — which walks both —
	//     never loses it between the two;
	//   - the crash drain empties the list through unlinkInflight like any
	//     completion, so whoever takes the last op out closes idle — the
	//     signal awaitQuiesce parks on.
	inflight  call
	inflightN int
	idle      chan struct{} // non-nil while a coordinator waits for inflightN == 0
	// dropped holds the trigger events of ops lost to a crash — events, not
	// *call records: a dropped op is never released or completed, so
	// keeping its call would only pin it forever.
	dropped map[uint64]TriggerEvent
	// departing freezes the lane for a view change. It lives under mu —
	// not in an atomic — deliberately: putInflight checks it under the
	// same lock the coordinator sets it under, so after setDeparting
	// returns, every op is either already in the in-flight index (the
	// coordinator awaits it) or will fail its insert (and retry in the
	// new view). No op can slip between the freeze and the state fetch.
	departing bool
}

// newLane builds one server's dispatch shard.
func newLane(server types.ServerID, backend Lane) *lane {
	_, inproc := backend.(InProcLane)
	mirror, _ := backend.(ObjectMirror)
	l := &lane{
		server:  server,
		backend: backend,
		inproc:  inproc,
		mirror:  mirror,
		held:    make(map[uint64]*call),
		dropped: make(map[uint64]TriggerEvent),
	}
	l.inflight.prev, l.inflight.next = &l.inflight, &l.inflight
	return l
}

// putInflight lists an op in flight. It returns false when the lane is frozen
// for a view change: the op was not recorded and must complete as a retryable
// view-change error instead.
func (l *lane) putInflight(h *call) bool {
	l.mu.Lock()
	if l.departing {
		l.mu.Unlock()
		return false
	}
	tail := l.inflight.prev
	h.prev, h.next = tail, &l.inflight
	tail.next, l.inflight.prev = h, h
	l.inflightN++
	l.mu.Unlock()
	return true
}

// unlinkInflight removes h from the in-flight index if it is still there
// and reports whether it was. The caller holds mu.
func (l *lane) unlinkInflight(h *call) bool {
	if h.next == nil {
		return false
	}
	h.prev.next, h.next.prev = h.next, h.prev
	h.prev, h.next = nil, nil
	l.inflightN--
	if l.inflightN == 0 && l.idle != nil {
		close(l.idle)
		l.idle = nil
	}
	return true
}

// setDeparting freezes the lane for a view change and returns the ops
// parked by the gate (held) for the coordinator to force-complete.
func (l *lane) setDeparting() []*call {
	l.mu.Lock()
	l.departing = true
	parked := make([]*call, 0, len(l.held))
	for token, h := range l.held {
		delete(l.held, token)
		parked = append(parked, h)
	}
	l.mu.Unlock()
	return parked
}

// clearDeparting lifts a freeze set by setDeparting: an aborted transition
// returns the lane to service. Taken under the same lock as the freeze, so
// the unfreeze is as clean as the freeze was.
func (l *lane) clearDeparting() {
	l.mu.Lock()
	l.departing = false
	l.mu.Unlock()
}

// inflightCount reports how many ops are on the wire.
func (l *lane) inflightCount() int {
	l.mu.Lock()
	n := l.inflightN
	l.mu.Unlock()
	return n
}

// whenIdle returns a channel closed once no op is on the wire, or nil when
// none is now. Only the coordinator of a frozen lane calls it: a freeze admits
// nothing new, so the count only falls and one wait is enough.
func (l *lane) whenIdle() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflightN == 0 {
		return nil
	}
	if l.idle == nil {
		l.idle = make(chan struct{})
	}
	return l.idle
}

// settle claims an in-flight op and files it where its verdict says, in one
// critical section: the dropped index (PhaseDropped), the held index in the
// phase a gate parked it in (PhaseApply, PhaseRespond), or nowhere
// (PhaseInFlight: the caller completes it). It returns false when the op is
// gone — a crash drain already moved it to dropped — in which case the
// caller must discard the completion and whatever the gate said: the claim
// is what makes completion and crash-drop mutually exclusive.
func (l *lane) settle(h *call, to Phase) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.unlinkInflight(h) {
		return false
	}
	switch to {
	case PhaseDropped:
		l.dropped[h.ev.Token] = h.ev
	case PhaseApply, PhaseRespond:
		h.phase = to
		l.held[h.ev.Token] = h
	}
	return true
}
