// Package cluster models the collection S of fault-prone servers and the
// mapping delta: B -> S from base objects to the servers storing them
// (Section 2 / Appendix A.4 of the paper).
//
// The failure granularity is servers: crashing a server instantaneously
// crashes every base object mapped to it. The cluster also implements the
// paper's resource-complexity accounting: the number of base objects
// |delta^-1(S)| and the per-server object counts |delta^-1({s})|.
//
// delta is stored exactly once, in the object table: a dense, ID-indexed
// directory of fixed-size chunks whose slots each hold one immutable Entry
// (the object and its hosting server). Reading a slot is lock-free — a
// bounds check and two dependent loads — so package fabric reads placement
// from the table on every trigger and caches nothing; placing, moving,
// replacing and retiring an object are one slot store each, serialized with
// membership changes by the cluster's one mutex. Which servers may host an
// object is read from the same place: the current View.
//
// A placed register, max-register or CAS cell lives inside its entry, and
// the entry in an arena block the table owns, so a first placement costs no
// heap object of its own: blocks grow from a few entries to arenaMaxBlock as
// the table grows. The clones a move or a rollback publishes, and fragment
// stores, are heap entries. A copy the table stops serving — moved away,
// rolled back, removed — is retired (baseobj.Object.Retire): it drops its
// payload and refuses every later operation retryably, so an arena block
// pins no payload bytes however long a neighbour keeps it alive.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// Errors reported by cluster operations.
var (
	// ErrNoSuchServer is returned for server IDs outside [0, n).
	ErrNoSuchServer = errors.New("cluster: no such server")
	// ErrNoSuchObject is returned for unknown object IDs.
	ErrNoSuchObject = errors.New("cluster: no such object")
	// ErrServerCrashed is returned when applying an operation to an
	// object on a crashed server.
	ErrServerCrashed = errors.New("cluster: server crashed")
	// ErrServerNotEmpty is returned when removing a member that still
	// hosts objects: state must be transferred off first (MoveObject).
	ErrServerNotEmpty = errors.New("cluster: server still hosts objects")
	// ErrNotMember is returned when removing a server that is not in the
	// current view, or placing an object on one: a departed server takes
	// no new objects.
	ErrNotMember = errors.New("cluster: server is not a view member")
	// ErrObjectRetired is returned when looking up an object a view
	// transition removed. Unlike ErrNoSuchObject (an ID that never
	// existed) it marks a stale placement: the operation never applied and
	// may safely retry against the construction's new placement.
	ErrObjectRetired = errors.New("cluster: object retired by a view transition")
)

// Server is a fault-prone server hosting base objects.
type Server struct {
	id        types.ServerID
	crashed   atomic.Bool
	crashC    chan struct{} // closed by the crash
	departing atomic.Bool
	objects   atomic.Int32 // |delta^-1({s})|, moved with the table's slot stores
}

// ID returns the server's identifier.
func (s *Server) ID() types.ServerID { return s.id }

// Crashed reports whether the server has crashed.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// CrashC returns a channel closed when the server crashes, for callers that
// wait on a response a crashed server will never send.
func (s *Server) CrashC() <-chan struct{} { return s.crashC }

// Departing reports whether the server is leaving the view: a
// reconfiguration froze it for state transfer. Unlike a crash it does not
// count toward Crashes() — the paper's fail-stop budget f is about
// failures, and a planned leave hands its objects over before going.
func (s *Server) Departing() bool { return s.departing.Load() }

// Depart freezes the server for a view change. New operations routed here
// fail with a retryable view-change error instead of silently pending.
func (s *Server) Depart() { s.departing.Store(true) }

// Undepart lifts a freeze set by Depart: an aborted transition returns the
// server to service. It never resurrects a crashed server — the crash flag
// is checked before the departing flag on every fabric path.
func (s *Server) Undepart() { s.departing.Store(false) }

func newServer(id types.ServerID) *Server {
	return &Server{id: id, crashC: make(chan struct{})}
}

// NumObjects returns |delta^-1({s})|, the number of base objects stored on
// the server.
func (s *Server) NumObjects() int { return int(s.objects.Load()) }

// Entry is one slot of the object table: a base object and the server
// hosting it — delta(obj) — immutable once stored. A move or a rollback
// stores a fresh Entry (base objects have no unseal, so the new copy is a
// clone); whoever still holds the old one keeps a sealed copy on a frozen
// server, which answers with a retryable view-change error. The two latches
// are per copy: used survives a move (resource accounting is about the
// object), mirrored does not (the new copy lives behind another lane).
type Entry struct {
	obj      baseobj.Object
	srv      *Server
	used     atomic.Bool // had at least one operation triggered
	mirrored atomic.Bool // hosted on its lane's external store (fabric.ObjectMirror)
}

// cellEntry is an arena entry: a table entry with its cell beside it (obj is
// &cell).
type cellEntry struct {
	Entry
	cell baseobj.Cell
}

// Object returns the hosted copy.
func (e *Entry) Object() baseobj.Object { return e.obj }

// Server returns the hosting server, delta(obj).
func (e *Entry) Server() *Server { return e.srv }

// MarkUsed latches the used flag (idempotent, a plain load on the
// overwhelmingly common already-marked path).
func (e *Entry) MarkUsed() {
	if !e.used.Load() {
		e.used.Store(true)
	}
}

// Mirrored reports whether SetMirrored ran for this copy.
func (e *Entry) Mirrored() bool { return e.mirrored.Load() }

// SetMirrored records that the copy's lane hosts a matching object.
func (e *Entry) SetMirrored() { e.mirrored.Store(true) }

// tombstone is the one Entry every retired ID's slot points at.
var tombstone = new(Entry)

// TableChunkSize is the number of slots per chunk of the object table: 512
// pointers are one 4 KiB allocation, and an emulated register's handful of
// consecutively allocated base objects almost always share a chunk.
const TableChunkSize = 512

// tableChunk is one fixed block of slots. A chunk is allocated once and
// never moves, so a slot can be stored into while readers load it.
type tableChunk [TableChunkSize]atomic.Pointer[Entry]

// arenaMinBlock and arenaMaxBlock bound an arena block in entries: a block
// holds as many entries as the table has placed so far, within the bounds, so
// a cluster of one register pays for a few hundred bytes and a large table
// for one 56 KiB block per 512 objects — a whole number of 8 KiB pages, which
// the allocator takes as it is, where a block just under a size class is
// rounded up past it by the allocator's per-object header.
const arenaMinBlock, arenaMaxBlock = 4, 512

// View is one membership epoch: the ordered set of servers currently
// eligible for placement and quorums. Epochs advance on every membership
// or placement change (AddServer, MoveObject, RemoveServer, CommitView):
// the epoch names a view, it is not a cache-coherence protocol — nothing
// caches placement, so nothing is invalidated by a bump.
type View struct {
	// Epoch is the view's activation number, strictly increasing.
	Epoch uint64
	// Members are the view's servers in ascending ID order.
	Members []types.ServerID
	// F is the view's failure budget: the budget a resize keeps unless it
	// names a new one, and the one churn drivers guard shrinks with. Quorum
	// thresholds are not derived from it: every register derives its own
	// from the placement it publishes with its f, so a round's threshold and
	// its targets come from one snapshot.
	F int
}

// N returns the view's cardinality.
func (v View) N() int { return len(v.Members) }

// Cluster is the set of servers plus the delta mapping.
type Cluster struct {
	// servers is the append-only server list, published copy-on-write so
	// the hot lock-free readers (Server, Apply) stay safe while AddServer
	// grows it. Server IDs are slice indexes and never reused — a removed
	// member keeps its slot, so an Entry read before the move still names
	// its (sealed, empty) shell instead of a neighbour.
	servers atomic.Pointer[[]*Server]
	crashes atomic.Int32

	// epoch is the current view's activation number.
	epoch atomic.Uint64

	// chunks is the object table's directory, one pointer per
	// TableChunkSize object IDs. A slot is nil until its ID is handed out,
	// then an Entry, or the tombstone once the object was retired; IDs are
	// dense, so the first nil slot ends the table. The published slice only
	// ever grows by appending past its own length, so readers holding an
	// older header never see a slot move.
	chunks atomic.Pointer[[]*tableChunk]
	live   atomic.Int64 // |delta^-1(S)|: entries that are not tombstones

	// mu guards the membership list and the view's failure budget, and
	// serializes the table's writers: a placement checks membership and
	// publishes its entry in one critical section. Table readers never take
	// it. members is replaced, never written in place, so a View shares it.
	mu      sync.RWMutex
	members []types.ServerID
	f       int
	nextID  types.ObjectID
	arena   []cellEntry // the current arena block's unused tail
}

// New creates a cluster of n servers with IDs 0..n-1 and no objects; all n
// are members of the initial view (epoch 0).
func New(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: n must be positive, got %d", n)
	}
	c := &Cluster{}
	servers := make([]*Server, n)
	c.members = make([]types.ServerID, n)
	for i := range servers {
		servers[i] = newServer(types.ServerID(i))
		c.members[i] = types.ServerID(i)
	}
	c.servers.Store(&servers)
	c.chunks.Store(new([]*tableChunk))
	return c, nil
}

// serverList returns the current published server list.
func (c *Cluster) serverList() []*Server { return *c.servers.Load() }

// N returns the size of the server ID space (the append-only server list,
// including departed members). The current view's cardinality is View().N().
func (c *Cluster) N() int { return len(c.serverList()) }

// Epoch returns the current view's epoch, lock-free.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// View returns the current view: epoch plus member list. The snapshot is
// internally consistent — members are read under the membership lock and
// the epoch re-checked after, retrying on a concurrent change. Members is
// shared with the cluster, which never writes a published list in place:
// callers must not modify it.
func (c *Cluster) View() View {
	for {
		e := c.epoch.Load()
		c.mu.RLock()
		members := c.members
		f := c.f
		c.mu.RUnlock()
		if c.epoch.Load() == e {
			return View{Epoch: e, Members: members, F: f}
		}
	}
}

// F returns the current view's failure budget.
func (c *Cluster) F() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.f
}

// SetF records the view's failure budget, activating a new epoch when the
// budget actually changes: new quorum thresholds are a view change even
// when the member set is untouched. It is set before the view's registers are
// built (runner.BuildWith, a sharded store's shard), which read it off the
// view; resizes change it atomically through CommitView instead.
func (c *Cluster) SetF(f int) {
	c.mu.Lock()
	changed := c.f != f
	c.f = f
	c.mu.Unlock()
	if changed {
		c.epoch.Add(1)
	}
}

// Members returns the current view's member IDs in ascending order, shared
// like View's: callers must not modify it.
func (c *Cluster) Members() []types.ServerID { return c.View().Members }

// AddServer appends a fresh server (the next unused ID) to the server list
// and admits it to the view, activating a new epoch. The joiner starts with
// no objects; state transfer (MoveObject) makes it useful.
func (c *Cluster) AddServer() *Server {
	c.mu.Lock()
	old := c.serverList()
	s := newServer(types.ServerID(len(old)))
	grown := append(old[:len(old):len(old)], s)
	c.servers.Store(&grown)
	// IDs only grow, so appending keeps the member list ascending; the full
	// slice expression makes the append copy, never write a shared list.
	c.members = append(c.members[:len(c.members):len(c.members)], s.id)
	c.mu.Unlock()
	c.epoch.Add(1)
	return s
}

// RemoveServer retires a member from the view, activating a new epoch. The
// server must be empty (every object moved off) and keeps its ID slot; it
// never counts as a crash.
func (c *Cluster) RemoveServer(id types.ServerID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked([]types.ServerID{id}, c.f)
}

// CommitView atomically activates a resized view: every server in leave is
// retired from the member list and the failure budget becomes f, under ONE
// epoch bump. This is the activation step of a batched transition — no
// reader can ever observe some leavers gone with others still present, or
// the new member set paired with the old threshold. Each leaver must be a
// member and must be empty (state moved off first); on any validation
// failure nothing changes.
func (c *Cluster) CommitView(leave []types.ServerID, f int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(leave, f)
}

// commitLocked is CommitView with mu held.
func (c *Cluster) commitLocked(leave []types.ServerID, f int) error {
	for _, id := range leave {
		s, err := c.memberLocked(id)
		if err != nil {
			return err
		}
		if n := s.NumObjects(); n != 0 {
			return fmt.Errorf("%w: server %d has %d objects", ErrServerNotEmpty, id, n)
		}
	}
	kept := slices.DeleteFunc(slices.Clone(c.members), func(m types.ServerID) bool { return slices.Contains(leave, m) })
	if len(kept) != len(c.members)-len(leave) {
		return fmt.Errorf("cluster: leave set %v lists a server twice", leave)
	}
	c.members, c.f = kept, f
	c.epoch.Add(1)
	return nil
}

// Server returns the server with the given ID.
func (c *Cluster) Server(id types.ServerID) (*Server, error) {
	servers := c.serverList()
	if int(id) < 0 || int(id) >= len(servers) {
		return nil, fmt.Errorf("%w: %d (n=%d)", ErrNoSuchServer, id, len(servers))
	}
	return servers[id], nil
}

// memberLocked returns the server if it is a member of the current view:
// the only servers that may take an object. The caller holds mu.
func (c *Cluster) memberLocked(id types.ServerID) (*Server, error) {
	s, err := c.Server(id)
	if err != nil {
		return nil, err
	}
	if _, ok := slices.BinarySearch(c.members, id); !ok {
		return nil, fmt.Errorf("%w: %d (members %v)", ErrNotMember, id, c.members)
	}
	return s, nil
}

// slot returns obj's table slot, or nil when the table has no chunk for it
// (or obj is negative).
func (c *Cluster) slot(obj types.ObjectID) *atomic.Pointer[Entry] {
	chunks := *c.chunks.Load()
	if ci := uint(obj) / TableChunkSize; ci < uint(len(chunks)) {
		return &chunks[ci][uint(obj)%TableChunkSize]
	}
	return nil
}

// Lookup reads delta(obj) and the object from the table, lock-free. A
// retired ID reports ErrObjectRetired, one never handed out ErrNoSuchObject.
func (c *Cluster) Lookup(obj types.ObjectID) (*Entry, error) {
	var e *Entry
	if s := c.slot(obj); s != nil {
		e = s.Load()
	}
	switch e {
	case nil:
		return nil, fmt.Errorf("%w: %d", ErrNoSuchObject, obj)
	case tombstone:
		return nil, fmt.Errorf("%w: %d", ErrObjectRetired, obj)
	}
	return e, nil
}

// each visits every live entry in ascending object order.
func (c *Cluster) each(visit func(obj types.ObjectID, e *Entry)) {
	for ci, chunk := range *c.chunks.Load() {
		for i := range chunk {
			e := chunk[i].Load()
			if e == nil {
				return
			}
			if e != tombstone {
				visit(types.ObjectID(ci*TableChunkSize+i), e)
			}
		}
	}
}

// place hands out the next object ID and publishes a fresh object of kind
// on the given server — which must be a member of the current view — in one
// critical section: no placement can land on a server a concurrent
// CommitView just retired. A cell kind is built in place in the next arena
// entry; a fragment store is a heap entry.
func (c *Cluster) place(server types.ServerID, kind baseobj.Kind, writers baseobj.WriterRange) (types.ObjectID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	srv, err := c.memberLocked(server)
	if err != nil {
		return 0, err
	}
	id := c.nextID
	c.nextID++
	if c.slot(id) == nil {
		grown := append(*c.chunks.Load(), new(tableChunk))
		c.chunks.Store(&grown)
	}
	var e *Entry
	if kind == baseobj.KindFragStore {
		e = &Entry{obj: baseobj.NewFragStore(id)}
	} else {
		if len(c.arena) == 0 {
			c.arena = make([]cellEntry, min(max(int(id), arenaMinBlock), arenaMaxBlock))
		}
		ce := &c.arena[0]
		c.arena = c.arena[1:]
		baseobj.InitCell(&ce.cell, id, kind, writers)
		ce.obj = &ce.cell
		e = &ce.Entry
	}
	e.srv = srv
	c.slot(id).Store(e)
	srv.objects.Add(1)
	c.live.Add(1)
	return id, nil
}

// PlaceRegister creates a read/write register on the given server and
// returns its ID. Only clients in the writers range may write it (the
// z-writer registers of Theorem 3); the zero range leaves it unrestricted.
func (c *Cluster) PlaceRegister(server types.ServerID, writers baseobj.WriterRange) (types.ObjectID, error) {
	return c.place(server, baseobj.KindRegister, writers)
}

// PlaceMaxRegister creates a max-register on the given server.
func (c *Cluster) PlaceMaxRegister(server types.ServerID) (types.ObjectID, error) {
	return c.place(server, baseobj.KindMaxRegister, baseobj.WriterRange{})
}

// PlaceCASCell creates a CAS cell on the given server.
func (c *Cluster) PlaceCASCell(server types.ServerID) (types.ObjectID, error) {
	return c.place(server, baseobj.KindCAS, baseobj.WriterRange{})
}

// PlaceFragStore creates an erasure-coded fragment store on the given
// server.
func (c *Cluster) PlaceFragStore(server types.ServerID) (types.ObjectID, error) {
	return c.place(server, baseobj.KindFragStore, baseobj.WriterRange{})
}

// recloneLocked publishes a fresh unsealed clone of obj holding state on
// target — on the object's current server when target is nil — retires the
// copy it replaced, and activates a new epoch. The clone is a heap entry and
// inherits the used latch. The caller holds mu.
func (c *Cluster) recloneLocked(obj types.ObjectID, target *Server, state baseobj.State) error {
	old, err := c.Lookup(obj)
	if err != nil {
		return err
	}
	if target == old.srv {
		return nil
	}
	if target == nil {
		target = old.srv
	}
	clone, err := baseobj.CloneAtState(old.obj, state)
	if err != nil {
		return err
	}
	e := &Entry{obj: clone, srv: target}
	e.used.Store(old.used.Load())
	c.slot(obj).Store(e)
	old.obj.Retire()
	old.srv.objects.Add(-1)
	target.objects.Add(1)
	c.epoch.Add(1)
	return nil
}

// MoveObject transfers an object to a new hosting server, a member of the
// view: one slot store publishes a fresh unsealed clone holding the
// transferred state there, and the epoch advances. The caller (the fabric's
// reconfiguration coordinator) must have sealed the source copy first — the
// clone's state is then final. There is no window where the object is
// unreachable and nothing to invalidate: a reader gets the old entry (a
// retired copy on a frozen server: a retryable error) or the new one.
func (c *Cluster) MoveObject(obj types.ObjectID, to types.ServerID, state baseobj.State) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	target, err := c.memberLocked(to)
	if err != nil {
		return err
	}
	if target.Crashed() {
		return fmt.Errorf("%w: cannot move object %d to crashed server %d", ErrServerCrashed, obj, to)
	}
	return c.recloneLocked(obj, target, state)
}

// ReplaceObject swaps an object's hosted copy for a fresh unsealed clone
// holding the given state, on the same server, activating a new epoch. The
// reconfiguration coordinator uses it to roll back a sealed-but-unmoved
// object when a transition aborts: base objects have no unseal, so the
// rollback is a clone.
func (c *Cluster) ReplaceObject(obj types.ObjectID, state baseobj.State) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recloneLocked(obj, nil, state)
}

// RemoveObject retires a base object from the cluster: its slot becomes the
// tombstone and the epoch advances. An operation that snapshotted the old
// placement before the transition may still look the ID up afterwards, and
// it must see a retryable stale-placement error (ErrObjectRetired), not a
// hard unknown-object one — so a retired slot is never reclaimed.
// Constructions call it when a resize shrinks their base-object set (the
// inverse of Place*); retiring an unknown object is an error.
func (c *Cluster) RemoveObject(obj types.ObjectID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.Lookup(obj)
	if err != nil {
		return err
	}
	c.slot(obj).Store(tombstone)
	e.obj.Retire()
	e.srv.objects.Add(-1)
	c.live.Add(-1)
	c.epoch.Add(1)
	return nil
}

// Delta returns delta(obj), the server storing the object.
func (c *Cluster) Delta(obj types.ObjectID) (types.ServerID, error) {
	e, err := c.Lookup(obj)
	if err != nil {
		return 0, err
	}
	return e.srv.id, nil
}

// Object returns the base object with the given ID.
func (c *Cluster) Object(obj types.ObjectID) (baseobj.Object, error) {
	e, err := c.Lookup(obj)
	if err != nil {
		return nil, err
	}
	return e.obj, nil
}

// Apply routes a low-level invocation to the server hosting the object and
// applies it atomically. It is a direct testing/tooling entry point: unlike
// the fabric, which silently drops operations on crashed servers so they
// stay pending forever, it returns ErrServerCrashed.
func (c *Cluster) Apply(obj types.ObjectID, client types.ClientID, inv baseobj.Invocation) (baseobj.Response, error) {
	e, err := c.Lookup(obj)
	if err != nil {
		return baseobj.Response{}, err
	}
	if e.srv.Crashed() {
		return baseobj.Response{}, fmt.Errorf("%w: server %d", ErrServerCrashed, e.srv.id)
	}
	// The object's own mutex is the linearization point.
	return e.obj.Apply(client, &inv)
}

// Crash crashes the given server and all objects mapped to it.
func (c *Cluster) Crash(server types.ServerID) error {
	s, err := c.Server(server)
	if err != nil {
		return err
	}
	if s.crashed.CompareAndSwap(false, true) {
		c.crashes.Add(1)
		close(s.crashC)
	}
	return nil
}

// Crashes returns the number of crashed servers.
func (c *Cluster) Crashes() int { return int(c.crashes.Load()) }

// ResourceComplexity returns |delta^-1(S)|: the total number of base
// objects placed in the cluster. This is the paper's space measure.
func (c *Cluster) ResourceComplexity() int { return int(c.live.Load()) }

// PerServerCounts returns |delta^-1({s})| for every server, indexed by
// server ID.
func (c *Cluster) PerServerCounts() []int {
	servers := c.serverList()
	counts := make([]int, len(servers))
	for i, s := range servers {
		counts[i] = s.NumObjects()
	}
	return counts
}

// PerServerBytes returns the payload bytes held by every server, indexed by
// server ID — the bytes-per-server space axis measured against the
// replication and coding bounds: the sum of the objects' SizeBytes. Objects
// without payload (CAS cells, plain TSValue registers) count 0 — the metric
// is the *value bytes* axis the space bounds are about, not per-object
// bookkeeping overhead.
//
// The slice grows with the scan: a server that joins while it runs may host
// an entry the scan reaches.
func (c *Cluster) PerServerBytes() []int64 {
	bytes := make([]int64, c.N())
	c.each(func(_ types.ObjectID, e *Entry) {
		if grow := int(e.srv.id) + 1 - len(bytes); grow > 0 {
			bytes = append(bytes, make([]int64, grow)...)
		}
		bytes[e.srv.id] += int64(e.obj.SizeBytes())
	})
	return bytes
}

// TotalBytes returns the sum of PerServerBytes.
func (c *Cluster) TotalBytes() int64 {
	var n int64
	for _, b := range c.PerServerBytes() {
		n += b
	}
	return n
}

// ObjectsOn returns the IDs of all objects mapped to the given server, in
// ascending order.
func (c *Cluster) ObjectsOn(server types.ServerID) []types.ObjectID {
	var ids []types.ObjectID
	c.each(func(obj types.ObjectID, e *Entry) {
		if e.srv.id == server {
			ids = append(ids, obj)
		}
	})
	return ids
}

// AllObjects returns the IDs of every placed object in ascending order.
func (c *Cluster) AllObjects() []types.ObjectID {
	ids := make([]types.ObjectID, 0, c.ResourceComplexity())
	c.each(func(obj types.ObjectID, _ *Entry) { ids = append(ids, obj) })
	return ids
}

// UsedObjects returns the objects that had at least one operation
// triggered on them — the paper's resource consumption of the run — in
// ascending order.
func (c *Cluster) UsedObjects() []types.ObjectID {
	var ids []types.ObjectID
	c.each(func(obj types.ObjectID, e *Entry) {
		if e.used.Load() {
			ids = append(ids, obj)
		}
	})
	return ids
}
