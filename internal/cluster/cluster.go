// Package cluster models the collection S of fault-prone servers and the
// mapping delta: B -> S from base objects to the servers storing them
// (Section 2 / Appendix A.4 of the paper).
//
// The failure granularity is servers: crashing a server instantaneously
// crashes every base object mapped to it. The cluster also implements the
// paper's resource-complexity accounting: the number of base objects
// |delta^-1(S)| and the per-server object counts |delta^-1({s})|.
//
// Servers are independent fault domains, and the locking mirrors that:
// every server guards its own object table, the cluster-wide delta mapping
// is read-mostly (placement writes, everything else reads), and crash flags
// are lock-free atomics. Read-path lookups (Delta, Object, Route, Crashed)
// therefore never contend with Apply traffic on other servers — the
// property package fabric's per-server dispatch lanes build on.
package cluster

import (
	"errors"
	"fmt"
	"sort"
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
	// current view.
	ErrNotMember = errors.New("cluster: server is not a view member")
	// ErrObjectRetired is returned when routing to an object a view
	// transition removed. Unlike ErrNoSuchObject (an ID that never
	// existed) it marks a stale route: the operation never applied and
	// may safely retry against the construction's new placement.
	ErrObjectRetired = errors.New("cluster: object retired by a view transition")
)

// Server is a fault-prone server hosting base objects.
type Server struct {
	id        types.ServerID
	crashed   atomic.Bool
	crashC    chan struct{} // closed by the crash
	departing atomic.Bool

	mu      sync.RWMutex
	objects map[types.ObjectID]baseobj.Object
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
func (s *Server) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// BytesStored returns the payload bytes currently held in the server's
// object table: the sum of baseobj.Sizer over objects implementing it.
// Objects without payload (CAS cells, plain TSValue registers) count 0 —
// the metric is the *value bytes* axis the space bounds are about, not
// per-object bookkeeping overhead.
func (s *Server) BytesStored() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, o := range s.objects {
		if sz, ok := o.(baseobj.Sizer); ok {
			n += int64(sz.SizeBytes())
		}
	}
	return n
}

// place registers an object on the server.
func (s *Server) place(obj baseobj.Object) {
	s.mu.Lock()
	if s.objects == nil {
		s.objects = make(map[types.ObjectID]baseobj.Object)
	}
	s.objects[obj.ID()] = obj
	s.mu.Unlock()
}

// remove drops an object from the server's table (state transfer).
func (s *Server) remove(obj types.ObjectID) {
	s.mu.Lock()
	delete(s.objects, obj)
	s.mu.Unlock()
}

// object returns the hosted object, if any.
func (s *Server) object(obj types.ObjectID) (baseobj.Object, bool) {
	s.mu.RLock()
	o, ok := s.objects[obj]
	s.mu.RUnlock()
	return o, ok
}

// apply applies inv to the hosted object, or fails if the server crashed.
func (s *Server) apply(obj types.ObjectID, client types.ClientID, inv baseobj.Invocation) (baseobj.Response, error) {
	if s.crashed.Load() {
		return baseobj.Response{}, fmt.Errorf("%w: server %d", ErrServerCrashed, s.id)
	}
	o, ok := s.object(obj)
	if !ok {
		return baseobj.Response{}, fmt.Errorf("%w: object %d on server %d", ErrNoSuchObject, obj, s.id)
	}
	// The object's own mutex is the linearization point; holding a
	// server-wide lock across Apply would serialize unrelated objects.
	return o.Apply(client, inv)
}

// View is one membership epoch: the ordered set of servers currently
// eligible for placement and quorums. Epochs advance on every membership
// or placement change (AddServer, MoveObject, RemoveServer); package
// fabric validates its cached routes against the current epoch, so a
// bumped epoch is exactly "every stale route must re-resolve".
type View struct {
	// Epoch is the view's activation number, strictly increasing.
	Epoch uint64
	// Members are the view's servers in ascending ID order.
	Members []types.ServerID
	// F is the view's failure budget. It lives in the view — not at call
	// sites — so a resize that changes f can never race a quorum threshold
	// computed from a caller's remembered budget: the threshold and the
	// member set come from the same epoch snapshot.
	F int
}

// N returns the view's cardinality.
func (v View) N() int { return len(v.Members) }

// Quorum returns the view's quorum threshold n-f, derived entirely from
// the snapshot: no caller-supplied f can go stale across a resize.
func (v View) Quorum() int { return len(v.Members) - v.F }

// Cluster is the set of servers plus the delta mapping.
type Cluster struct {
	// servers is the append-only server list, published copy-on-write so
	// the hot lock-free readers (Server, Route, Apply) stay safe while
	// AddServer grows it. Server IDs are slice indexes and never reused —
	// a removed member keeps its slot, so stale routes still resolve to
	// its (sealed, empty) shell instead of a neighbour's objects.
	servers atomic.Pointer[[]*Server]
	crashes atomic.Int32

	// epoch is the current view's activation number, read lock-free on
	// the fabric's route hot path.
	epoch atomic.Uint64

	// mu guards the delta and object tables plus the membership list and
	// the view's failure budget. Placement and membership changes are
	// rare; every hot-path access is a read, hence the RWMutex.
	mu      sync.RWMutex
	members []types.ServerID
	f       int
	delta   map[types.ObjectID]types.ServerID
	objects map[types.ObjectID]baseobj.Object
	retired map[types.ObjectID]struct{}
	nextID  types.ObjectID
}

// New creates a cluster of n servers with IDs 0..n-1 and no objects; all n
// are members of the initial view (epoch 0).
func New(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: n must be positive, got %d", n)
	}
	c := &Cluster{
		delta:   make(map[types.ObjectID]types.ServerID),
		objects: make(map[types.ObjectID]baseobj.Object),
		retired: make(map[types.ObjectID]struct{}),
	}
	servers := make([]*Server, n)
	c.members = make([]types.ServerID, n)
	for i := range servers {
		servers[i] = newServer(types.ServerID(i))
		c.members[i] = types.ServerID(i)
	}
	c.servers.Store(&servers)
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
// the epoch re-checked after, retrying on a concurrent change.
func (c *Cluster) View() View {
	for {
		e := c.epoch.Load()
		c.mu.RLock()
		members := make([]types.ServerID, len(c.members))
		copy(members, c.members)
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
// when the member set is untouched. Constructions set it at build time;
// resizes change it atomically through CommitView instead.
func (c *Cluster) SetF(f int) {
	c.mu.Lock()
	changed := c.f != f
	c.f = f
	c.mu.Unlock()
	if changed {
		c.epoch.Add(1)
	}
}

// Members returns the current view's member IDs in ascending order.
func (c *Cluster) Members() []types.ServerID { return c.View().Members }

// AddServer appends a fresh server (the next unused ID) to the server list
// and admits it to the view, activating a new epoch. The joiner starts with
// an empty object table; state transfer (MoveObject) makes it useful.
func (c *Cluster) AddServer() *Server {
	c.mu.Lock()
	old := c.serverList()
	s := newServer(types.ServerID(len(old)))
	grown := make([]*Server, len(old)+1)
	copy(grown, old)
	grown[len(old)] = s
	c.servers.Store(&grown)
	c.members = append(c.members, s.id)
	sort.Slice(c.members, func(i, j int) bool { return c.members[i] < c.members[j] })
	c.mu.Unlock()
	c.epoch.Add(1)
	return s
}

// RemoveServer retires a member from the view, activating a new epoch. The
// server must be empty (every object moved off) and keeps its ID slot so
// stale routes still resolve; it never counts as a crash.
func (c *Cluster) RemoveServer(id types.ServerID) error {
	s, err := c.Server(id)
	if err != nil {
		return err
	}
	if n := s.NumObjects(); n != 0 {
		return fmt.Errorf("%w: server %d has %d objects", ErrServerNotEmpty, id, n)
	}
	c.mu.Lock()
	idx := -1
	for i, m := range c.members {
		if m == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNotMember, id)
	}
	c.members = append(c.members[:idx], c.members[idx+1:]...)
	c.mu.Unlock()
	c.epoch.Add(1)
	return nil
}

// CommitView atomically activates a resized view: every server in leave is
// retired from the member list and the failure budget becomes f, under ONE
// epoch bump. This is the activation step of a batched transition — no
// reader can ever observe some leavers gone with others still present, or
// the new member set paired with the old threshold. Each leaver must be a
// member and must be empty (state moved off first); on any validation
// failure nothing changes.
func (c *Cluster) CommitView(leave []types.ServerID, f int) error {
	for _, id := range leave {
		s, err := c.Server(id)
		if err != nil {
			return err
		}
		if n := s.NumObjects(); n != 0 {
			return fmt.Errorf("%w: server %d has %d objects", ErrServerNotEmpty, id, n)
		}
	}
	c.mu.Lock()
	kept := c.members[:0:0]
	for _, m := range c.members {
		retired := false
		for _, id := range leave {
			if m == id {
				retired = true
				break
			}
		}
		if !retired {
			kept = append(kept, m)
		}
	}
	if len(kept) != len(c.members)-len(leave) {
		c.mu.Unlock()
		return fmt.Errorf("%w: leave set %v not all members of %v", ErrNotMember, leave, c.members)
	}
	c.members = kept
	c.f = f
	c.mu.Unlock()
	c.epoch.Add(1)
	return nil
}

// MoveObject transfers an object to a new hosting server: a fresh unsealed
// clone holding the transferred state is placed on the target, delta is
// repointed, and the epoch advances so every cached route to the old copy
// re-resolves. The caller (the fabric's reconfiguration coordinator) must
// have sealed the source copy first — the clone's state is then final — and
// removes nothing until the new mapping is published, so there is no window
// where the object is unreachable.
func (c *Cluster) MoveObject(obj types.ObjectID, to types.ServerID, state baseobj.State) error {
	target, err := c.Server(to)
	if err != nil {
		return err
	}
	if target.Crashed() {
		return fmt.Errorf("%w: cannot move object %d to crashed server %d", ErrServerCrashed, obj, to)
	}
	c.mu.RLock()
	from, ok := c.delta[obj]
	o := c.objects[obj]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, obj)
	}
	if from == to {
		return nil
	}
	clone, err := baseobj.CloneAtState(o, state)
	if err != nil {
		return err
	}
	target.place(clone)
	c.mu.Lock()
	c.delta[obj] = to
	c.objects[obj] = clone
	c.mu.Unlock()
	c.epoch.Add(1)
	if src, err := c.Server(from); err == nil {
		src.remove(obj)
	}
	return nil
}

// ReplaceObject swaps an object's hosted copy for a fresh unsealed clone
// holding the given state, on the same server, activating a new epoch so
// cached routes re-resolve to the clone. The reconfiguration coordinator
// uses it to roll back a sealed-but-unmoved object when a transition
// aborts: base objects have no unseal, so the rollback is a clone.
func (c *Cluster) ReplaceObject(obj types.ObjectID, state baseobj.State) error {
	c.mu.RLock()
	server, ok := c.delta[obj]
	o := c.objects[obj]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchObject, obj)
	}
	clone, err := baseobj.CloneAtState(o, state)
	if err != nil {
		return err
	}
	s, err := c.Server(server)
	if err != nil {
		return err
	}
	s.place(clone)
	c.mu.Lock()
	c.objects[obj] = clone
	c.mu.Unlock()
	c.epoch.Add(1)
	return nil
}

// RemoveObject retires a base object from the cluster: delta forgets it,
// the hosting server drops it, and the epoch advances so stale routes fail
// instead of resolving to the retired copy. Constructions call it when a
// resize shrinks their base-object set (the inverse of Place*); retiring
// an unknown object is an error.
func (c *Cluster) RemoveObject(obj types.ObjectID) error {
	c.mu.Lock()
	server, ok := c.delta[obj]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoSuchObject, obj)
	}
	delete(c.delta, obj)
	delete(c.objects, obj)
	// Tombstone the ID: an operation that snapshotted the old placement
	// before the transition may still route here afterwards, and it must
	// see a retryable stale-route error, not a hard unknown-object one.
	c.retired[obj] = struct{}{}
	c.mu.Unlock()
	if s, err := c.Server(server); err == nil {
		s.remove(obj)
	}
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

// allocID hands out the next object ID.
func (c *Cluster) allocID() types.ObjectID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	return id
}

// placeObject records delta(obj) = server and hosts the object.
func (c *Cluster) placeObject(obj baseobj.Object, server types.ServerID) error {
	s, err := c.Server(server)
	if err != nil {
		return err
	}
	s.place(obj)
	c.mu.Lock()
	c.delta[obj.ID()] = server
	c.objects[obj.ID()] = obj
	c.mu.Unlock()
	return nil
}

// PlaceRegister creates a read/write register on the given server and
// returns its ID. Options restrict the writer set (z-writer registers).
func (c *Cluster) PlaceRegister(server types.ServerID, opts ...baseobj.RegisterOption) (types.ObjectID, error) {
	id := c.allocID()
	if err := c.placeObject(baseobj.NewRegister(id, opts...), server); err != nil {
		return 0, err
	}
	return id, nil
}

// PlaceMaxRegister creates a max-register on the given server.
func (c *Cluster) PlaceMaxRegister(server types.ServerID) (types.ObjectID, error) {
	id := c.allocID()
	if err := c.placeObject(baseobj.NewMaxRegister(id), server); err != nil {
		return 0, err
	}
	return id, nil
}

// PlaceCASCell creates a CAS cell on the given server.
func (c *Cluster) PlaceCASCell(server types.ServerID) (types.ObjectID, error) {
	id := c.allocID()
	if err := c.placeObject(baseobj.NewCASCell(id), server); err != nil {
		return 0, err
	}
	return id, nil
}

// PlaceFragStore creates an erasure-coded fragment store on the given
// server.
func (c *Cluster) PlaceFragStore(server types.ServerID) (types.ObjectID, error) {
	id := c.allocID()
	if err := c.placeObject(baseobj.NewFragStore(id), server); err != nil {
		return 0, err
	}
	return id, nil
}

// Delta returns delta(obj), the server storing the object.
func (c *Cluster) Delta(obj types.ObjectID) (types.ServerID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.delta[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchObject, obj)
	}
	return s, nil
}

// Object returns the base object with the given ID.
func (c *Cluster) Object(obj types.ObjectID) (baseobj.Object, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	o, ok := c.objects[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchObject, obj)
	}
	return o, nil
}

// Route resolves an object to its hosting server and the object itself in
// one read-locked lookup. Package fabric caches routes so repeated
// operations on an object never touch the cluster-wide tables again.
func (c *Cluster) Route(obj types.ObjectID) (*Server, baseobj.Object, error) {
	c.mu.RLock()
	server, ok := c.delta[obj]
	o := c.objects[obj]
	_, wasRetired := c.retired[obj]
	c.mu.RUnlock()
	if !ok {
		if wasRetired {
			return nil, nil, fmt.Errorf("%w: %d", ErrObjectRetired, obj)
		}
		return nil, nil, fmt.Errorf("%w: %d", ErrNoSuchObject, obj)
	}
	return c.serverList()[server], o, nil
}

// Apply routes a low-level invocation to the server hosting the object and
// applies it atomically. It is a direct testing/tooling entry point: the
// fabric resolves a Route once and applies through it instead, and (unlike
// this method, which returns ErrServerCrashed) silently drops operations on
// crashed servers so they stay pending forever.
func (c *Cluster) Apply(obj types.ObjectID, client types.ClientID, inv baseobj.Invocation) (baseobj.Response, error) {
	server, err := c.Delta(obj)
	if err != nil {
		return baseobj.Response{}, err
	}
	return c.serverList()[server].apply(obj, client, inv)
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
func (c *Cluster) ResourceComplexity() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.objects)
}

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

// PerServerBytes returns BytesStored for every server, indexed by server
// ID — the bytes-per-server space axis measured against the replication
// and coding bounds.
func (c *Cluster) PerServerBytes() []int64 {
	servers := c.serverList()
	bytes := make([]int64, len(servers))
	for i, s := range servers {
		bytes[i] = s.BytesStored()
	}
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	var ids []types.ObjectID
	for obj, s := range c.delta {
		if s == server {
			ids = append(ids, obj)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AllObjects returns the IDs of every placed object in ascending order.
func (c *Cluster) AllObjects() []types.ObjectID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]types.ObjectID, 0, len(c.objects))
	for obj := range c.objects {
		ids = append(ids, obj)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
