package lanenet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// readBatch caps how many already-buffered frames one ServeConn pass
// decodes before flushing responses: batching amortizes syscalls, the cap
// bounds how long the first request of a burst waits for its response.
const readBatch = 256

// Node is a storage process hosting one or more named object tables. Each
// table holds base objects keyed by their cluster-wide id and applies
// invocations atomically. A connection operates on the default table ("")
// until it binds another with msgBind (Client's WithTable sends the bind as
// its first frame), so one node process can host the tables of several
// shards — several independent fabrics whose object ids all start at zero —
// over one listener. The process stays one fault domain: killing it is the
// paper's server crash for every shard with a table here.
//
// Plain applies run under their table's read lock held across the object
// apply; a msgScan takes the table's write lock instead, so every scan
// member reads with no apply of any connection interleaved — one consistent
// snapshot of the table's objects, the remote analogue of the fabric's
// in-process snapshot scan. Tables lock independently: traffic on one
// shard's table never contends with another's.
type Node struct {
	mu     sync.RWMutex
	tables map[string]*nodeTable

	// draining, conns, and serving implement the graceful drain: Drain
	// flips the flag, wakes every blocked connection read, and waits for
	// the serving goroutines to flush what they already decoded and exit.
	draining atomic.Bool
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	serving  sync.WaitGroup
}

// nodeTable is one named object table with its own lock domain.
type nodeTable struct {
	mu      sync.RWMutex
	objects map[types.ObjectID]baseobj.Object
}

// NewNode creates an empty storage node with just the default table.
func NewNode() *Node {
	return &Node{
		tables: map[string]*nodeTable{"": {objects: make(map[types.ObjectID]baseobj.Object)}},
		conns:  make(map[net.Conn]struct{}),
	}
}

// table returns the named table, creating it on first bind.
func (n *Node) table(name string) *nodeTable {
	n.mu.RLock()
	t, ok := n.tables[name]
	n.mu.RUnlock()
	if ok {
		return t
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.tables[name]; ok {
		return t
	}
	t = &nodeTable{objects: make(map[types.ObjectID]baseobj.Object)}
	n.tables[name] = t
	return t
}

// NumObjects returns the number of hosted objects across all tables.
func (n *Node) NumObjects() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0
	for _, t := range n.tables {
		t.mu.RLock()
		total += len(t.objects)
		t.mu.RUnlock()
	}
	return total
}

// NumTables returns the number of tables, the default included.
func (n *Node) NumTables() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.tables)
}

// BytesStored returns the payload bytes currently held across all tables
// — the node-side reading of the bytes-per-server space metric (on the
// TCP lane the node's tables are the authoritative object state, not the
// fabric's local placeholders).
func (n *Node) BytesStored() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var total int64
	for _, t := range n.tables {
		t.mu.RLock()
		for _, o := range t.objects {
			total += int64(o.SizeBytes())
		}
		t.mu.RUnlock()
	}
	return total
}

// Serve accepts connections until the listener is closed. Each connection
// is served on its own goroutine; all connections share the node's object
// table, so a client that reconnects (a *new* fabric — the lane itself
// never reconnects) sees the surviving state.
func (n *Node) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go n.ServeConn(conn)
	}
}

// addConn registers a serving connection for the drain, or refuses it when
// the node is already draining.
func (n *Node) addConn(conn net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.draining.Load() {
		return false
	}
	n.conns[conn] = struct{}{}
	n.serving.Add(1)
	return true
}

// removeConn unregisters a connection whose serving goroutine is exiting.
func (n *Node) removeConn(conn net.Conn) {
	n.connMu.Lock()
	delete(n.conns, conn)
	n.connMu.Unlock()
	n.serving.Done()
}

// Drain gracefully retires the node: new connections are refused, every
// connection blocked waiting for input is woken (an immediate read
// deadline), and Drain returns once each serving goroutine has finished
// handling the frames it already decoded, flushed their responses, and
// closed its connection. The caller closes the listener first, so the
// sequence listener-close → Drain is the clean *leave* a kill signal can
// never produce — peers see orderly EOFs after complete responses, not a
// mid-frame reset.
func (n *Node) Drain() {
	n.connMu.Lock()
	n.draining.Store(true)
	for conn := range n.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	n.connMu.Unlock()
	n.serving.Wait()
}

// ServeConn serves one connection until EOF or error, processing frames in
// arrival order: a placement is therefore always applied before any
// invocation the client sent after it. After the first (blocking) frame of
// a burst, every further frame already in the read buffer is decoded and
// handled in the same pass — the pipelined client's coalesced flush arrives
// as one such burst — and the batched responses go out in one write once
// the input is momentarily dry or the batch cap is reached. Frames are
// decoded in place from the reader's buffer and responses encoded in place
// into the connection's response buffer.
func (n *Node) ServeConn(conn net.Conn) {
	defer conn.Close()
	if !n.addConn(conn) {
		return
	}
	defer n.removeConn(conn)
	sc := servedConn{node: n, conn: conn, tbl: n.table("")}
	fr := newFrameReader(conn)
	for {
		frame, err := fr.next()
		if err != nil {
			// EOF or broken pipe: the client is gone. During a drain the
			// error is the deadline that woke this goroutine; what was
			// already handled has been flushed, so exiting here is the
			// "finish in-flight work, then leave" half of the drain.
			return
		}
		if !sc.handleFrame(frame) {
			return
		}
		// Drain whatever the kernel already delivered before flushing.
		for batched := 1; batched < readBatch && fr.ready(); batched++ {
			if frame, err = fr.next(); err != nil || !sc.handleFrame(frame) {
				return
			}
		}
		if !sc.flush() || n.draining.Load() {
			return
		}
	}
}

// servedConn is one connection's serving state.
type servedConn struct {
	node *Node
	conn net.Conn
	// tbl is the connection's current table: the default until a msgBind
	// switches it. Frames are handled in arrival order, so a bind sent first
	// governs everything after it.
	tbl *nodeTable
	// out collects encoded response frames until the next flush.
	out []byte
}

// flush writes the collected responses in one Write; false drops the
// connection.
func (sc *servedConn) flush() bool {
	if len(sc.out) == 0 {
		return true
	}
	_, err := sc.conn.Write(sc.out)
	sc.out = sc.out[:0]
	return err == nil
}

// respond closes the response frame begun at start and flushes early once a
// buffer's worth has collected, so a burst of large responses cannot grow
// the buffer without bound.
func (sc *servedConn) respond(start int) bool {
	var err error
	if sc.out, err = endFrame(sc.out, start); err != nil {
		return false
	}
	return len(sc.out) < frameBufSize || sc.flush()
}

// handleFrame dispatches one frame against the connection's current table;
// false drops the connection. frame is a view into the read buffer: it is
// decoded (the decoders copy what the table keeps) and done with before the
// next frame is read.
func (sc *servedConn) handleFrame(frame []byte) bool {
	if len(frame) == 0 {
		return false
	}
	switch frame[0] {
	case msgBind:
		name, err := decodeBind(frame[1:])
		if err != nil {
			return false
		}
		sc.tbl = sc.node.table(name)
		return true
	case msgPlace:
		p, err := decodePlace(frame[1:])
		if err != nil {
			return false
		}
		sc.tbl.place(p)
		return true
	case msgApply:
		a, err := decodeApply(frame[1:])
		if err != nil {
			return false
		}
		var start int
		sc.out, start = beginFrame(sc.out)
		sc.out = appendResp(sc.out, sc.tbl.apply(a))
		return sc.respond(start)
	case msgScan:
		req, ops, err := decodeScan(frame[1:])
		if err != nil {
			return false
		}
		var start int
		sc.out, start = beginFrame(sc.out)
		sc.out = appendScanResp(sc.out, req, sc.tbl.scan(req, ops))
		return sc.respond(start)
	default:
		return false // protocol violation: drop the connection
	}
}

// place hosts an object. Placement is idempotent: the fabric may mirror an
// object twice when two clients race to be the first to use it.
func (t *nodeTable) place(p placeReq) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.objects[p.obj]; ok {
		return
	}
	obj, err := baseobj.New(p.kind, p.obj, p.writers)
	if err != nil {
		return
	}
	// A fresh placement materializes at the mirrored state — payload bytes
	// and fragments included: for migrated objects this IS the state
	// transfer onto the replacement node.
	obj.RestoreState(p.state)
	t.objects[p.obj] = obj
}

// apply runs one invocation and maps its outcome onto the wire statuses.
// The read lock is held across the object apply so a concurrent scan's
// write lock cannot slot between lookup and apply — scans see every apply
// entirely before or entirely after their snapshot.
func (t *nodeTable) apply(a applyReq) applyResp {
	t.mu.RLock()
	defer t.mu.RUnlock()
	obj, ok := t.objects[a.obj]
	if !ok {
		return applyResp{req: a.req, status: statusUnknownObject, msg: fmt.Sprintf("object %d not hosted", a.obj)}
	}
	resp, err := obj.Apply(a.client, a.inv)
	return outcomeResp(a.req, resp, err)
}

// scan answers a whole all-read group under the table's write lock: with
// every plain apply holding the read lock across its object apply, the
// exclusive section is a consistent cut of the table's objects.
func (t *nodeTable) scan(req uint64, ops []scanEntry) []applyResp {
	results := make([]applyResp, len(ops))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range ops {
		obj, ok := t.objects[e.obj]
		if !ok {
			results[i] = applyResp{req: req, status: statusUnknownObject, msg: fmt.Sprintf("object %d not hosted", e.obj)}
			continue
		}
		resp, err := obj.Apply(e.client, baseobj.Invocation{Op: e.op})
		results[i] = outcomeResp(req, resp, err)
	}
	return results
}

// outcomeResp maps one apply outcome onto the wire statuses.
func outcomeResp(req uint64, resp baseobj.Response, err error) applyResp {
	switch {
	case err == nil:
		return applyResp{req: req, status: statusOK, resp: resp}
	case errors.Is(err, baseobj.ErrWrongOp):
		return applyResp{req: req, status: statusWrongOp, msg: err.Error()}
	case errors.Is(err, baseobj.ErrUnauthorizedWriter):
		return applyResp{req: req, status: statusUnauthorizedWriter, msg: err.Error()}
	default:
		return applyResp{req: req, status: statusOther, msg: err.Error()}
	}
}
