// Package baseobj implements the three base-object types studied by the
// paper (Table 1): multi-writer/multi-reader read/write registers,
// max-registers, and compare-and-swap (CAS) cells.
//
// A base object is a sequential state machine that a server applies
// operations to atomically; the asynchrony between a client's trigger and
// the object's response lives in package fabric, not here. Objects store
// types.TSValue so that every emulation algorithm can layer timestamps on
// top of the raw primitive.
//
// Registers optionally enforce a bounded writer set: Theorem 3 only needs
// z-writer registers, and the enforcement lets tests prove that the upper
// bound construction never exceeds its declared writer bound.
package baseobj

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/types"
)

// Kind enumerates the base object types of Table 1.
type Kind int

const (
	// KindRegister is a read/write register.
	KindRegister Kind = iota + 1
	// KindMaxRegister is a max-register (write-max / read-max).
	KindMaxRegister
	// KindCAS is a compare-and-swap cell.
	KindCAS
	// KindFragStore is an erasure-coded fragment store: it holds one
	// committed fragment of a striped value plus the pending fragments of
	// newer, not-yet-committed stripes (package coded's per-server object).
	KindFragStore
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindMaxRegister:
		return "max-register"
	case KindCAS:
		return "cas"
	case KindFragStore:
		return "frag-store"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// OpCode enumerates the low-level operations base objects support.
type OpCode int

const (
	// OpRead reads a register.
	OpRead OpCode = iota + 1
	// OpWrite writes a register.
	OpWrite
	// OpReadMax reads a max-register.
	OpReadMax
	// OpWriteMax writes a max-register (takes effect only if larger).
	OpWriteMax
	// OpCAS performs compare-and-swap and returns the previous value.
	OpCAS
	// OpPutFrag stores one erasure-coded fragment (Invocation.Frag) in a
	// fragment store.
	OpPutFrag
	// OpGetFrags reads every fragment a store holds (committed + pending).
	OpGetFrags
	// OpCommitFrag advances a fragment store's commit watermark
	// (Invocation.Arg), garbage-collecting superseded stripes.
	OpCommitFrag
	// OpFragTS reads only the store's maximum known stripe timestamp (the
	// cheap collect for a coded write's timestamp round).
	OpFragTS
)

// String implements fmt.Stringer.
func (c OpCode) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadMax:
		return "read-max"
	case OpWriteMax:
		return "write-max"
	case OpCAS:
		return "cas"
	case OpPutFrag:
		return "put-frag"
	case OpGetFrags:
		return "get-frags"
	case OpCommitFrag:
		return "commit-frag"
	case OpFragTS:
		return "frag-ts"
	default:
		return fmt.Sprintf("op(%d)", int(c))
	}
}

// IsWrite reports whether the op code mutates object state. Covering
// arguments only care about mutating operations.
func (c OpCode) IsWrite() bool {
	switch c {
	case OpWrite, OpWriteMax, OpCAS, OpPutFrag, OpCommitFrag:
		return true
	default:
		return false
	}
}

// IsRead reports whether the op code is a pure read (OpRead / OpReadMax) —
// the only operations a snapshot scan (fabric.TriggerScan) may carry.
func (c OpCode) IsRead() bool { return c == OpRead || c == OpReadMax }

// Invocation is a low-level operation invocation.
type Invocation struct {
	// Op selects the operation.
	Op OpCode
	// Arg is the argument of OpWrite and OpWriteMax, and the commit
	// watermark of OpCommitFrag.
	Arg types.TSValue
	// Exp and New are the arguments of OpCAS.
	Exp types.TSValue
	New types.TSValue
	// Data is the payload riding with OpWrite/OpWriteMax when the
	// emulation stores real value bytes (replicated payload mode). The
	// object takes ownership; callers must not mutate it after Apply.
	Data types.Payload
	// Frag is the fragment stored by OpPutFrag (nil for every other op).
	// The object takes ownership of Frag.Data.
	Frag *Fragment
}

// Response is a low-level operation response.
type Response struct {
	// Op echoes the invocation's op code.
	Op OpCode
	// Val carries the result of OpRead and OpReadMax, the previous value
	// for OpCAS, and the maximum known stripe timestamp for OpGetFrags /
	// OpFragTS. It is the zero TSValue for plain writes.
	Val types.TSValue
	// Data is the stored payload returned by OpRead/OpReadMax on objects
	// holding payload bytes. Callers must not mutate it.
	Data types.Payload
	// Frags carries the fragments returned by OpGetFrags (committed
	// first when present, then pending in unspecified order). Callers
	// must not mutate the fragments' Data.
	Frags []Fragment
}

// Fragment is one erasure-coded piece of a striped register value,
// tagged with the write's timestamp so readers only ever combine
// fragments of the same write.
type Fragment struct {
	// TS is the stripe's write timestamp; TS.Val is the logical value,
	// so checkers and state transfer see the ordinary value domain.
	TS types.TSValue
	// Index is the fragment's position in the stripe (0..n-1).
	Index int
	// K is the stripe's reconstruction threshold.
	K int
	// Length is the total payload length in bytes before striping.
	Length int
	// Committed marks the store's committed fragment in OpGetFrags
	// responses and state transfer.
	Committed bool
	// Data holds the fragment bytes.
	Data types.Payload
}

// Clone returns a deep copy of the fragment.
func (f Fragment) Clone() Fragment {
	f.Data = f.Data.Clone()
	return f
}

// State is the full transferable state of a base object: the TSValue
// every kind stores, the replicated payload bytes (registers in payload
// mode), and the fragment set (fragment stores, where Val is the commit
// watermark). Reconfiguration moves State between servers.
type State struct {
	Val   types.TSValue
	Data  types.Payload
	Frags []Fragment
}

// Errors returned by Apply.
var (
	// ErrWrongOp is returned when an invocation's op code does not match
	// the object kind (e.g. OpCAS on a register).
	ErrWrongOp = errors.New("baseobj: operation not supported by object kind")
	// ErrUnauthorizedWriter is returned when a client outside a register's
	// declared writer set attempts a write.
	ErrUnauthorizedWriter = errors.New("baseobj: client is not in the register's writer set")
	// ErrSealed is returned when a mutating operation reaches an object that
	// was sealed for state transfer (view reconfiguration). Sealing happens
	// under the object's own state lock, so the sealed snapshot and the
	// rejection of later writes are atomic: a write either lands before the
	// seal (and its effect is in the transferred state) or it fails with
	// ErrSealed (and never took effect anywhere). Pure reads still succeed —
	// they observe the final old-view state, which stays the current value
	// until the first new-view write.
	ErrSealed = errors.New("baseobj: object sealed for state transfer")
)

// Object is a base object: a sequential state machine applied atomically.
// Implementations are safe for concurrent use; Apply is the object's
// linearization point.
type Object interface {
	// ID returns the object's cluster-wide identifier.
	ID() types.ObjectID
	// Kind returns the object's type.
	Kind() Kind
	// Apply atomically applies inv on behalf of client and returns the
	// response. It returns an error for malformed invocations; errors
	// model protocol misuse, not failures (failures live in the fabric).
	Apply(client types.ClientID, inv Invocation) (Response, error)
	// Peek returns the current state without linearizing an operation.
	// It exists for checkers and reports only; emulation algorithms must
	// never call it.
	Peek() types.TSValue
}

// Locker is implemented by objects whose state lock can be taken
// externally, so a caller may apply a *group* of operations against several
// objects as one consistent cut: lock every object (in ascending object-ID
// order, the package-wide lock order), apply through ApplyLocked, unlock.
// The fabric's snapshot scans (fabric.TriggerScan) are the only caller; the
// single-object Apply path never pays for the seam.
type Locker interface {
	// LockState acquires the object's state lock.
	LockState()
	// UnlockState releases the object's state lock.
	UnlockState()
	// ApplyLocked is Apply with the state lock already held by the caller.
	ApplyLocked(client types.ClientID, inv Invocation) (Response, error)
}

// StateSealer is a base object that supports state transfer: SealState
// atomically snapshots everything the object stores (TSValue, payload bytes,
// fragments) and rejects every later mutating operation with ErrSealed;
// RestoreState loads transferred state into a fresh copy (setup/transfer
// only — never concurrent with Apply traffic). All base-object types
// implement it, so payload-carrying objects migrate losslessly.
type StateSealer interface {
	Object
	SealState() State
	RestoreState(State)
}

// StatePeeker returns the full current state without linearizing an
// operation — the payload analogue of Object.Peek, used by lane backends
// that mirror object state on placement.
type StatePeeker interface {
	PeekState() State
}

// Sizer reports the payload bytes an object currently stores. The
// cluster's bytes-per-server space metric sums it across each server's
// object table; objects that hold no payload may omit it (they count as
// their fixed TSValue footprint).
type Sizer interface {
	SizeBytes() int
}

// Compile-time interface compliance checks.
var (
	_ Object      = (*Register)(nil)
	_ Object      = (*MaxRegister)(nil)
	_ Object      = (*CASCell)(nil)
	_ Object      = (*FragStore)(nil)
	_ Locker      = (*Register)(nil)
	_ Locker      = (*MaxRegister)(nil)
	_ Locker      = (*CASCell)(nil)
	_ Locker      = (*FragStore)(nil)
	_ StateSealer = (*Register)(nil)
	_ StateSealer = (*MaxRegister)(nil)
	_ StateSealer = (*CASCell)(nil)
	_ StateSealer = (*FragStore)(nil)
	_ StatePeeker = (*Register)(nil)
	_ StatePeeker = (*MaxRegister)(nil)
	_ StatePeeker = (*FragStore)(nil)
	_ Sizer       = (*Register)(nil)
	_ Sizer       = (*MaxRegister)(nil)
	_ Sizer       = (*FragStore)(nil)
)

// CloneAtState builds a fresh, unsealed object of the same identity (ID,
// kind, and — for registers — writer set) holding the given full state.
// Reconfiguration uses it to materialize a migrated object on its new server
// while the sealed original keeps answering stale-route reads.
func CloneAtState(o Object, st State) (Object, error) {
	var clone StateSealer
	switch src := o.(type) {
	case *Register:
		clone = NewRegister(src.id, WithWriters(src.Writers()))
	case *MaxRegister:
		clone = NewMaxRegister(src.id)
	case *CASCell:
		clone = NewCASCell(src.id)
	case *FragStore:
		clone = NewFragStore(src.id)
	default:
		return nil, fmt.Errorf("baseobj: cannot clone object %d of type %T", o.ID(), o)
	}
	clone.RestoreState(st)
	return clone, nil
}

// Register is a multi-writer/multi-reader atomic read/write register,
// optionally restricted to a bounded writer set.
type Register struct {
	id      types.ObjectID
	writers map[types.ClientID]struct{} // nil means unbounded (MWMR)

	mu     sync.Mutex
	val    types.TSValue
	data   types.Payload // payload bytes riding with val (payload mode)
	sealed bool
}

// RegisterOption configures a Register.
type RegisterOption func(*Register)

// WithWriters restricts the register to the given writer set, modelling the
// z-writer registers of Theorem 3. A nil or empty set leaves the register
// unbounded.
func WithWriters(writers []types.ClientID) RegisterOption {
	return func(r *Register) {
		if len(writers) == 0 {
			return
		}
		r.writers = make(map[types.ClientID]struct{}, len(writers))
		for _, w := range writers {
			r.writers[w] = struct{}{}
		}
	}
}

// NewRegister returns a register initialized to the zero TSValue.
func NewRegister(id types.ObjectID, opts ...RegisterOption) *Register {
	r := &Register{id: id, val: types.ZeroTSValue}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// ID implements Object.
func (r *Register) ID() types.ObjectID { return r.id }

// Kind implements Object.
func (r *Register) Kind() Kind { return KindRegister }

// WriterBound returns the size of the register's writer set, or 0 if the
// register is unbounded.
func (r *Register) WriterBound() int { return len(r.writers) }

// Writers returns the register's declared writer set in ascending order,
// or nil for an unbounded register. External-store lane backends use it to
// replicate z-writer placement, so remote registers enforce the same bound.
func (r *Register) Writers() []types.ClientID {
	if r.writers == nil {
		return nil
	}
	ws := make([]types.ClientID, 0, len(r.writers))
	for w := range r.writers {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}

// Apply implements Object. Writes overwrite unconditionally (last write
// wins): this is precisely the weakness the lower bound exploits, because a
// delayed old write can erase a newer value.
func (r *Register) Apply(client types.ClientID, inv Invocation) (resp Response, err error) {
	r.mu.Lock()
	err = r.apply(client, &inv, &resp)
	r.mu.Unlock()
	return
}

// LockState implements Locker.
func (r *Register) LockState() { r.mu.Lock() }

// UnlockState implements Locker.
func (r *Register) UnlockState() { r.mu.Unlock() }

// ApplyLocked implements Locker.
func (r *Register) ApplyLocked(client types.ClientID, inv Invocation) (resp Response, err error) {
	err = r.apply(client, &inv, &resp)
	return
}

// apply is the one body of both: the caller holds mu. Invocation and response
// travel by pointer — they are a dozen words each, and a by-value hop through
// a second frame costs the hot path a third of an uncontended apply.
func (r *Register) apply(client types.ClientID, inv *Invocation, resp *Response) error {
	switch inv.Op {
	case OpRead:
		*resp = Response{Op: OpRead, Val: r.val, Data: r.data}
	case OpWrite:
		if r.writers != nil {
			if _, ok := r.writers[client]; !ok {
				return fmt.Errorf("%w: client %d, register %d", ErrUnauthorizedWriter, client, r.id)
			}
		}
		if r.sealed {
			return fmt.Errorf("%w: register %d", ErrSealed, r.id)
		}
		r.val = inv.Arg
		r.data = inv.Data
		resp.Op = OpWrite
	default:
		return fmt.Errorf("%w: %v on register %d", ErrWrongOp, inv.Op, r.id)
	}
	return nil
}

// Peek implements Object.
func (r *Register) Peek() types.TSValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.val
}

// SealState implements StateSealer.
func (r *Register) SealState() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealed = true
	return State{Val: r.val, Data: r.data}
}

// RestoreState implements StateSealer.
func (r *Register) RestoreState(st State) {
	r.mu.Lock()
	r.val = st.Val
	r.data = st.Data
	r.mu.Unlock()
}

// PeekState implements StatePeeker.
func (r *Register) PeekState() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return State{Val: r.val, Data: r.data}
}

// SizeBytes implements Sizer.
func (r *Register) SizeBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.data)
}

// MaxRegister is a max-register [Aspnes, Attiya, Censor 2009]: write-max
// only takes effect when the written value exceeds the current one, so a
// delayed old write-max can never erase a newer value. This monotonicity is
// what separates max-registers from plain registers in Table 1.
type MaxRegister struct {
	id types.ObjectID

	mu     sync.Mutex
	val    types.TSValue
	data   types.Payload // payload of the current max (payload mode)
	sealed bool
}

// NewMaxRegister returns a max-register initialized to the zero TSValue.
func NewMaxRegister(id types.ObjectID) *MaxRegister {
	return &MaxRegister{id: id, val: types.ZeroTSValue}
}

// ID implements Object.
func (m *MaxRegister) ID() types.ObjectID { return m.id }

// Kind implements Object.
func (m *MaxRegister) Kind() Kind { return KindMaxRegister }

// Apply implements Object.
func (m *MaxRegister) Apply(_ types.ClientID, inv Invocation) (resp Response, err error) {
	m.mu.Lock()
	err = m.apply(&inv, &resp)
	m.mu.Unlock()
	return
}

// LockState implements Locker.
func (m *MaxRegister) LockState() { m.mu.Lock() }

// UnlockState implements Locker.
func (m *MaxRegister) UnlockState() { m.mu.Unlock() }

// ApplyLocked implements Locker.
func (m *MaxRegister) ApplyLocked(_ types.ClientID, inv Invocation) (resp Response, err error) {
	err = m.apply(&inv, &resp)
	return
}

// apply is the one body of both (see Register.apply); the caller holds mu.
func (m *MaxRegister) apply(inv *Invocation, resp *Response) error {
	switch inv.Op {
	case OpReadMax:
		*resp = Response{Op: OpReadMax, Val: m.val, Data: m.data}
	case OpWriteMax:
		if m.sealed {
			return fmt.Errorf("%w: max-register %d", ErrSealed, m.id)
		}
		if m.val.Less(inv.Arg) {
			m.val = inv.Arg
			m.data = inv.Data
		}
		resp.Op = OpWriteMax
	default:
		return fmt.Errorf("%w: %v on max-register %d", ErrWrongOp, inv.Op, m.id)
	}
	return nil
}

// Peek implements Object.
func (m *MaxRegister) Peek() types.TSValue {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.val
}

// SealState implements StateSealer.
func (m *MaxRegister) SealState() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sealed = true
	return State{Val: m.val, Data: m.data}
}

// RestoreState implements StateSealer.
func (m *MaxRegister) RestoreState(st State) {
	m.mu.Lock()
	m.val = st.Val
	m.data = st.Data
	m.mu.Unlock()
}

// PeekState implements StatePeeker.
func (m *MaxRegister) PeekState() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return State{Val: m.val, Data: m.data}
}

// SizeBytes implements Sizer.
func (m *MaxRegister) SizeBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

// CASCell is a compare-and-swap object. CAS(exp, new) sets the value to new
// when the current value equals exp, and always returns the previous value
// (the semantics of Algorithm 1 in Appendix B).
type CASCell struct {
	id types.ObjectID

	mu     sync.Mutex
	val    types.TSValue
	sealed bool
}

// NewCASCell returns a CAS cell initialized to the zero TSValue.
func NewCASCell(id types.ObjectID) *CASCell {
	return &CASCell{id: id, val: types.ZeroTSValue}
}

// ID implements Object.
func (c *CASCell) ID() types.ObjectID { return c.id }

// Kind implements Object.
func (c *CASCell) Kind() Kind { return KindCAS }

// Apply implements Object.
func (c *CASCell) Apply(_ types.ClientID, inv Invocation) (resp Response, err error) {
	c.mu.Lock()
	err = c.apply(&inv, &resp)
	c.mu.Unlock()
	return
}

// LockState implements Locker.
func (c *CASCell) LockState() { c.mu.Lock() }

// UnlockState implements Locker.
func (c *CASCell) UnlockState() { c.mu.Unlock() }

// ApplyLocked implements Locker.
func (c *CASCell) ApplyLocked(_ types.ClientID, inv Invocation) (resp Response, err error) {
	err = c.apply(&inv, &resp)
	return
}

// apply is the one body of both (see Register.apply); the caller holds mu.
func (c *CASCell) apply(inv *Invocation, resp *Response) error {
	if inv.Op != OpCAS {
		return fmt.Errorf("%w: %v on cas cell %d", ErrWrongOp, inv.Op, c.id)
	}
	if c.sealed {
		return fmt.Errorf("%w: cas cell %d", ErrSealed, c.id)
	}
	*resp = Response{Op: OpCAS, Val: c.val}
	if c.val == inv.Exp {
		c.val = inv.New
	}
	return nil
}

// Peek implements Object.
func (c *CASCell) Peek() types.TSValue {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// SealState implements StateSealer. CAS cells carry no payload — their
// comparability requirement (Apply compares TSValues with ==) keeps the
// stored state a bare TSValue.
func (c *CASCell) SealState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealed = true
	return State{Val: c.val}
}

// RestoreState implements StateSealer.
func (c *CASCell) RestoreState(st State) {
	c.mu.Lock()
	c.val = st.Val
	c.mu.Unlock()
}
