// Package baseobj implements the three base-object types studied by the
// paper (Table 1): multi-writer/multi-reader read/write registers,
// max-registers, and compare-and-swap (CAS) cells.
//
// A base object is a sequential state machine that a server applies
// operations to atomically; the asynchrony between a client's trigger and
// the object's response lives in package fabric, not here. Objects store
// types.TSValue so that every emulation algorithm can layer timestamps on
// top of the raw primitive; the three Table 1 types are one cell that
// differs only in its apply rule, and package coded's FragStore is the
// fourth kind. Every kind implements the whole Object contract.
//
// Registers optionally enforce a bounded writer set, one client-ID range
// (WriterRange): Theorem 3 gives writer w the register set R_⌊w/z⌋, so every
// set's writers — and an aac-max register's one writer — are a contiguous
// run, and the enforcement lets tests prove that the upper bound
// construction never exceeds its declared writer bound.
package baseobj

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/types"
)

// Kind enumerates the base object types of Table 1. It is one byte: on the
// wire and in a cell, where a wider field would push the cell up a size class.
type Kind uint8

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
	if name := k.facts().name; name != "" {
		return name
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// OpCode enumerates the low-level operations base objects support. Like
// Kind it is one byte: on the wire and in an Invocation, whose size every
// trigger copies.
type OpCode uint8

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
	// OpPutFrag stores one erasure-coded fragment (Invocation.Body) in a
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
	if name := c.facts().name; name != "" {
		return name
	}
	return fmt.Sprintf("op(%d)", int(c))
}

// IsWrite reports whether the op code mutates object state. Covering
// arguments only care about mutating operations.
func (c OpCode) IsWrite() bool { return c.facts().write }

// IsRead reports whether the op code is a pure read (OpRead / OpReadMax) —
// the only operations a snapshot scan (fabric.TriggerScan) may carry.
func (c OpCode) IsRead() bool { return c == OpRead || c == OpReadMax }

// opFacts is what an op code fixes: its name, the object kind it applies
// to and whether it mutates the object.
type opFacts struct {
	name  string
	kind  Kind
	write bool
}

// ops is each op code's facts, by code.
var ops = [...]opFacts{
	OpRead:       {"read", KindRegister, false},
	OpWrite:      {"write", KindRegister, true},
	OpReadMax:    {"read-max", KindMaxRegister, false},
	OpWriteMax:   {"write-max", KindMaxRegister, true},
	OpCAS:        {"cas", KindCAS, true},
	OpPutFrag:    {"put-frag", KindFragStore, true},
	OpGetFrags:   {"get-frags", KindFragStore, false},
	OpCommitFrag: {"commit-frag", KindFragStore, true},
	OpFragTS:     {"frag-ts", KindFragStore, false},
}

// facts returns c's facts: the zero opFacts for an unknown code.
func (c OpCode) facts() opFacts {
	if c > 0 && int(c) < len(ops) {
		return ops[c]
	}
	return opFacts{}
}

// kind returns the object kind the op code applies to, or 0 for an unknown
// code.
func (c OpCode) kind() Kind { return c.facts().kind }

// kindFacts is what a kind fixes: its name, its full-state read and its
// one-op write-max (0 where it has none).
type kindFacts struct {
	name           string
	read, writeMax OpCode
}

// kinds is each kind's facts, by kind.
var kinds = [...]kindFacts{
	KindRegister:    {"register", OpRead, OpWrite},
	KindMaxRegister: {"max-register", OpReadMax, OpWriteMax},
	KindCAS:         {"cas", OpCAS, 0},
	KindFragStore:   {"frag-store", OpGetFrags, 0},
}

// facts returns k's facts: the zero kindFacts for an unknown kind.
func (k Kind) facts() kindFacts {
	if int(k) < len(kinds) {
		return kinds[k]
	}
	return kindFacts{}
}

// StateRead returns the op that reads the whole state of an object of kind
// k and changes nothing, its invocation being the bare op: a register's
// read, a max-register's read-max, a fragment store's OpGetFrags, and a CAS
// cell's Algorithm 1 read, the no-op CAS(v0, v0) — the zero Exp and Arg —
// whose response carries the cell's value. The response's Val, Data and
// Frags are the object's State. It is 0 for an unknown kind.
func (k Kind) StateRead() OpCode { return k.facts().read }

// WriteMax returns the one low-level op that is a write-max on an object of
// kind k: a max-register's write-max, a register's overwrite. It is 0 for a
// kind without one (a CAS cell's is Algorithm 1's loop) or an unknown kind.
func (k Kind) WriteMax() OpCode { return k.facts().writeMax }

// Invocation is a low-level operation invocation: an op code and at most
// two values, as in the paper's model — a read carries none, a write or a
// write-max one, CAS(exp, new) two. It is 64 bytes, copied into every
// trigger's event, so it holds nothing else.
type Invocation struct {
	// Op selects the operation.
	Op OpCode
	// Arg is the value an op writes: the argument of OpWrite and OpWriteMax,
	// the new value of OpCAS, and the commit watermark of OpCommitFrag.
	Arg types.TSValue
	// Exp is OpCAS's expected value.
	Exp types.TSValue
	// Body is what an op carries besides its values, nil when nothing: the
	// fragment OpPutFrag stores, or — in replicated payload mode — the value
	// bytes riding with OpWrite / OpWriteMax, as Body.Data (the fragment's
	// other fields unused). One body may be shared by the ops of a whole
	// push: the object takes ownership of Body.Data, and nobody mutates a
	// body once it was triggered.
	Body *Fragment
}

// Payload returns the value bytes a write carries: Body.Data, or nil.
func (inv *Invocation) Payload() types.Payload {
	if inv.Body == nil {
		return nil
	}
	return inv.Body.Data
}

// Response is a low-level operation response.
type Response struct {
	// Op echoes the invocation's op code.
	Op OpCode
	// Val carries the result of OpRead and OpReadMax, the previous value
	// for OpCAS, the commit watermark for OpGetFrags and the maximum known
	// stripe timestamp for OpFragTS. It is the zero TSValue for plain
	// writes.
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
	// writer range attempts a write.
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

// WriterRange is a register's writer restriction: the half-open client-ID
// range [Lo, Hi). The zero value is unrestricted — every client may write.
type WriterRange struct {
	Lo, Hi types.ClientID
}

// Admits reports whether client may write under r.
func (r WriterRange) Admits(client types.ClientID) bool {
	return r == WriterRange{} || r.Lo <= client && client < r.Hi
}

// Object is a base object: a sequential state machine applied atomically.
// Every kind implements the whole contract — apply, the external state lock
// of snapshot scans, state transfer and the space metric — so no caller
// asks an object what it supports. Implementations are safe for concurrent
// use; Apply is the object's linearization point.
type Object interface {
	// ID returns the object's cluster-wide identifier.
	ID() types.ObjectID
	// Kind returns the object's type.
	Kind() Kind
	// Writers returns a register's writer range, or the zero (unrestricted)
	// range when its writer set is unbounded and for every other kind.
	Writers() WriterRange
	// Apply atomically applies inv on behalf of client and returns the
	// response. It returns an error for malformed invocations; errors
	// model protocol misuse, not failures (failures live in the fabric).
	// inv is read, never kept or written: the caller's record — a trigger's
	// event, a decoded frame — is lent for the call, so the 64 bytes are not
	// copied on the way in. A CAS's new value is inv.Arg; a write's payload
	// and a put's fragment are inv.Body, of which the object keeps Body.Data
	// (a fragment store keeps the fragment).
	Apply(client types.ClientID, inv *Invocation) (Response, error)
	// LockState and UnlockState take the object's state lock externally, so
	// a caller may apply a group of operations against several objects as
	// one consistent cut: lock every object in ascending object-ID order
	// (the package-wide lock order), apply through ApplyLocked, unlock. The
	// fabric's snapshot scans (fabric.TriggerScan) are the only caller.
	LockState()
	UnlockState()
	// ApplyLocked is Apply with the state lock already held by the caller.
	ApplyLocked(client types.ClientID, inv *Invocation) (Response, error)
	// PeekState returns the full current state without linearizing an
	// operation. It exists for checkers, reports and lane backends that
	// mirror object state on placement; emulation algorithms never call it.
	PeekState() State
	// SealState atomically snapshots everything the object stores and
	// rejects every later mutating operation with ErrSealed.
	SealState() State
	// RestoreState loads transferred state into a fresh copy (setup and
	// transfer only — never concurrent with Apply traffic).
	RestoreState(State)
	// SizeBytes reports the payload bytes the object stores — the
	// bytes-per-server space metric; 0 for an object without payload.
	SizeBytes() int
	// Retire ends a copy whose object lives on elsewhere — moved, rolled
	// back to a clone, or removed from the cluster: the copy is sealed,
	// drops what it stores and refuses every later operation, reads
	// included, with ErrSealed (retryable). The cluster's object table
	// retires every copy it stops serving, so one that outlives its slot —
	// in an arena block beside live neighbours, or held by a stale caller —
	// pins no payload bytes.
	Retire()
}

// New returns a fresh object of the given kind at the initial state. A
// register is restricted to the writers range unless it is the zero range,
// modelling the z-writer registers of Theorem 3; other kinds ignore it. New
// fails only for an unknown kind (a wire placement names the kind).
func New(kind Kind, id types.ObjectID, writers WriterRange) (Object, error) {
	switch kind {
	case KindRegister, KindMaxRegister, KindCAS:
		return newCell(id, kind, writers), nil
	case KindFragStore:
		return NewFragStore(id), nil
	}
	return nil, fmt.Errorf("baseobj: unknown object kind %v", kind)
}

// NewRegister returns an unrestricted read/write register initialized to the
// zero TSValue.
func NewRegister(id types.ObjectID) Object { return newCell(id, KindRegister, WriterRange{}) }

// NewMaxRegister returns a max-register initialized to the zero TSValue.
func NewMaxRegister(id types.ObjectID) Object { return newCell(id, KindMaxRegister, WriterRange{}) }

// NewCASCell returns a CAS cell initialized to the zero TSValue.
func NewCASCell(id types.ObjectID) Object { return newCell(id, KindCAS, WriterRange{}) }

// CloneAtState builds a fresh, unsealed object of the same identity (ID,
// kind, writer range) holding the given full state. Reconfiguration uses it to
// materialize a migrated object on its new server while the sealed original
// keeps answering stale-route reads.
func CloneAtState(o Object, st State) (Object, error) {
	clone, err := New(o.Kind(), o.ID(), o.Writers())
	if err != nil {
		return nil, err
	}
	clone.RestoreState(st)
	return clone, nil
}

// Cell is the one implementation of the three base objects that store a
// TSValue (Table 1), told apart by kind:
//
//   - a read/write register, optionally restricted to a writer range, whose
//     writes overwrite unconditionally (last write wins): precisely the
//     weakness the lower bound exploits, because a delayed old write can
//     erase a newer value;
//   - a max-register [Aspnes, Attiya, Censor 2009], whose write-max takes
//     effect only when the written value exceeds the current one, so a
//     delayed old write-max can never erase a newer value — the monotonicity
//     that separates max-registers from plain registers in Table 1;
//   - a compare-and-swap cell: CAS(exp, new) sets the value to new when the
//     current value equals exp, and always returns the previous value (the
//     semantics of Algorithm 1 in Appendix B). A CAS cell carries no payload
//     — Apply compares TSValues with ==, so its state stays a bare TSValue.
//
// The type is exported so that an owner can embed a cell in a record of its
// own and initialize it in place (InitCell): the cluster's object table keeps
// each one inside its table entry. A zero Cell is not an object, and a Cell
// must not be copied once initialized.
//
// The layout is a per-key footprint cost (three cells per abd-max key): the
// one-byte fields sit last so a cell stays in the 80-byte size class.
type Cell struct {
	id      types.ObjectID
	writers WriterRange // registers only; the zero range is unbounded (MWMR)

	mu      sync.Mutex
	val     types.TSValue
	data    types.Payload // payload bytes riding with val (payload mode)
	kind    Kind
	sealed  bool
	retired bool // Retire ran: reads are refused too
}

// InitCell initializes c in place as a fresh object of kind — a register
// (restricted to the writers range unless it is the zero range), a
// max-register or a CAS cell — at the initial state, as New would build it.
// It panics on any other kind: a fragment store is not a cell.
func InitCell(c *Cell, id types.ObjectID, kind Kind, writers WriterRange) {
	switch kind {
	case KindRegister, KindMaxRegister, KindCAS:
	default:
		panic(fmt.Sprintf("baseobj: InitCell of a %v", kind))
	}
	c.id, c.kind, c.val = id, kind, types.ZeroTSValue
	if kind == KindRegister {
		c.writers = writers
	}
}

func newCell(id types.ObjectID, kind Kind, writers WriterRange) *Cell {
	c := new(Cell)
	InitCell(c, id, kind, writers)
	return c
}

// Retire implements Object.
func (c *Cell) Retire() {
	c.mu.Lock()
	c.sealed, c.retired, c.data = true, true, nil
	c.mu.Unlock()
}

// ID implements Object.
func (c *Cell) ID() types.ObjectID { return c.id }

// Kind implements Object.
func (c *Cell) Kind() Kind { return c.kind }

// Writers implements Object.
func (c *Cell) Writers() WriterRange { return c.writers }

// Apply implements Object.
func (c *Cell) Apply(client types.ClientID, inv *Invocation) (resp Response, err error) {
	c.mu.Lock()
	err = c.apply(client, inv, &resp)
	c.mu.Unlock()
	return
}

// LockState implements Object.
func (c *Cell) LockState() { c.mu.Lock() }

// UnlockState implements Object.
func (c *Cell) UnlockState() { c.mu.Unlock() }

// ApplyLocked implements Object.
func (c *Cell) ApplyLocked(client types.ClientID, inv *Invocation) (resp Response, err error) {
	err = c.apply(client, inv, &resp)
	return
}

// apply is the one body of both: the caller holds mu, and resp arrives zero.
// Invocation and response travel by pointer — they are eight and ten words,
// and a by-value hop through a second frame costs the hot path a third of an
// uncontended apply.
func (c *Cell) apply(client types.ClientID, inv *Invocation, resp *Response) error {
	switch {
	case inv.Op.kind() != c.kind:
		return fmt.Errorf("%w: %v on %v %d", ErrWrongOp, inv.Op, c.kind, c.id)
	case !inv.Op.IsWrite() && !c.retired:
		resp.Op, resp.Val, resp.Data = inv.Op, c.val, c.data // field by field: no block copy
		return nil
	case inv.Op == OpWrite && !c.writers.Admits(client):
		return fmt.Errorf("%w: client %d, register %d", ErrUnauthorizedWriter, client, c.id)
	}
	if c.sealed {
		return fmt.Errorf("%w: %v %d", ErrSealed, c.kind, c.id)
	}
	resp.Op = inv.Op
	switch inv.Op {
	case OpWrite:
		c.val, c.data = inv.Arg, inv.Payload()
	case OpWriteMax:
		if c.val.Less(inv.Arg) {
			c.val, c.data = inv.Arg, inv.Payload()
		}
	case OpCAS:
		resp.Val = c.val
		if c.val == inv.Exp {
			c.val = inv.Arg
		}
	}
	return nil
}

// PeekState implements Object.
func (c *Cell) PeekState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return State{Val: c.val, Data: c.data}
}

// SealState implements Object.
func (c *Cell) SealState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealed = true
	return State{Val: c.val, Data: c.data}
}

// RestoreState implements Object.
func (c *Cell) RestoreState(st State) {
	c.mu.Lock()
	c.val = st.Val
	c.data = st.Data
	c.mu.Unlock()
}

// SizeBytes implements Object.
func (c *Cell) SizeBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.data)
}
