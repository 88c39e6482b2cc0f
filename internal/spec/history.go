// Package spec records histories of high-level read/write operations on the
// emulated register and checks them against the paper's consistency
// conditions (Section 2 and Appendix A.3):
//
//   - Atomicity: the history has a linearization.
//   - Write-Sequential Regularity (WS-Regular): in write-sequential
//     histories, every complete read has a linearization together with all
//     the writes.
//   - Write-Sequential Safety (WS-Safe): as WS-Regular, but only for reads
//     that are not concurrent with any write.
//
// Experiments write unique values, which makes the regularity and safety
// checks exact and keeps the linearizability search tractable.
package spec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// OpKind distinguishes the two high-level operation types.
type OpKind int

const (
	// KindWrite is a high-level write.
	KindWrite OpKind = iota + 1
	// KindRead is a high-level read.
	KindRead
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindRead:
		return "read"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// Op is one high-level operation in a recorded history. Invocation and
// return times come from a global logical clock, so op1 precedes op2 iff
// op1.End < op2.Start (and op1 is complete).
type Op struct {
	// ID is the op's position in the recording order.
	ID int
	// Client is the invoking client.
	Client types.ClientID
	// Kind is write or read.
	Kind OpKind
	// Arg is the written value (writes only).
	Arg types.Value
	// Out is the returned value (complete reads only).
	Out types.Value
	// Start and End are logical invocation/return times.
	Start int64
	End   int64
	// Complete reports whether the op returned.
	Complete bool
}

// Precedes reports whether o returned before other was invoked (the paper's
// precedence relation on schedules).
func (o Op) Precedes(other Op) bool {
	return o.Complete && o.End < other.Start
}

// ConcurrentWith reports whether neither op precedes the other.
func (o Op) ConcurrentWith(other Op) bool {
	return !o.Precedes(other) && !other.Precedes(o)
}

// String implements fmt.Stringer.
func (o Op) String() string {
	switch {
	case o.Kind == KindWrite && o.Complete:
		return fmt.Sprintf("write(%d)@c%d[%d,%d]", o.Arg, o.Client, o.Start, o.End)
	case o.Kind == KindWrite:
		return fmt.Sprintf("write(%d)@c%d[%d,-]", o.Arg, o.Client, o.Start)
	case o.Complete:
		return fmt.Sprintf("read->%d@c%d[%d,%d]", o.Out, o.Client, o.Start, o.End)
	default:
		return fmt.Sprintf("read@c%d[%d,-]", o.Client, o.Start)
	}
}

// History records high-level operations concurrently. The zero value is
// ready to use.
type History struct {
	clock   atomic.Int64
	discard atomic.Bool

	mu  sync.Mutex
	ops []*Op
}

// SetDiscard toggles discard mode: while on, Begin*/End are cheap no-ops
// (no clock ticks, no locking, nothing recorded). Pure-throughput load
// runs use it to drive billions of ops without accumulating history;
// flip it before the run — ops in flight across a toggle record a
// half-open entry at worst.
func (h *History) SetDiscard(on bool) { h.discard.Store(on) }

// discarded is the shared non-recording op of discard-mode handles.
var discarded = &Op{ID: -1}

// PendingWrite is the handle for an in-flight high-level write: two words,
// passed by value so that beginning an op allocates nothing of its own.
type PendingWrite struct {
	h  *History
	op *Op
}

// PendingRead is the handle for an in-flight high-level read; a value, like
// PendingWrite.
type PendingRead struct {
	h  *History
	op *Op
}

// tick advances the logical clock.
func (h *History) tick() int64 { return h.clock.Add(1) }

// BeginWrite records the invocation of write(v) by client.
func (h *History) BeginWrite(client types.ClientID, v types.Value) PendingWrite {
	if h.discard.Load() {
		return PendingWrite{h: h, op: discarded}
	}
	op := &Op{Client: client, Kind: KindWrite, Arg: v, Start: h.tick()}
	h.mu.Lock()
	op.ID = len(h.ops)
	h.ops = append(h.ops, op)
	h.mu.Unlock()
	return PendingWrite{h: h, op: op}
}

// End records the write's return.
func (w PendingWrite) End() {
	if w.op.ID < 0 {
		return
	}
	end := w.h.tick()
	w.h.mu.Lock()
	w.op.End = end
	w.op.Complete = true
	w.h.mu.Unlock()
}

// BeginRead records the invocation of a read by client.
func (h *History) BeginRead(client types.ClientID) PendingRead {
	if h.discard.Load() {
		return PendingRead{h: h, op: discarded}
	}
	op := &Op{Client: client, Kind: KindRead, Start: h.tick()}
	h.mu.Lock()
	op.ID = len(h.ops)
	h.ops = append(h.ops, op)
	h.mu.Unlock()
	return PendingRead{h: h, op: op}
}

// End records the read's return with the value it returned.
func (r PendingRead) End(v types.Value) {
	if r.op.ID < 0 {
		return
	}
	end := r.h.tick()
	r.h.mu.Lock()
	r.op.Out = v
	r.op.End = end
	r.op.Complete = true
	r.h.mu.Unlock()
}

// Snapshot returns a copy of all recorded ops in recording order.
func (h *History) Snapshot() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	ops := make([]Op, len(h.ops))
	for i, op := range h.ops {
		ops[i] = *op
	}
	return ops
}

// Len returns the number of recorded ops.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ops)
}

// Writes returns the write ops of a snapshot, sorted by invocation time.
func Writes(ops []Op) []Op {
	var ws []Op
	for _, op := range ops {
		if op.Kind == KindWrite {
			ws = append(ws, op)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	return ws
}

// Reads returns the read ops of a snapshot, sorted by invocation time.
func Reads(ops []Op) []Op {
	var rs []Op
	for _, op := range ops {
		if op.Kind == KindRead {
			rs = append(rs, op)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	return rs
}

// IsWriteSequential reports whether no two writes are concurrent (the
// paper's write-sequential runs).
func IsWriteSequential(ops []Op) bool {
	ws := Writes(ops)
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			if ws[i].ConcurrentWith(ws[j]) {
				return false
			}
		}
	}
	return true
}

// UniqueWriteValues reports whether all written values are distinct; the
// checkers require this for exactness.
func UniqueWriteValues(ops []Op) bool {
	seen := make(map[types.Value]struct{})
	for _, op := range ops {
		if op.Kind != KindWrite {
			continue
		}
		if _, dup := seen[op.Arg]; dup {
			return false
		}
		seen[op.Arg] = struct{}{}
	}
	return true
}
