package baseobj

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// FragStore is the per-server base object of the erasure-coded register
// construction (package coded). It stores at most one *committed*
// fragment — the store's piece of the newest stripe known to be complete
// at a quorum — plus the pending fragments of newer stripes whose writes
// are still in flight.
//
// The retention rule is what makes partially-written stripes safe: a
// pending fragment is only discarded when a commit with a higher
// timestamp arrives, and a commit is only issued after the stripe
// reached n−f servers. So any fragment this store acked remains
// available until it is provably superseded, and at any one instant n−f
// stores hold ≥ k = n−2f fragments of the newest committed stripe — a
// torn (partially overwritten) stripe can never hide it. A reader's
// gather is not instantaneous: answers that straddle commits may hold no
// k fragments of one stripe, which the reader detects from the commit
// watermarks and answers by gathering again (coded reads are
// FW-terminating).
type FragStore struct {
	id types.ObjectID

	mu sync.Mutex
	// watermark is the highest commit timestamp seen; pending stripes at
	// or below it are garbage-collected.
	watermark types.TSValue
	// committed is this store's fragment of the newest committed stripe
	// it actually holds (nil when the commit outran the fragment).
	committed *Fragment
	// pending holds fragments of stripes newer than the watermark,
	// keyed by their write timestamp.
	pending map[fragKey]*Fragment
	sealed  bool
	retired bool // Retire ran: reads are refused too
}

// fragKey identifies a stripe: the (counter, writer) pair is unique per
// write.
type fragKey struct {
	ts     uint64
	writer types.ClientID
}

func keyOf(v types.TSValue) fragKey { return fragKey{ts: v.TS, writer: v.Writer} }

// NewFragStore returns an empty fragment store.
func NewFragStore(id types.ObjectID) *FragStore {
	return &FragStore{id: id, pending: make(map[fragKey]*Fragment)}
}

// ID implements Object.
func (s *FragStore) ID() types.ObjectID { return s.id }

// Kind implements Object.
func (s *FragStore) Kind() Kind { return KindFragStore }

// Writers implements Object: a fragment store has no writer set.
func (s *FragStore) Writers() WriterRange { return WriterRange{} }

// Apply implements Object.
func (s *FragStore) Apply(client types.ClientID, inv Invocation) (Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ApplyLocked(client, inv)
}

// LockState implements Object.
func (s *FragStore) LockState() { s.mu.Lock() }

// UnlockState implements Object.
func (s *FragStore) UnlockState() { s.mu.Unlock() }

// ApplyLocked implements Object.
func (s *FragStore) ApplyLocked(_ types.ClientID, inv Invocation) (Response, error) {
	if s.retired && inv.Op.kind() == KindFragStore {
		return Response{}, fmt.Errorf("%w: retired frag store %d", ErrSealed, s.id)
	}
	switch inv.Op {
	case OpPutFrag:
		if inv.Frag == nil {
			return Response{}, fmt.Errorf("baseobj: put-frag without fragment on store %d", s.id)
		}
		if s.sealed {
			return Response{}, fmt.Errorf("%w: frag store %d", ErrSealed, s.id)
		}
		s.putFrag(inv.Frag)
		return Response{Op: OpPutFrag}, nil
	case OpCommitFrag:
		if s.sealed {
			return Response{}, fmt.Errorf("%w: frag store %d", ErrSealed, s.id)
		}
		s.commit(inv.Arg)
		return Response{Op: OpCommitFrag}, nil
	case OpGetFrags:
		// Val is the commit watermark (not the max pending ts): paired
		// with the fragment snapshot it is the store's complete state,
		// which is what wire-read state transfer relies on.
		return Response{Op: OpGetFrags, Val: s.watermark, Frags: s.snapshot()}, nil
	case OpFragTS:
		return Response{Op: OpFragTS, Val: s.maxTS()}, nil
	default:
		return Response{}, fmt.Errorf("%w: %v on frag store %d", ErrWrongOp, inv.Op, s.id)
	}
}

// putFrag stores a fragment. Fragments of stripes at the watermark
// become the committed fragment (the straggler of an already-committed
// write); older ones are stale and acked without effect.
func (s *FragStore) putFrag(f *Fragment) {
	switch {
	case f.TS == s.watermark && s.watermark != types.ZeroTSValue:
		fc := *f
		fc.Committed = true
		s.committed = &fc
	case s.watermark.Less(f.TS):
		s.pending[keyOf(f.TS)] = f
	}
}

// commit advances the watermark to ts, promotes the matching pending
// fragment if present, and garbage-collects everything superseded.
func (s *FragStore) commit(ts types.TSValue) {
	if !s.watermark.Less(ts) {
		return
	}
	s.watermark = ts
	if f, ok := s.pending[keyOf(ts)]; ok {
		fc := *f
		fc.Committed = true
		s.committed = &fc
	}
	for k, f := range s.pending {
		if !ts.Less(f.TS) {
			delete(s.pending, k)
		}
	}
}

// snapshot copies out the committed fragment (first) and all pending
// fragments. The Data slices are shared — callers must not mutate them.
func (s *FragStore) snapshot() []Fragment {
	out := make([]Fragment, 0, len(s.pending)+1)
	if s.committed != nil {
		out = append(out, *s.committed)
	}
	for _, f := range s.pending {
		out = append(out, *f)
	}
	return out
}

// maxTS returns the highest stripe timestamp known to this store.
func (s *FragStore) maxTS() types.TSValue {
	m := s.watermark
	if s.committed != nil {
		m = types.MaxTSValue(m, s.committed.TS)
	}
	for _, f := range s.pending {
		m = types.MaxTSValue(m, f.TS)
	}
	return m
}

// SealState implements Object.
func (s *FragStore) SealState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
	return State{Val: s.watermark, Frags: s.snapshot()}
}

// Retire implements Object.
func (s *FragStore) Retire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed, s.retired = true, true
	s.committed, s.pending = nil, nil
}

// RestoreState implements Object.
func (s *FragStore) RestoreState(st State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watermark = st.Val
	s.committed = nil
	s.pending = make(map[fragKey]*Fragment)
	for i := range st.Frags {
		f := st.Frags[i]
		if f.Committed {
			fc := f
			s.committed = &fc
			continue
		}
		fp := f
		s.putFrag(&fp)
	}
}

// PeekState implements Object: Val is the commit watermark.
func (s *FragStore) PeekState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return State{Val: s.watermark, Frags: s.snapshot()}
}

// SizeBytes implements Object: the payload bytes currently stored — the
// quantity the space bounds are about.
func (s *FragStore) SizeBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	if s.committed != nil {
		n += len(s.committed.Data)
	}
	for _, f := range s.pending {
		n += len(f.Data)
	}
	return n
}
