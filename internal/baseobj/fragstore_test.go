package baseobj

import (
	"errors"
	"testing"

	"repro/internal/types"
)

func frag(ts uint64, w types.ClientID, v types.Value, idx int, data string) *Fragment {
	return &Fragment{
		TS:     types.TSValue{TS: ts, Writer: w, Val: v},
		Index:  idx,
		K:      2,
		Length: len(data) * 2,
		Data:   types.Payload(data),
	}
}

func mustApply(t *testing.T, s Object, inv Invocation) Response {
	t.Helper()
	resp, err := s.Apply(1, &inv)
	if err != nil {
		t.Fatalf("apply %v: %v", inv.Op, err)
	}
	return resp
}

func TestFragStoreLifecycle(t *testing.T) {
	s := NewFragStore(7)
	if s.Kind() != KindFragStore || s.ID() != 7 {
		t.Fatal("identity")
	}
	// Empty store: no fragments, zero max ts.
	resp := mustApply(t, s, Invocation{Op: OpGetFrags})
	if len(resp.Frags) != 0 || resp.Val != types.ZeroTSValue {
		t.Fatalf("empty store returned %+v", resp)
	}

	// Put two pending stripes; max ts reflects the newest.
	mustApply(t, s, Invocation{Op: OpPutFrag, Body: frag(1, 1, 10, 0, "aa")})
	mustApply(t, s, Invocation{Op: OpPutFrag, Body: frag(2, 1, 20, 0, "bb")})
	resp = mustApply(t, s, Invocation{Op: OpFragTS})
	if resp.Val.TS != 2 {
		t.Fatalf("max ts %v", resp.Val)
	}
	if got := mustApply(t, s, Invocation{Op: OpGetFrags}); len(got.Frags) != 2 {
		t.Fatalf("want 2 pending, got %d", len(got.Frags))
	}
	if s.SizeBytes() != 4 {
		t.Fatalf("size %d", s.SizeBytes())
	}

	// Commit ts=2: promotes it, GCs ts=1.
	mustApply(t, s, Invocation{Op: OpCommitFrag, Arg: types.TSValue{TS: 2, Writer: 1, Val: 20}})
	got := mustApply(t, s, Invocation{Op: OpGetFrags})
	if len(got.Frags) != 1 || !got.Frags[0].Committed || got.Frags[0].TS.TS != 2 {
		t.Fatalf("after commit: %+v", got.Frags)
	}
	// Stale put (ts=1) is acked but dropped.
	mustApply(t, s, Invocation{Op: OpPutFrag, Body: frag(1, 2, 11, 0, "zz")})
	if got := mustApply(t, s, Invocation{Op: OpGetFrags}); len(got.Frags) != 1 {
		t.Fatalf("stale put stored: %+v", got.Frags)
	}
}

func TestFragStoreCommitBeforePut(t *testing.T) {
	// Commit can outrun the fragment (this server's put was delayed). The
	// straggler put at the watermark must land as the committed fragment.
	s := NewFragStore(1)
	ts := types.TSValue{TS: 5, Writer: 3, Val: 50}
	mustApply(t, s, Invocation{Op: OpCommitFrag, Arg: ts})
	if got := mustApply(t, s, Invocation{Op: OpGetFrags}); len(got.Frags) != 0 {
		t.Fatalf("commit materialized fragments: %+v", got.Frags)
	}
	mustApply(t, s, Invocation{Op: OpPutFrag, Body: &Fragment{TS: ts, Index: 1, K: 2, Length: 4, Data: types.Payload("xy")}})
	got := mustApply(t, s, Invocation{Op: OpGetFrags})
	if len(got.Frags) != 1 || !got.Frags[0].Committed {
		t.Fatalf("straggler not committed: %+v", got.Frags)
	}
}

func TestFragStoreSealAndState(t *testing.T) {
	s := NewFragStore(2)
	mustApply(t, s, Invocation{Op: OpPutFrag, Body: frag(1, 1, 10, 0, "aa")})
	mustApply(t, s, Invocation{Op: OpCommitFrag, Arg: types.TSValue{TS: 1, Writer: 1, Val: 10}})
	mustApply(t, s, Invocation{Op: OpPutFrag, Body: frag(3, 2, 30, 0, "cc")})

	st := s.SealState()
	if _, err := s.Apply(1, &Invocation{Op: OpPutFrag, Body: frag(4, 1, 40, 0, "dd")}); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed store accepted put: %v", err)
	}
	if _, err := s.Apply(1, &Invocation{Op: OpCommitFrag, Arg: types.TSValue{TS: 4}}); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed store accepted commit: %v", err)
	}
	// Reads still work on a sealed store.
	mustApply(t, s, Invocation{Op: OpGetFrags})

	clone, err := CloneAtState(s, st)
	if err != nil {
		t.Fatal(err)
	}
	got := mustApply(t, clone, Invocation{Op: OpGetFrags})
	if len(got.Frags) != 2 {
		t.Fatalf("clone has %d fragments, want 2", len(got.Frags))
	}
	if wm := clone.PeekState().Val; wm != (types.TSValue{TS: 1, Writer: 1, Val: 10}) {
		t.Fatalf("clone watermark %v", wm)
	}
	// The clone is unsealed: new puts land.
	mustApply(t, clone, Invocation{Op: OpPutFrag, Body: frag(4, 1, 40, 0, "dd")})
}

func TestFragStoreWrongOp(t *testing.T) {
	s := NewFragStore(3)
	if _, err := s.Apply(1, &Invocation{Op: OpRead}); !errors.Is(err, ErrWrongOp) {
		t.Fatalf("OpRead on frag store: %v", err)
	}
	r := NewRegister(4)
	if _, err := r.Apply(1, &Invocation{Op: OpPutFrag, Body: frag(1, 1, 1, 0, "a")}); !errors.Is(err, ErrWrongOp) {
		t.Fatalf("OpPutFrag on register: %v", err)
	}
}

func TestRegisterPayload(t *testing.T) {
	r := NewRegister(5)
	p := types.PayloadFor(42, 128)
	if _, err := r.Apply(1, &Invocation{Op: OpWrite, Arg: types.TSValue{TS: 1, Writer: 1, Val: 42}, Body: &Fragment{Data: p}}); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Apply(2, &Invocation{Op: OpRead})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := resp.Data.Value(); err != nil || v != 42 {
		t.Fatalf("payload round trip: %v %v", v, err)
	}
	if r.SizeBytes() != 128 {
		t.Fatalf("size %d", r.SizeBytes())
	}
	// Payload survives state transfer.
	clone, err := CloneAtState(r, r.SealState())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = clone.Apply(2, &Invocation{Op: OpRead})
	if v, err := resp.Data.Value(); err != nil || v != 42 {
		t.Fatalf("clone payload: %v %v", v, err)
	}
}

func TestMaxRegisterPayload(t *testing.T) {
	m := NewMaxRegister(6)
	w := func(ts uint64, v types.Value) {
		if _, err := m.Apply(1, &Invocation{
			Op:   OpWriteMax,
			Arg:  types.TSValue{TS: ts, Writer: 1, Val: v},
			Body: &Fragment{Data: types.PayloadFor(v, 64)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	w(2, 20)
	w(1, 10) // loses the max: payload must NOT replace ts=2's
	resp, err := m.Apply(2, &Invocation{Op: OpReadMax})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := resp.Data.Value(); err != nil || v != 20 {
		t.Fatalf("stale write-max replaced payload: %v %v", v, err)
	}
	if m.SizeBytes() != 64 {
		t.Fatalf("size %d", m.SizeBytes())
	}
}
