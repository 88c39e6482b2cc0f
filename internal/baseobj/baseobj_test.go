package baseobj

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/types"
)

func TestRegisterReadWrite(t *testing.T) {
	r := NewRegister(1)
	resp, err := r.Apply(0, Invocation{Op: OpRead})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if resp.Val != types.ZeroTSValue {
		t.Fatalf("initial read = %v, want zero", resp.Val)
	}
	v := types.TSValue{TS: 3, Writer: 1, Val: 7}
	if _, err := r.Apply(1, Invocation{Op: OpWrite, Arg: v}); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err = r.Apply(2, Invocation{Op: OpRead})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if resp.Val != v {
		t.Fatalf("read = %v, want %v", resp.Val, v)
	}
}

func TestRegisterLastWriteWins(t *testing.T) {
	// Plain registers overwrite unconditionally — including with OLDER
	// timestamps. This is the weakness the lower bound exploits.
	r := NewRegister(1)
	newer := types.TSValue{TS: 5, Writer: 1, Val: 50}
	older := types.TSValue{TS: 2, Writer: 0, Val: 20}
	if _, err := r.Apply(1, Invocation{Op: OpWrite, Arg: newer}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(0, Invocation{Op: OpWrite, Arg: older}); err != nil {
		t.Fatal(err)
	}
	if got := r.PeekState().Val; got != older {
		t.Fatalf("after stale overwrite PeekState = %v, want %v", got, older)
	}
}

func TestRegisterWriterSetEnforcement(t *testing.T) {
	r := NewRegister(1, 2, 1)
	if got := r.Writers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Writers = %v, want [1 2]", got)
	}
	if _, err := r.Apply(1, Invocation{Op: OpWrite, Arg: types.TSValue{TS: 1}}); err != nil {
		t.Fatalf("authorized write: %v", err)
	}
	_, err := r.Apply(3, Invocation{Op: OpWrite, Arg: types.TSValue{TS: 2}})
	if !errors.Is(err, ErrUnauthorizedWriter) {
		t.Fatalf("unauthorized write err = %v, want ErrUnauthorizedWriter", err)
	}
	// Reads are never restricted.
	if _, err := r.Apply(3, Invocation{Op: OpRead}); err != nil {
		t.Fatalf("read by non-writer: %v", err)
	}
}

func TestRegisterEmptyWriterSetIsUnbounded(t *testing.T) {
	r := NewRegister(1, []types.ClientID{}...)
	if got := r.Writers(); got != nil {
		t.Fatalf("Writers = %v, want nil (unbounded)", got)
	}
	if _, err := r.Apply(99, Invocation{Op: OpWrite, Arg: types.TSValue{TS: 1}}); err != nil {
		t.Fatalf("write on unbounded register: %v", err)
	}
}

func TestRegisterRejectsWrongOps(t *testing.T) {
	r := NewRegister(1)
	for _, op := range []OpCode{OpReadMax, OpWriteMax, OpCAS} {
		if _, err := r.Apply(0, Invocation{Op: op}); !errors.Is(err, ErrWrongOp) {
			t.Errorf("register %v err = %v, want ErrWrongOp", op, err)
		}
	}
}

func TestMaxRegisterMonotone(t *testing.T) {
	m := NewMaxRegister(1)
	hi := types.TSValue{TS: 9, Writer: 1, Val: 90}
	lo := types.TSValue{TS: 4, Writer: 0, Val: 40}
	if _, err := m.Apply(1, Invocation{Op: OpWriteMax, Arg: hi}); err != nil {
		t.Fatal(err)
	}
	// A stale write-max has no effect — the separation from registers.
	if _, err := m.Apply(0, Invocation{Op: OpWriteMax, Arg: lo}); err != nil {
		t.Fatal(err)
	}
	resp, err := m.Apply(2, Invocation{Op: OpReadMax})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Val != hi {
		t.Fatalf("read-max = %v, want %v", resp.Val, hi)
	}
}

func TestMaxRegisterHoldsMaxProperty(t *testing.T) {
	// Property: after any sequence of write-max ops, read-max returns the
	// maximum of the written values (or zero for the empty sequence).
	err := quick.Check(func(tss []uint8, writers []uint8) bool {
		m := NewMaxRegister(1)
		max := types.ZeroTSValue
		for i, ts := range tss {
			w := types.ClientID(0)
			if len(writers) > 0 {
				w = types.ClientID(writers[i%len(writers)] % 4)
			}
			v := types.TSValue{TS: uint64(ts % 16), Writer: w, Val: types.Value(i)}
			if _, err := m.Apply(w, Invocation{Op: OpWriteMax, Arg: v}); err != nil {
				return false
			}
			max = types.MaxTSValue(max, v)
		}
		resp, err := m.Apply(0, Invocation{Op: OpReadMax})
		return err == nil && resp.Val == max
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxRegisterRejectsWrongOps(t *testing.T) {
	m := NewMaxRegister(1)
	for _, op := range []OpCode{OpRead, OpWrite, OpCAS} {
		if _, err := m.Apply(0, Invocation{Op: op}); !errors.Is(err, ErrWrongOp) {
			t.Errorf("max-register %v err = %v, want ErrWrongOp", op, err)
		}
	}
}

func TestCASSemantics(t *testing.T) {
	c := NewCASCell(1)
	v1 := types.TSValue{TS: 1, Writer: 0, Val: 10}
	v2 := types.TSValue{TS: 2, Writer: 1, Val: 20}

	// Successful CAS from the initial value; returns the previous value.
	resp, err := c.Apply(0, Invocation{Op: OpCAS, Exp: types.ZeroTSValue, New: v1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Val != types.ZeroTSValue {
		t.Fatalf("cas returned %v, want zero", resp.Val)
	}
	if got := c.PeekState().Val; got != v1 {
		t.Fatalf("after cas PeekState = %v, want %v", got, v1)
	}

	// Failed CAS leaves the value and still returns the previous value.
	resp, err = c.Apply(1, Invocation{Op: OpCAS, Exp: types.ZeroTSValue, New: v2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Val != v1 {
		t.Fatalf("failed cas returned %v, want %v", resp.Val, v1)
	}
	if got := c.PeekState().Val; got != v1 {
		t.Fatalf("failed cas changed value to %v", got)
	}

	// The no-op CAS(x, x) is a read.
	resp, err = c.Apply(2, Invocation{Op: OpCAS, Exp: types.ZeroTSValue, New: types.ZeroTSValue})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PeekState().Val; resp.Val != v1 || got != v1 {
		t.Fatalf("no-op cas: returned %v, state %v, want %v", resp.Val, got, v1)
	}
}

func TestCASRejectsWrongOps(t *testing.T) {
	c := NewCASCell(1)
	for _, op := range []OpCode{OpRead, OpWrite, OpReadMax, OpWriteMax} {
		if _, err := c.Apply(0, Invocation{Op: op}); !errors.Is(err, ErrWrongOp) {
			t.Errorf("cas %v err = %v, want ErrWrongOp", op, err)
		}
	}
}

func TestObjectIdentity(t *testing.T) {
	objs := []Object{NewRegister(7), NewMaxRegister(8), NewCASCell(9)}
	wantKinds := []Kind{KindRegister, KindMaxRegister, KindCAS}
	wantIDs := []types.ObjectID{7, 8, 9}
	for i, o := range objs {
		if o.ID() != wantIDs[i] {
			t.Errorf("ID = %d, want %d", o.ID(), wantIDs[i])
		}
		if o.Kind() != wantKinds[i] {
			t.Errorf("Kind = %v, want %v", o.Kind(), wantKinds[i])
		}
	}
}

func TestOpCodeIsWrite(t *testing.T) {
	writes := map[OpCode]bool{
		OpRead: false, OpWrite: true, OpReadMax: false, OpWriteMax: true, OpCAS: true,
	}
	for op, want := range writes {
		if got := op.IsWrite(); got != want {
			t.Errorf("%v.IsWrite() = %v, want %v", op, got, want)
		}
	}
}

func TestStringerCoverage(t *testing.T) {
	for _, k := range []Kind{KindRegister, KindMaxRegister, KindCAS, Kind(99)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", int(k))
		}
	}
	for _, c := range []OpCode{OpRead, OpWrite, OpReadMax, OpWriteMax, OpCAS, OpCode(99)} {
		if c.String() == "" {
			t.Errorf("OpCode(%d).String() empty", int(c))
		}
	}
}

func TestConcurrentApplies(t *testing.T) {
	// Apply is the linearization point; hammer each object from many
	// goroutines and verify a coherent final state (run with -race).
	reg := NewRegister(1)
	max := NewMaxRegister(2)
	cas := NewCASCell(3)
	var wg sync.WaitGroup
	const goroutines, opsEach = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsEach; i++ {
				v := types.TSValue{TS: uint64(rng.Intn(100)), Writer: types.ClientID(g), Val: types.Value(i)}
				if _, err := reg.Apply(types.ClientID(g), Invocation{Op: OpWrite, Arg: v}); err != nil {
					t.Errorf("register write: %v", err)
					return
				}
				if _, err := max.Apply(types.ClientID(g), Invocation{Op: OpWriteMax, Arg: v}); err != nil {
					t.Errorf("write-max: %v", err)
					return
				}
				prev, err := cas.Apply(types.ClientID(g), Invocation{Op: OpCAS, Exp: types.ZeroTSValue, New: types.ZeroTSValue})
				if err != nil {
					t.Errorf("cas read: %v", err)
					return
				}
				if _, err := cas.Apply(types.ClientID(g), Invocation{Op: OpCAS, Exp: prev.Val, New: v}); err != nil {
					t.Errorf("cas: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Max-register must hold a value with the highest timestamp written.
	if got := max.PeekState().Val; got.TS > 99 {
		t.Fatalf("max-register holds impossible timestamp %v", got)
	}
}

// TestObjectContract runs every kind through the whole Object contract — the
// one New, the external state lock, seal, state transfer and the space
// metric — so no caller needs to ask an object what it supports.
func TestObjectContract(t *testing.T) {
	v := types.TSValue{TS: 4, Writer: 1, Val: 40}
	p := types.PayloadFor(40, 32)
	for _, tc := range []struct {
		kind       Kind
		read, muta Invocation
		size       int
	}{
		{KindRegister, Invocation{Op: OpRead}, Invocation{Op: OpWrite, Arg: v, Data: p}, 32},
		{KindMaxRegister, Invocation{Op: OpReadMax}, Invocation{Op: OpWriteMax, Arg: v, Data: p}, 32},
		{KindCAS, Invocation{}, Invocation{Op: OpCAS, Exp: types.ZeroTSValue, New: v}, 0},
		{KindFragStore, Invocation{Op: OpGetFrags}, Invocation{Op: OpCommitFrag, Arg: v}, 0},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			o, err := New(tc.kind, 11, 1)
			if err != nil {
				t.Fatal(err)
			}
			if o.ID() != 11 || o.Kind() != tc.kind {
				t.Fatalf("identity %d/%v", o.ID(), o.Kind())
			}
			if ws := o.Writers(); (tc.kind == KindRegister) != (len(ws) == 1) {
				t.Fatalf("Writers = %v", ws)
			}
			o.LockState()
			_, err = o.ApplyLocked(1, tc.muta)
			o.UnlockState()
			if err != nil {
				t.Fatalf("locked apply: %v", err)
			}
			if got := o.PeekState().Val; got != v {
				t.Fatalf("PeekState = %v, want %v", got, v)
			}
			if got := o.SizeBytes(); got != tc.size {
				t.Fatalf("SizeBytes = %d, want %d", got, tc.size)
			}
			st := o.SealState()
			if _, err := o.Apply(1, tc.muta); !errors.Is(err, ErrSealed) {
				t.Fatalf("sealed object accepted %v: %v", tc.muta.Op, err)
			}
			if tc.read.Op != 0 { // a CAS cell has no pure read
				if _, err := o.Apply(1, tc.read); err != nil {
					t.Fatalf("read of a sealed object: %v", err)
				}
			}
			clone, err := CloneAtState(o, st)
			if err != nil {
				t.Fatal(err)
			}
			if clone.ID() != 11 || clone.Kind() != tc.kind || len(clone.Writers()) != len(o.Writers()) {
				t.Fatalf("clone identity %d/%v/%v", clone.ID(), clone.Kind(), clone.Writers())
			}
			if got := clone.PeekState(); got.Val != v || len(got.Data) != len(st.Data) {
				t.Fatalf("clone state %+v, want %+v", got, st)
			}
			if _, err := clone.Apply(1, tc.muta); err != nil {
				t.Fatalf("clone is sealed: %v", err)
			}
			// A retired copy refuses reads too, and keeps no payload.
			o.Retire()
			for _, inv := range []Invocation{tc.read, tc.muta} {
				if _, err := o.Apply(1, inv); inv.Op != 0 && !errors.Is(err, ErrSealed) {
					t.Fatalf("retired object answered %v: %v", inv.Op, err)
				}
			}
			if got := o.SizeBytes(); got != 0 {
				t.Fatalf("retired object holds %d payload bytes", got)
			}
		})
	}
	if _, err := New(Kind(99), 1); err == nil {
		t.Fatal("New accepted an unknown kind")
	}
}

// TestCellStaysInItsSizeClass: an abd-max key keeps three cells, so the
// cell's size is a per-key footprint cost; a field that pushes it past 80
// bytes moves every cell up a size class.
func TestCellStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got > 80 {
		t.Fatalf("Cell is %d bytes, want at most 80", got)
	}
}
