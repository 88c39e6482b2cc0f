package aacmax

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

func newReg(t *testing.T, k, f int) (*abdcore.Register, *fabric.Fabric) {
	t.Helper()
	c, err := cluster.New(2*f + 1)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	fab.Cluster().SetF(f)
	reg, err := New(fab, k, emulation.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return reg, fab
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestResourcesMatchSpecialCase(t *testing.T) {
	for _, tc := range []struct{ k, f int }{{1, 1}, {3, 1}, {2, 2}, {4, 2}} {
		reg, fab := newReg(t, tc.k, tc.f)
		want, err := bounds.SpecialCaseRegisters(tc.k, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if reg.ResourceComplexity() != want {
			t.Errorf("k=%d f=%d: resources = %d, want (2f+1)k = %d", tc.k, tc.f, reg.ResourceComplexity(), want)
		}
		// Theorem 2 / Theorem 6 shape: k registers per server.
		for s, c := range fab.Cluster().PerServerCounts() {
			if c != tc.k {
				t.Errorf("k=%d f=%d: server %d hosts %d, want k", tc.k, tc.f, s, c)
			}
		}
	}
}

func TestWriteReadAcrossWriters(t *testing.T) {
	reg, _ := newReg(t, 3, 1)
	ctx := testCtx(t)
	for i := 0; i < 3; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(ctx, types.Value(100+i)); err != nil {
			t.Fatal(err)
		}
		got, err := reg.NewReader().Read(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != types.Value(100+i) {
			t.Fatalf("Read = %d, want %d", got, 100+i)
		}
	}
}

func TestPerWriterRegistersAreSingleWriter(t *testing.T) {
	_, fab := newReg(t, 2, 1)
	c := fab.Cluster()
	// Every placed register must be restricted to exactly one writer — the
	// w-th register of a store to writer w — so writing it as another client
	// is rejected by the base layer.
	for i, obj := range c.AllObjects() {
		o, err := c.Object(obj)
		if err != nil {
			t.Fatal(err)
		}
		if o.Kind() != baseobj.KindRegister {
			t.Fatalf("object %d is not a register", obj)
		}
		w := types.ClientID(i % 2)
		if ws := o.Writers(); ws != (baseobj.WriterRange{Lo: w, Hi: w + 1}) {
			t.Errorf("object %d writer range = %v, want writer %d alone", obj, ws, w)
		}
	}
}

func TestForeignWriterRejected(t *testing.T) {
	reg, _ := newReg(t, 2, 1)
	if _, err := reg.Writer(2); err == nil {
		t.Fatal("writer index k accepted")
	}
}

func TestSurvivesFCrashes(t *testing.T) {
	reg, fab := newReg(t, 2, 2)
	ctx := testCtx(t)
	w0, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Write(ctx, 10); err != nil {
		t.Fatal(err)
	}
	for _, s := range []types.ServerID{0, 2} {
		if err := fab.Crash(s); err != nil {
			t.Fatal(err)
		}
	}
	w1, err := reg.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Write(ctx, 20); err != nil {
		t.Fatalf("write after f crashes: %v", err)
	}
	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("Read = %d, want 20", got)
	}
}

func TestSequentialHistoryIsRegular(t *testing.T) {
	reg, _ := newReg(t, 3, 1)
	hist := reg.History()
	ctx := testCtx(t)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			w, err := reg.Writer(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(ctx, types.Value(round*100+i+1)); err != nil {
				t.Fatal(err)
			}
			if _, err := reg.NewReader().Read(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	ops := hist.Snapshot()
	if err := spec.CheckWSSafety(ops, types.InitialValue); err != nil {
		t.Errorf("WS-Safety: %v", err)
	}
	if err := spec.CheckWSRegularity(ops, types.InitialValue); err != nil {
		t.Errorf("WS-Regularity: %v", err)
	}
}

func TestValidation(t *testing.T) {
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(c)
	fab.Cluster().SetF(1)
	if _, err := New(fab, 0, emulation.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	fab.Cluster().SetF(0)
	if _, err := New(fab, 1, emulation.Options{}); err == nil {
		t.Error("f=0 accepted")
	}
	two, err := cluster.New(2)
	if err != nil {
		t.Fatal(err)
	}
	two.SetF(1)
	if _, err := New(fabric.New(two), 1, emulation.Options{}); err == nil {
		t.Error("a 2-member view accepted for f=1")
	}
}

// TestReadWaitsForFPlusOneCompleteServers pins the collect's completion
// condition: a read is one round over all (2f+1)k registers that counts a
// server once all k of its reads answered. With one of the k reads held on
// each of f+1 servers only f servers are complete, so the read stays
// pending; releasing one server's held read completes it with the written
// maximum. On both local lanes, n = 2f+1, k = 2.
func TestReadWaitsForFPlusOneCompleteServers(t *testing.T) {
	const k, f = 2, 1
	for lane, opts := range map[string][]fabric.Option{
		"inproc":  nil,
		"latency": {fabric.WithLanes(fabric.LatencyLanes(5, fabric.LatencyProfile{Jitter: 50 * time.Microsecond}))},
	} {
		t.Run(lane, func(t *testing.T) {
			ctx := testCtx(t)
			c, err := cluster.New(2*f + 1)
			if err != nil {
				t.Fatal(err)
			}
			var armed atomic.Bool
			held := map[types.ObjectID]bool{} // writer 1's register on servers 0..f
			gate := fabric.GateFuncs{Apply: func(ev fabric.TriggerEvent) fabric.Decision {
				if armed.Load() && held[ev.Object] {
					return fabric.Hold
				}
				return fabric.Pass
			}}
			fab := fabric.New(c, append(opts, fabric.WithGate(gate))...)
			defer fab.Close()
			fab.Cluster().SetF(f)
			reg, err := New(fab, k, emulation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s <= f; s++ {
				held[c.ObjectsOn(types.ServerID(s))[1]] = true
			}
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(ctx, 42); err != nil {
				t.Fatal(err)
			}

			armed.Store(true)
			type result struct {
				v   types.Value
				err error
			}
			done := make(chan result, 1)
			reg.NewReader().StartRead(ctx, func(v types.Value, err error) { done <- result{v, err} })
			// Pending lists every op from its trigger to its completion, so
			// once it holds only the f+1 held reads every other read answered.
			var pending []fabric.PendingOp
			for pending = fab.Pending(); len(pending) != f+1 || !held[pending[0].Event.Object] || !held[pending[f].Event.Object]; pending = fab.Pending() {
				if ctx.Err() != nil {
					t.Fatalf("pending ops %+v, want the %d held reads alone", pending, f+1)
				}
				runtime.Gosched()
			}
			select {
			case r := <-done:
				t.Fatalf("read completed (%d, %v) with only %d complete servers", r.v, r.err, f)
			default:
			}

			if err := fab.Release(pending[0].Event.Token); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-done:
				if r.err != nil || r.v != 42 {
					t.Fatalf("read after the release = %d, %v; want 42", r.v, r.err)
				}
			case <-ctx.Done():
				t.Fatalf("read still pending after releasing server %d's held read", pending[0].Event.Server)
			}
		})
	}
}
