package runner

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/emulation/coded"
	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/types"
)

// tornAssert runs one torn-stripe attack and checks the invariants every
// lane must uphold: zero wrong reads (the torn stripe is invisible), the
// expected number of parked ops, and a WS-Regular history after the
// stragglers land.
func tornAssert(t *testing.T, cfg TornConfig) {
	t.Helper()
	ctx := testCtx(t)
	rep, err := RunTorn(ctx, cfg)
	if err != nil {
		t.Fatalf("RunTorn: %v", err)
	}
	if rep.WrongReads != 0 {
		t.Errorf("%d of %d reads saw something other than the last completed value", rep.WrongReads, rep.Reads)
	}
	if rep.Reads == 0 {
		t.Error("no reads raced the torn stripe")
	}
	if rep.HeldOps < cfg.N-rep.DataShards+1 {
		t.Errorf("gate held %d ops, want at least n−(kData−1) = %d", rep.HeldOps, cfg.N-rep.DataShards+1)
	}
	if rep.Checks.WSSafety != nil {
		t.Errorf("WS-Safety: %v", rep.Checks.WSSafety)
	}
	if rep.Checks.WSRegularity != nil {
		t.Errorf("WS-Regularity: %v", rep.Checks.WSRegularity)
	}
}

// TestTornStripeInProc tears stripes at every torn width j < kData on the
// synchronous lane.
func TestTornStripeInProc(t *testing.T) {
	for allow := 1; allow <= 2; allow++ {
		tornAssert(t, TornConfig{F: 1, N: 5, AllowFrags: allow, ValueSize: 1024})
	}
}

// TestTornStripeLatency runs the attack under seeded asynchronous delivery
// (pinned seeds): the straggler delay composes with the gate's holds.
func TestTornStripeLatency(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tornAssert(t, TornConfig{F: 1, N: 5, ValueSize: 1024, Lane: LaneLatency, Seed: seed})
	}
}

// TestTornStripeTCP runs the attack with fragments travelling over TCP to
// real storage-node processes.
func TestTornStripeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	addrs, _ := startLanenodes(t, 5)
	maker, clients, err := lanenet.Lanes(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, c := range clients {
			_ = c.Close()
		}
	})
	tornAssert(t, TornConfig{F: 1, N: 5, ValueSize: 4096, LaneMaker: maker})
}

// TestChaosCodedStaySafe puts the coded construction through the standard
// chaos net (seeded holds of fragment puts and commits, late releases) at
// both ends of the shard axis: f=1 (kData=3, real striping) and f=2
// (kData=1, degenerate replication). Pinned seeds; zero violations is the
// acceptance bar.
func TestChaosCodedStaySafe(t *testing.T) {
	ctx := testCtx(t)
	for _, f := range []int{1, 2} {
		for seed := int64(0); seed < 10; seed++ {
			cfg := ChaosConfig{
				Kind: KindCoded, K: 3, F: f, N: ChaosServers(KindCoded),
				Ops: 25, Seed: seed,
			}
			rep, err := RunChaos(ctx, cfg)
			if err != nil {
				t.Fatalf("f=%d seed %d: %v", f, seed, err)
			}
			if !rep.Checks.OK() {
				t.Errorf("f=%d seed %d: safety=%v regularity=%v (holds=%d releases=%d)",
					f, seed, rep.Checks.WSSafety, rep.Checks.WSRegularity, rep.Holds, rep.Releases)
			}
		}
	}
}

// TestChaosCodedWithChurn adds live reconfiguration: fragment stores
// migrate (with their fragments) onto swapped-in members and restripe
// across grows and shrinks mid-chaos, and the checkers must stay green.
func TestChaosCodedWithChurn(t *testing.T) {
	ctx := testCtx(t)
	for seed := int64(0); seed < 6; seed++ {
		cfg := ChaosConfig{
			Kind: KindCoded, K: 2, F: 1, N: 5,
			Ops: 20, Seed: seed, ResizeProb: 0.2,
		}
		rep, err := RunChaos(ctx, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Checks.OK() {
			t.Errorf("seed %d: safety=%v regularity=%v (resizes=%d moved=%d)",
				seed, rep.Checks.WSSafety, rep.Checks.WSRegularity, rep.Resizes, rep.Moved)
		}
	}
}

// TestCodedStraddledGather is the torn-stripe adversary turned on the reader:
// instead of tearing a writer's puts it spreads one read's gather over three
// commits. With n=5, f=1 (kData=3, quorum 4) three of the read's five
// OpGetFrags are held before they apply; two answer with stripe 1, then one is
// released after a second write completed and one after a third. The four
// answers that complete the gather hold two fragments of stripe 1 and one each
// of stripes 2 and 3 — nothing reconstructs, although three writes completed.
// The read must not take that for the initial state: it gathers again (the
// gate holds nothing now, and the register counts the repeat) and returns a
// written value, and the history stays WS-Regular. On every lane the schedule
// is driven by Pending alone: each step waits until nothing but the held gets
// is outstanding.
func TestCodedStraddledGather(t *testing.T) {
	t.Run("inproc", func(t *testing.T) { straddledGather(t, nil) })
	t.Run("latency", func(t *testing.T) {
		straddledGather(t, fabric.LatencyLanes(3, chaosLatencyProfile))
	})
	t.Run("tcp", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns node processes")
		}
		addrs, _ := startLanenodes(t, 5)
		maker, clients, err := lanenet.Lanes(addrs, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, c := range clients {
				_ = c.Close()
			}
		})
		straddledGather(t, maker)
	})
}

func straddledGather(t *testing.T, maker fabric.LaneMaker) {
	ctx := testCtx(t)
	var holding atomic.Bool
	gate := fabric.GateFuncs{Apply: func(ev fabric.TriggerEvent) fabric.Decision {
		if holding.Load() && ev.Inv.Op == baseobj.OpGetFrags && ev.Server >= 1 && ev.Server <= 3 {
			return fabric.Hold
		}
		return fabric.Pass
	}}
	env, err := NewEnv(5, gate, fabric.WithLanes(maker))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Fabric.Close()
	reg, hist, err := BuildWith(KindCoded, env.Fabric, 1, 1, BuildOpts{ValueSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	// settle waits until the held gets are all that is outstanding: every op
	// of the writes so far, stragglers included, has been answered.
	settle := func(held int) {
		t.Helper()
		for ; ; time.Sleep(100 * time.Microsecond) {
			pending, parked := env.Fabric.Pending(), 0
			for _, p := range pending {
				if p.Phase == fabric.PhaseApply {
					parked++
				}
			}
			if len(pending) == held && parked == held {
				return
			}
			if ctx.Err() != nil {
				t.Fatalf("waiting for %d held gets and nothing else: Pending = %+v", held, pending)
			}
		}
	}
	// write completes one write everywhere, then lets the held get of one
	// server apply: its answer is that server's fragment of this write's stripe.
	write := func(v types.Value, held int, release types.ServerID) {
		t.Helper()
		if err := w.Write(ctx, v); err != nil {
			t.Fatalf("write %d: %v", v, err)
		}
		settle(held)
		if n := env.Fabric.ReleaseWhere(func(p fabric.PendingOp) bool { return p.Event.Server == release }); n != 1 {
			t.Fatalf("released %d held gets of server %d, want 1", n, release)
		}
		settle(held - 1)
	}

	if err := w.Write(ctx, 100); err != nil {
		t.Fatal(err)
	}
	settle(0)
	type result struct {
		v   types.Value
		err error
	}
	read := make(chan result, 1)
	holding.Store(true)
	reg.NewReader().StartRead(ctx, func(v types.Value, err error) { read <- result{v, err} })
	settle(3)
	holding.Store(false)
	write(200, 3, 1)
	write(300, 2, 2) // the fourth answer: the gather completes, straddled

	select {
	case r := <-read:
		if r.err != nil {
			t.Fatalf("read over a straddled gather: %v", r.err)
		}
		if r.v != 100 && r.v != 200 && r.v != 300 {
			t.Errorf("read over a straddled gather = %d after three completed writes, want a written value", r.v)
		}
	case <-ctx.Done():
		t.Fatal("read over a straddled gather never completed")
	}
	if n := reg.(*coded.Register).StraddledGathers(); n < 1 {
		t.Errorf("read completed after %d repeated gathers, want at least 1: the straddled gather was not caught", n)
	}
	env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
	settle(0)
	if checks := Check(hist); !checks.OK() {
		t.Errorf("safety=%v regularity=%v", checks.WSSafety, checks.WSRegularity)
	}
}
