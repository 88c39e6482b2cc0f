package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/emulation"
	"repro/internal/emulation/coded"
	"repro/internal/fabric"
	"repro/internal/types"
)

// TornGate is the torn-stripe adversary: armed against one writer, it lets
// exactly `allow` of that writer's fragment puts through and parks the
// rest (and any commit), leaving a partially-written stripe on the
// servers. With allow < kData the stripe is unreconstructible, so readers
// must fall back to the newest committed stripe — returning a mix would
// fail the payload verification and surface as a read error.
type TornGate struct {
	mu     sync.Mutex
	armed  bool
	client types.ClientID
	allow  int
	passed int
	held   int
	// want and reached are WhenHeld's pending request: reached closes when
	// held gets to want.
	want    int
	reached chan struct{}
}

// Compile-time interface compliance check.
var _ fabric.Gate = (*TornGate)(nil)

// Arm targets the gate at client's next write, letting allow fragment puts
// through.
func (g *TornGate) Arm(client types.ClientID, allow int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = true
	g.client = client
	g.allow = allow
	g.passed = 0
}

// Disarm stops holding; already-held ops stay parked until released.
func (g *TornGate) Disarm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = false
}

// Held returns how many operations the gate parked.
func (g *TornGate) Held() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.held
}

// WhenHeld returns a channel closed once the gate has parked n operations
// (at once if it already has). One request is outstanding at a time.
func (g *TornGate) WhenHeld(n int) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.want, g.reached = n, make(chan struct{})
	if g.held >= n {
		close(g.reached)
	}
	return g.reached
}

// hold counts one parked operation; the caller holds mu.
func (g *TornGate) hold() fabric.Decision {
	g.held++
	if g.held == g.want { // want is 0 — never matched — until WhenHeld asks
		close(g.reached)
	}
	return fabric.Hold
}

// BeforeApply implements fabric.Gate.
func (g *TornGate) BeforeApply(ev fabric.TriggerEvent) fabric.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.armed || ev.Client != g.client {
		return fabric.Pass
	}
	switch ev.Inv.Op {
	case baseobj.OpPutFrag:
		if g.passed < g.allow {
			g.passed++
			return fabric.Pass
		}
		return g.hold()
	case baseobj.OpCommitFrag:
		return g.hold()
	default:
		return fabric.Pass
	}
}

// BeforeRespond implements fabric.Gate.
func (g *TornGate) BeforeRespond(fabric.TriggerEvent, baseobj.Response) fabric.Decision {
	return fabric.Pass
}

// TornConfig configures a torn-stripe run against the coded construction.
type TornConfig struct {
	// F and N shape the register (kData = n−2f).
	F, N int
	// AllowFrags is how many fragments of the attacked write land
	// (default kData−1, the maximal torn stripe).
	AllowFrags int
	// ValueSize is the payload size (default coded.DefaultValueSize).
	ValueSize int
	// Readers × ReadsPerReader concurrent reads run against the torn
	// stripe (defaults 3×4).
	Readers, ReadsPerReader int
	// Lane selects the dispatch backend (default LaneInProc); LaneMaker
	// overrides it with caller-dialed backends (the TCP suite).
	Lane Lane
	// LaneMaker, when set, overrides Lane (see ChaosConfig.LaneMaker).
	LaneMaker fabric.LaneMaker `json:"-"`
	// Seed drives the latency lane's delay distributions.
	Seed int64
}

// TornReport is the outcome of a torn-stripe run.
type TornReport struct {
	Cfg        TornConfig
	DataShards int
	// HeldOps is how many of the attacked write's ops the gate parked.
	HeldOps int
	// Reads is the number of reads raced against the torn stripe; every
	// one must have returned the last completed value.
	Reads int
	// WrongReads counts reads that returned anything else (0 on success).
	WrongReads int
	Checks     CheckResult
}

// RunTorn drives the torn-stripe attack: writer 0 completes a write, the
// gate tears writer 1's next write after AllowFrags fragments, concurrent
// readers must all return writer 0's value with zero errors (the torn
// stripe is unreconstructible and must be invisible), then the stragglers
// are released, the torn write completes late, and a final write/read pair
// proves the register moved on. The history must stay WS-Regular
// throughout.
func RunTorn(ctx context.Context, cfg TornConfig) (*TornReport, error) {
	if cfg.Readers == 0 {
		cfg.Readers = 3
	}
	if cfg.ReadsPerReader == 0 {
		cfg.ReadsPerReader = 4
	}
	laneOpts, err := laneOptions(cfg.Lane, cfg.LaneMaker, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gate := &TornGate{}
	env, err := NewEnv(cfg.N, gate, laneOpts...)
	if err != nil {
		return nil, err
	}
	defer env.Fabric.Close()
	regI, hist, err := BuildWith(KindCoded, env.Fabric, 2, cfg.F, BuildOpts{ValueSize: cfg.ValueSize})
	if err != nil {
		return nil, err
	}
	reg := regI.(*coded.Register)
	allow := cfg.AllowFrags
	if allow == 0 {
		allow = reg.DataShards() - 1
	}
	if allow >= reg.DataShards() {
		return nil, fmt.Errorf("runner: torn stripe needs allowed fragments < kData=%d, got %d (the stripe would reconstruct)", reg.DataShards(), allow)
	}
	rep := &TornReport{Cfg: cfg, DataShards: reg.DataShards()}

	// Phase 1: a completed write the readers must keep seeing.
	const stable, torn, final types.Value = 100, 200, 300
	w0, err := reg.Writer(0)
	if err != nil {
		return nil, err
	}
	if err := w0.Write(ctx, stable); err != nil {
		return nil, ctxErr(ctx, "torn stable write", err)
	}

	// Phase 2: tear writer 1's write after `allow` fragments. The put
	// round can never reach its n−f quorum (n−allow > f held), so the
	// write hangs exactly like a crashed writer's.
	gate.Arm(1, allow)
	w1, err := reg.Writer(1)
	if err != nil {
		return nil, err
	}
	var tornDone atomic.Bool
	tornErr := make(chan error, 1)
	w1.StartWrite(ctx, torn, func(err error) {
		tornDone.Store(true)
		tornErr <- err
	})
	// Wait for the stripe to actually tear: all n puts reached the gate
	// (allow passed, the rest parked). On asynchronous lanes the put round
	// trails the collect round.
	select {
	case <-gate.WhenHeld(cfg.N - allow):
	case <-ctx.Done():
		return nil, fmt.Errorf("runner: torn stripe never formed (%d/%d held): %w", gate.Held(), cfg.N-allow, ctx.Err())
	}

	// Phase 3: concurrent readers against the torn stripe.
	var wg sync.WaitGroup
	var wrong, reads atomic.Int64
	readErrs := make(chan error, cfg.Readers)
	for r := 0; r < cfg.Readers; r++ {
		rd := reg.NewReader()
		wg.Add(1)
		go func(rd emulation.Reader) {
			defer wg.Done()
			for op := 0; op < cfg.ReadsPerReader; op++ {
				v, err := rd.Read(ctx)
				if err != nil {
					readErrs <- fmt.Errorf("read against torn stripe: %w", err)
					return
				}
				reads.Add(1)
				if v != stable {
					wrong.Add(1)
				}
			}
		}(rd)
	}
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		return nil, ctxErr(ctx, "torn read", err)
	}
	rep.Reads = int(reads.Load())
	rep.WrongReads = int(wrong.Load())
	rep.HeldOps = gate.Held()
	if tornDone.Load() {
		return nil, fmt.Errorf("runner: torn write completed with %d < %d fragments", allow, reg.DataShards())
	}

	// Phase 4: release the stragglers; the torn write completes late.
	gate.Disarm()
	env.Fabric.ReleaseWhere(func(fabric.PendingOp) bool { return true })
	select {
	case <-ctx.Done():
		return nil, fmt.Errorf("runner: released torn write never completed: %w", ctx.Err())
	case err := <-tornErr:
		if err != nil {
			return nil, fmt.Errorf("runner: released torn write: %w", err)
		}
	}

	// Phase 5: the register moves on.
	if err := w0.Write(ctx, final); err != nil {
		return nil, ctxErr(ctx, "torn final write", err)
	}
	rd := reg.NewReader()
	v, err := rd.Read(ctx)
	if err != nil {
		return nil, ctxErr(ctx, "torn final read", err)
	}
	if v != final {
		return nil, fmt.Errorf("runner: read after release = %d, want %d", v, final)
	}
	rep.Checks = Check(hist)
	return rep, nil
}
