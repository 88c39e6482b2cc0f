package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/emulation"
	"repro/internal/fabric"
)

// TornConfig configures a torn-stripe run against the coded construction.
type TornConfig struct {
	// F and N shape the register (kData = n−2f).
	F, N int
	// AllowFrags is how many fragments of the attacked write land
	// (default kData−1, the maximal torn stripe).
	AllowFrags int
	// ValueSize is the payload size (default coded.DefaultValueSize).
	ValueSize int
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

// The torn stripe's readers: tornReaders concurrent readers race it, each
// reading tornReadsPerReader times.
const tornReaders, tornReadsPerReader = 3, 4

// RunTorn drives the torn-stripe attack as a scripted run with concurrent
// readers: writer 0 completes a write; a hold on writer 1's mutating ops on
// servers AllowFrags..n-1 tears its next write after AllowFrags fragments;
// concurrent readers must all return writer 0's value with zero errors (the
// torn stripe is unreconstructible and must be invisible); then the
// stragglers are released, the torn write completes late, and a final
// write/read pair proves the register moved on. The history must stay
// WS-Regular throughout.
func RunTorn(ctx context.Context, cfg TornConfig) (*TornReport, error) {
	laneOpts, err := laneOptions(cfg.Lane, cfg.LaneMaker, cfg.Seed)
	if err != nil {
		return nil, err
	}
	const stable, torn, final = 100, 200, 300
	r, err := newRun(&Script{Name: "torn-stripe", Kind: KindCoded, K: 2, F: cfg.F, N: cfg.N}, BuildOpts{ValueSize: cfg.ValueSize}, laneOpts...)
	if err != nil {
		return nil, err
	}
	defer r.env.Fabric.Close()
	reg, kData := r.reg, cfg.N-2*cfg.F
	allow := cfg.AllowFrags
	if allow == 0 {
		allow = kData - 1
	}
	if allow >= kData {
		return nil, fmt.Errorf("runner: torn stripe needs allowed fragments < kData=%d, got %d (the stripe would reconstruct)", kData, allow)
	}
	rep := &TornReport{Cfg: cfg, DataShards: kData}
	parked := make([]int, cfg.N-allow)
	for i := range parked {
		parked[i] = allow + i
	}

	// Phase 1: a completed write the readers must keep seeing. Phase 2: tear
	// writer 1's write after `allow` fragments. The put round can never
	// reach its n−f quorum (n−allow > f held), so the write hangs exactly
	// like a crashed writer's.
	if err := r.do(ctx, writeStep(0, stable), holdWrites(1, parked, 0)); err != nil {
		return nil, err
	}
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
	case <-r.gate.WhenHeld(len(parked)):
	case <-ctx.Done():
		return nil, fmt.Errorf("runner: torn stripe never formed (%d/%d held): %w", r.gate.Held(), len(parked), ctx.Err())
	}

	// Phase 3: concurrent readers against the torn stripe.
	var wg sync.WaitGroup
	var wrong, reads atomic.Int64
	readErrs := make(chan error, tornReaders)
	for range tornReaders {
		rd := reg.NewReader()
		wg.Add(1)
		go func(rd *emulation.Reader) {
			defer wg.Done()
			for range tornReadsPerReader {
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
	rep.HeldOps = r.gate.Held()
	if tornDone.Load() {
		return nil, fmt.Errorf("runner: torn write completed with %d < %d fragments", allow, kData)
	}

	// Phase 4: release the stragglers; the torn write completes late.
	if err := r.do(ctx, clearStep, Step{Release: &ReleaseStep{}}); err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, fmt.Errorf("runner: released torn write never completed: %w", ctx.Err())
	case err := <-tornErr:
		if err != nil {
			return nil, fmt.Errorf("runner: released torn write: %w", err)
		}
	}

	// Phase 5: the register moves on.
	if err := r.do(ctx, writeStep(0, final), readStep); err != nil {
		return nil, err
	}
	if v := r.res.Reads[0]; v != final {
		return nil, fmt.Errorf("runner: read after release = %d, want %d", v, final)
	}
	rep.Checks = r.finish().Checks
	return rep, nil
}
