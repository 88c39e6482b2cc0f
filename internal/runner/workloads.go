package runner

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/emulation"
	"repro/internal/spec"
	"repro/internal/types"
)

// ValueGen hands out cluster-unique write values (the checkers require
// them). Values encode the writer in the high bits and a per-writer sequence
// number in the low bits, so two clients can never collide.
type ValueGen struct {
	mu   sync.Mutex
	next map[types.ClientID]int64
}

// NewValueGen creates a generator.
func NewValueGen() *ValueGen {
	return &ValueGen{next: make(map[types.ClientID]int64)}
}

// Next returns a fresh unique value for the given client.
func (g *ValueGen) Next(client types.ClientID) types.Value {
	g.mu.Lock()
	g.next[client]++
	seq := g.next[client]
	g.mu.Unlock()
	return types.Value((int64(client)+1)<<32 | seq)
}

// ConcurrentReport is the outcome of a concurrent stress run.
type ConcurrentReport struct {
	Kind    Kind
	K, F, N int
	Writes  int
	Reads   int
	// ReadValidity is nil when every read returned v0 or a written
	// value (the sanity condition that holds for every construction even
	// in write-concurrent runs).
	ReadValidity error
	// Linearizable is the atomicity verdict; it is only populated when
	// requested (atomic constructions, small histories) and nil
	// otherwise.
	Linearizable error
	// LinearizabilityChecked reports whether Linearizable is meaningful.
	LinearizabilityChecked bool
}

// ConcurrentConfig configures a concurrent stress run.
type ConcurrentConfig struct {
	Kind            Kind
	K, F, N         int
	WritesPerWriter int
	Readers         int
	ReadsPerReader  int
	// Atomic builds the construction with read write-back and checks
	// linearizability (only KindABDMax / KindCASMax).
	Atomic bool
}

// RunConcurrent runs every writer and reader in its own goroutine against a
// benign environment and checks the resulting history.
func RunConcurrent(ctx context.Context, cfg ConcurrentConfig) (*ConcurrentReport, error) {
	env, err := NewEnv(cfg.N, nil)
	if err != nil {
		return nil, err
	}
	reg, hist, err := BuildWith(cfg.Kind, env.Fabric, cfg.K, cfg.F, BuildOpts{Atomic: cfg.Atomic})
	if err != nil {
		return nil, err
	}
	values := NewValueGen()

	var wg sync.WaitGroup
	errs := make(chan error, cfg.K+cfg.Readers)
	for i := 0; i < cfg.K; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, w *emulation.Writer) {
			defer wg.Done()
			for op := 0; op < cfg.WritesPerWriter; op++ {
				if err := w.Write(ctx, values.Next(types.ClientID(i))); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", i, op, err)
					return
				}
			}
		}(i, w)
	}
	for r := 0; r < cfg.Readers; r++ {
		rd := reg.NewReader()
		wg.Add(1)
		go func(r int, rd *emulation.Reader) {
			defer wg.Done()
			for op := 0; op < cfg.ReadsPerReader; op++ {
				if _, err := rd.Read(ctx); err != nil {
					errs <- fmt.Errorf("reader %d op %d: %w", r, op, err)
					return
				}
			}
		}(r, rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, ctxErr(ctx, "concurrent run", err)
	}

	ops := hist.Snapshot()
	rep := &ConcurrentReport{
		Kind:         cfg.Kind,
		K:            cfg.K,
		F:            cfg.F,
		N:            cfg.N,
		Writes:       cfg.K * cfg.WritesPerWriter,
		Reads:        cfg.Readers * cfg.ReadsPerReader,
		ReadValidity: spec.CheckReadValidity(ops, types.InitialValue),
	}
	if cfg.Atomic && len(ops) <= 64 {
		rep.Linearizable = spec.CheckLinearizable(ops, types.InitialValue)
		rep.LinearizabilityChecked = true
	}
	return rep, nil
}
