// Maxregister: Algorithm 1 from Appendix B — a wait-free atomic
// max-register emulated from a single CAS object — and the time-complexity
// tradeoff the paper's discussion highlights: space drops to one object,
// but contended write-max calls retry.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/casmax"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

func main() {
	const (
		k = 8
		f = 1
		n = 3
	)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	c, err := cluster.New(n)
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	// The yield gate models response latency, widening the interleaving
	// windows so contention actually manifests.
	fab := fabric.New(c, fabric.WithGate(&fabric.YieldGate{}))

	// 2f+1 CAS cells, each hosting one Algorithm 1 max-register; f is the
	// view's.
	c.SetF(f)
	reg, metrics, err := casmax.New(fab, k, emulation.Options{})
	if err != nil {
		log.Fatalf("casmax: %v", err)
	}
	fmt.Printf("emulating a %d-writer register from %d CAS objects (2f+1 = %d)\n",
		k, reg.ResourceComplexity(), 2*f+1)

	// Sequential phase: no contention, so write-max needs one CAS
	// attempt per store.
	for i := 0; i < k; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			log.Fatalf("writer %d: %v", i, err)
		}
		if err := w.Write(ctx, types.Value(10+i)); err != nil {
			log.Fatalf("write: %v", err)
		}
	}
	fmt.Printf("sequential: %d write-max calls, %d CAS attempts, %d retries\n",
		metrics.WriteMaxCalls.Load(), metrics.CASAttempts.Load(), metrics.Retries())

	// Concurrent phase: k writers race. A CAS fails when another writer's
	// landed first or when its expected value, the collect's maximum, went
	// stale, and the Algorithm 1 loop retries from the value the failed CAS
	// returned — the time cost of the single-object space optimum.
	before := metrics.Retries()
	done := make(chan error, k)
	for i := 0; i < k; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			log.Fatalf("writer %d: %v", i, err)
		}
		go func(i int, w interface {
			Write(context.Context, types.Value) error
		}) {
			var err error
			for round := 0; round < 500 && err == nil; round++ {
				err = w.Write(ctx, types.Value(1000+round*10+i))
			}
			done <- err
		}(i, w)
	}
	for i := 0; i < k; i++ {
		if err := <-done; err != nil {
			log.Fatalf("concurrent write: %v", err)
		}
	}
	fmt.Printf("concurrent: %d additional retries under contention\n", metrics.Retries()-before)

	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	fmt.Printf("final read: %d\n", got)

	// The concurrent history is not write-sequential, but every read
	// must still return a written value.
	if err := spec.CheckReadValidity(reg.History().Snapshot(), types.InitialValue); err != nil {
		log.Fatalf("read validity: %v", err)
	}
	fmt.Println("read validity holds across the concurrent run")
}
