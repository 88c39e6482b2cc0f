// Quickstart: build the paper's main construction (Algorithm 2) on a small
// fault-prone cluster, write from several writers, read it back, and print
// the space accounting next to the Table 1 formulas.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/regemu"
	"repro/internal/fabric"
	"repro/internal/types"
)

func main() {
	const (
		k = 3 // writers
		f = 1 // tolerated server crashes
		n = 4 // servers
	)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// A cluster of n fault-prone servers and the asynchronous fabric
	// connecting clients to the base objects stored on them.
	c, err := cluster.New(n)
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	fab := fabric.New(c)

	// The emulated f-tolerant k-register from plain read/write registers;
	// the construction reads f off the view.
	c.SetF(f)
	reg, err := regemu.New(fab, k, emulation.Options{})
	if err != nil {
		log.Fatalf("regemu: %v", err)
	}

	// Each of the k writers writes once.
	for i := 0; i < k; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			log.Fatalf("writer %d: %v", i, err)
		}
		v := types.Value(1000 + i)
		if err := w.Write(ctx, v); err != nil {
			log.Fatalf("write %d: %v", i, err)
		}
		fmt.Printf("writer %d wrote %d\n", i, v)
	}

	// Any number of readers may read; none of them ever writes.
	got, err := reg.NewReader().Read(ctx)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	fmt.Printf("reader saw %d\n", got)

	// Space accounting: the construction uses exactly the Theorem 3 count.
	upper, err := bounds.RegisterUpper(k, f, n)
	if err != nil {
		log.Fatalf("bounds: %v", err)
	}
	lower, err := bounds.RegisterLower(k, f, n)
	if err != nil {
		log.Fatalf("bounds: %v", err)
	}
	fmt.Printf("base registers used: %d (paper bounds: lower %d, upper %d)\n",
		reg.ResourceComplexity(), lower, upper)
	fmt.Printf("per-server register counts: %v\n", c.PerServerCounts())
}
