//go:build !race

package emulation_test

import (
	"context"
	"testing"

	"repro/internal/runner"
	"repro/internal/types"
)

// TestRoundAllocsCeiling pins what a quorum round costs the allocator. An
// abd-max write and read on the in-process lane are three rounds (collect,
// push; collect) and run to completion inline, so everything AllocsPerRun
// counts is per-op chain state: the history's two pending-op records, the
// handles' two completion closures, and the four reducers and plans the
// construction closes over. The rounds themselves — fold, op batch, call
// slab, routes — come recycled from the pool and must add nothing; before
// they did, the same pair cost 32. The file is excluded under -race, where
// sync.Pool drops items on purpose.
func TestRoundAllocsCeiling(t *testing.T) {
	const ceiling = 8
	env, err := runner.NewEnv(runner.ChaosServers(runner.KindABDMax), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Fabric.Close()
	reg, hist, err := runner.Build(runner.KindABDMax, env.Fabric, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	hist.SetDiscard(true) // as the sharded store runs it: no history growth in the count
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	r := reg.NewReader()
	ctx := context.Background()
	// The completion callbacks are built once, outside the measured pair, so
	// the count holds nothing of the test's own.
	var v types.Value
	completed := 0
	writeDone := func(err error) {
		if err != nil {
			t.Errorf("write %d: %v", v, err)
		}
		completed++
	}
	readDone := func(got types.Value, err error) {
		if err != nil || got != v {
			t.Errorf("read = %d, %v; want %d", got, err, v)
		}
		completed++
	}
	pair := func() {
		v++
		w.StartWrite(ctx, v, writeDone)
		r.StartRead(ctx, readDone)
	}
	pair() // warm the pool and the route table
	if got := testing.AllocsPerRun(1000, pair); got > ceiling {
		t.Fatalf("abd-max write+read pair allocates %.1f objects, ceiling %d: a round is allocating again", got, ceiling)
	} else {
		t.Logf("abd-max write+read pair: %.1f allocations", got)
	}
	if completed != 2*1002 {
		t.Fatalf("%d operations completed inline on the in-process lane, want %d", completed, 2*1002)
	}
}
