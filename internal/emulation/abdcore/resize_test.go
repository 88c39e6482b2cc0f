package abdcore_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/types"
)

// TestResizeThroughPlace takes each quorum construction, built through its
// store recipe, from n=3,f=1 up to n=5,f=2 and back on the in-process lane.
// After every step the register's resource count is exactly the base
// objects the cluster holds — 2f+1 stores' worth, k registers per store for
// aac-max: joiners were placed by the same recipe that built the register,
// dropped stores' objects retired — and the last written value survived.
// With swap set, server 0 is first swapped for a joiner, which keeps n and
// f and so moves server 0's store there without a reshape: the grow that
// follows keeps that store — the same objects, on the joiner — rather than
// taking it for dropped and placing a fresh one beside it.
func TestResizeThroughPlace(t *testing.T) {
	const k = 2
	for _, tc := range []struct {
		kind     runner.Kind
		perStore int
		swap     bool
	}{
		{runner.KindABDMax, 1, false},
		{runner.KindCASMax, 1, false},
		{runner.KindAACMax, k, false},
		{runner.KindNaive, 1, false},
		{runner.KindAACMax, k, true},
	} {
		name := string(tc.kind)
		if tc.swap {
			name += "-swap"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			env, err := runner.NewEnv(3, nil)
			if err != nil {
				t.Fatal(err)
			}
			reg, _, err := runner.BuildWith(tc.kind, env.Fabric, k, 1, runner.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			last := types.InitialValue
			check := func(step string, f int) {
				t.Helper()
				want := (2*f + 1) * tc.perStore
				if got, placed := reg.ResourceComplexity(), env.Cluster.ResourceComplexity(); got != want || placed != want {
					t.Fatalf("%s: register counts %d base objects, cluster holds %d, want %d", step, got, placed, want)
				}
				if reg.F() != f {
					t.Fatalf("%s: f = %d, want %d", step, reg.F(), f)
				}
				if v, err := reg.NewReader().Read(ctx); err != nil || v != last {
					t.Fatalf("%s: read = %d, %v, want %d", step, v, err, last)
				}
				// Alternate writers: aac-max seeds a resize into the last
				// writer's own register.
				last += 10
				w, err := reg.Writer(int(last/10) % k)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Write(ctx, last); err != nil {
					t.Fatalf("%s: write: %v", step, err)
				}
			}
			check("built", 1)
			var moved []types.ObjectID // the swapped store's objects
			var joiner types.ServerID
			if tc.swap {
				moved = env.Cluster.ObjectsOn(0)
				swapped, err := env.Fabric.Resize(ctx, fabric.ResizeSpec{Join: make([]fabric.LaneMaker, 1), Leave: []types.ServerID{0}}, reg.Reshape)
				if err != nil {
					t.Fatalf("swap: %v", err)
				}
				joiner = swapped.Joined[0]
				check("swapped server 0", 1)
			}
			grown, err := env.Fabric.Resize(ctx, fabric.ResizeSpec{Join: make([]fabric.LaneMaker, 2), F: 2}, reg.Reshape)
			if err != nil {
				t.Fatalf("grow: %v", err)
			}
			check("grown to n=5,f=2", 2)
			if tc.swap && !slices.Equal(env.Cluster.ObjectsOn(joiner), moved) {
				t.Fatalf("after the grow the swap's joiner hosts objects %v, want the moved store's %v", env.Cluster.ObjectsOn(joiner), moved)
			}
			// Shrink by the two longest-serving members, so a joiner's store
			// survives.
			if _, err := env.Fabric.Resize(ctx, fabric.ResizeSpec{Leave: env.Cluster.Members()[:2], F: 1}, reg.Reshape); err != nil {
				t.Fatalf("shrink: %v", err)
			}
			check("shrunk to n=3,f=1", 1)
			if got := env.Cluster.Members(); len(got) != 3 || got[1] != grown.Joined[0] || got[2] != grown.Joined[1] {
				t.Fatalf("members after the shrink = %v, want one survivor and joiners %v", got, grown.Joined)
			}
		})
	}
}
