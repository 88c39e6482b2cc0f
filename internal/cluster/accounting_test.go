package cluster

import (
	"reflect"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// TestAccountingAcrossMembershipChanges drives one cluster through a
// crash → placement → add/remove sequence and pins the resource-complexity
// accounting after every step: ResourceComplexity is the paper's
// |delta^-1(S)|, PerServerCounts its per-server split (indexed by server
// ID over the whole never-reused ID space), Crashes counts only crashes —
// a departure or removal is not one — and the view tracks membership while
// N() tracks the ID space.
func TestAccountingAcrossMembershipChanges(t *testing.T) {
	c := mustCluster(t, 3)
	var r0, m1 types.ObjectID

	type expect struct {
		resource  int
		perServer []int
		crashes   int
		idSpace   int
		viewN     int
	}
	steps := []struct {
		name string
		do   func(t *testing.T)
		want expect
	}{
		{
			name: "fresh cluster",
			do:   func(t *testing.T) {},
			want: expect{0, []int{0, 0, 0}, 0, 3, 3},
		},
		{
			name: "place register on 0",
			do: func(t *testing.T) {
				var err error
				if r0, err = c.PlaceRegister(0, baseobj.WriterRange{}); err != nil {
					t.Fatal(err)
				}
			},
			want: expect{1, []int{1, 0, 0}, 0, 3, 3},
		},
		{
			name: "place max-register on 1",
			do: func(t *testing.T) {
				var err error
				if m1, err = c.PlaceMaxRegister(1); err != nil {
					t.Fatal(err)
				}
			},
			want: expect{2, []int{1, 1, 0}, 0, 3, 3},
		},
		{
			name: "crash 2 keeps it a member",
			do: func(t *testing.T) {
				if err := c.Crash(2); err != nil {
					t.Fatal(err)
				}
			},
			want: expect{2, []int{1, 1, 0}, 1, 3, 3},
		},
		{
			name: "add server 3",
			do: func(t *testing.T) {
				if got := c.AddServer().ID(); got != 3 {
					t.Fatalf("joiner ID = %d, want 3", got)
				}
			},
			want: expect{2, []int{1, 1, 0, 0}, 1, 4, 4},
		},
		{
			name: "move register 0 -> 3",
			do: func(t *testing.T) {
				if err := c.MoveObject(r0, 3, baseobj.State{Val: types.TSValue{TS: 1, Val: 9}}); err != nil {
					t.Fatal(err)
				}
				if s, err := c.Delta(r0); err != nil || s != 3 {
					t.Fatalf("Delta = %d, %v; want 3", s, err)
				}
			},
			want: expect{2, []int{0, 1, 0, 1}, 1, 4, 4},
		},
		{
			name: "remove non-empty server fails",
			do: func(t *testing.T) {
				if err := c.RemoveServer(1); err == nil {
					t.Fatal("RemoveServer(1) succeeded with an object placed")
				}
			},
			want: expect{2, []int{0, 1, 0, 1}, 1, 4, 4},
		},
		{
			name: "move last object off 1, then remove it",
			do: func(t *testing.T) {
				if err := c.MoveObject(m1, 3, baseobj.State{}); err != nil {
					t.Fatal(err)
				}
				if err := c.RemoveServer(1); err != nil {
					t.Fatal(err)
				}
			},
			// Removal shrinks the view, not the ID space: PerServerCounts
			// stays indexed over every ID ever issued.
			want: expect{2, []int{0, 0, 0, 2}, 1, 4, 3},
		},
		{
			name: "remove non-member fails, accounting untouched",
			do: func(t *testing.T) {
				if err := c.RemoveServer(1); err == nil {
					t.Fatal("second RemoveServer(1) succeeded")
				}
			},
			want: expect{2, []int{0, 0, 0, 2}, 1, 4, 3},
		},
	}
	for _, step := range steps {
		step.do(t)
		if t.Failed() {
			t.Fatalf("step %q failed", step.name)
		}
		if got := c.ResourceComplexity(); got != step.want.resource {
			t.Errorf("%s: ResourceComplexity = %d, want %d", step.name, got, step.want.resource)
		}
		if got := c.PerServerCounts(); !reflect.DeepEqual(got, step.want.perServer) {
			t.Errorf("%s: PerServerCounts = %v, want %v", step.name, got, step.want.perServer)
		}
		if got := c.Crashes(); got != step.want.crashes {
			t.Errorf("%s: Crashes = %d, want %d", step.name, got, step.want.crashes)
		}
		if got := c.N(); got != step.want.idSpace {
			t.Errorf("%s: N = %d, want %d", step.name, got, step.want.idSpace)
		}
		if got := c.View().N(); got != step.want.viewN {
			t.Errorf("%s: View().N() = %d, want %d", step.name, got, step.want.viewN)
		}
	}

	// Epoch must have advanced once per membership or placement change that
	// affects routing: add, two moves, remove. Exact count is pinned so
	// accidental extra bumps (which force spurious client re-resolution)
	// show up here.
	if got := c.Epoch(); got != 4 {
		t.Errorf("Epoch = %d, want 4 (add + 2 moves + remove)", got)
	}
}
