package layout

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/baseobj"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/types"
)

func mustPlan(t *testing.T, k, f, n int) *Plan {
	t.Helper()
	p, err := NewPlan(k, f, n)
	if err != nil {
		t.Fatalf("NewPlan(%d,%d,%d): %v", k, f, n, err)
	}
	return p
}

func TestFigure1Parameters(t *testing.T) {
	// The paper's Figure 1: n=6, k=5, f=2 -> z=1, y=5, m=5, 25 registers.
	p := mustPlan(t, 5, 2, 6)
	if p.Z != 1 || p.Y != 5 || p.M != 5 {
		t.Fatalf("z,y,m = %d,%d,%d; want 1,5,5", p.Z, p.Y, p.M)
	}
	if p.TotalRegisters() != 25 {
		t.Fatalf("total = %d, want 25", p.TotalRegisters())
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	render := p.Render()
	for _, want := range []string{"k=5", "R0", "R4", "s0", "s5"} {
		if !strings.Contains(render, want) {
			t.Errorf("Render missing %q:\n%s", want, render)
		}
	}
}

func TestOverflowSet(t *testing.T) {
	// k=5, f=2, n=7: z=2, so two full sets of y=7 and an overflow set for
	// the 1 remaining writer of size 1*2+3 = 5.
	p := mustPlan(t, 5, 2, 7)
	if p.Z != 2 || p.M != 3 {
		t.Fatalf("z,m = %d,%d; want 2,3", p.Z, p.M)
	}
	if got := p.SetSizes[2]; got != 5 {
		t.Fatalf("overflow set size = %d, want 5", got)
	}
	upper, err := bounds.RegisterUpper(5, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalRegisters() != upper {
		t.Fatalf("total = %d, want %d", p.TotalRegisters(), upper)
	}
}

// materialize places p's registers on a fresh cluster of p.N servers.
func materialize(t *testing.T, p *Plan) (*cluster.Cluster, [][]types.ObjectID) {
	t.Helper()
	c, err := cluster.New(p.N)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := Materialize(c, p, c.Members())
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return c, sets
}

// setRanges materializes p and returns each set's writer range, failing
// unless every register of a set carries the same one.
func setRanges(t *testing.T, p *Plan) []baseobj.WriterRange {
	t.Helper()
	c, sets := materialize(t, p)
	ranges := make([]baseobj.WriterRange, len(sets))
	for j, set := range sets {
		for idx, obj := range set {
			o, err := c.Object(obj)
			if err != nil {
				t.Fatal(err)
			}
			if idx == 0 {
				ranges[j] = o.Writers()
			} else if o.Writers() != ranges[j] {
				t.Fatalf("set %d: register %d admits %v, register 0 %v", j, idx, o.Writers(), ranges[j])
			}
		}
	}
	return ranges
}

func TestWriterMapping(t *testing.T) {
	p := mustPlan(t, 5, 2, 7) // z = 2
	ranges := setRanges(t, p)
	// Writer w's registers are those of set floor(w/z): exactly that set's
	// range admits w. Writer k belongs to no set.
	wantSet := []int{0, 0, 1, 1, 2, -1}
	for w, want := range wantSet {
		for j, r := range ranges {
			if got := r.Admits(types.ClientID(w)); got != (j == want) {
				t.Errorf("set %d %v admits writer %d: %v, want %v", j, r, w, got, j == want)
			}
		}
	}
}

func TestTheorem6PerServerCounts(t *testing.T) {
	// At n = 2f+1 every server hosts exactly k registers.
	for _, tc := range []struct{ k, f int }{{1, 1}, {4, 1}, {3, 2}, {5, 3}} {
		p := mustPlan(t, tc.k, tc.f, 2*tc.f+1)
		for s, c := range p.PerServerCounts() {
			if c != tc.k {
				t.Errorf("k=%d f=%d: server %d hosts %d, want k=%d", tc.k, tc.f, s, c, tc.k)
			}
		}
	}
}

func TestServerForErrors(t *testing.T) {
	p := mustPlan(t, 2, 1, 3)
	if _, err := p.ServerFor(99, 0); !errors.Is(err, ErrNoSuchSet) {
		t.Errorf("ServerFor bad set err = %v", err)
	}
	if _, err := p.ServerFor(0, 99); err == nil {
		t.Error("ServerFor bad index succeeded")
	}
}

func TestPlanPropertyInvariants(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vs []reflect.Value, rng *rand.Rand) {
			f := 1 + rng.Intn(4)
			k := 1 + rng.Intn(12)
			n := 2*f + 1 + rng.Intn(2*f+k)
			vs[0], vs[1], vs[2] = reflect.ValueOf(k), reflect.ValueOf(f), reflect.ValueOf(n)
		},
	}
	if err := quick.Check(func(k, f, n int) bool {
		p, err := NewPlan(k, f, n)
		if err != nil {
			return false
		}
		if p.Verify() != nil {
			return false
		}
		// The sets' writer ranges tile [0, k) in order — every writer has
		// exactly one set — and every set has between 1 and z writers.
		next := types.ClientID(0)
		for j, r := range setRanges(t, p) {
			writers := int(r.Hi - r.Lo)
			if r.Lo != next || writers < 1 || writers > p.Z {
				return false
			}
			next = r.Hi
			// Theorem 3 set sizing: |R_j| = (#writers)*f + f + 1 for the
			// overflow set, z*f + f + 1 otherwise.
			want := writers*f + f + 1
			if j < p.M-1 {
				want = p.Y
			}
			if p.SetSizes[j] != want {
				return false
			}
		}
		if next != types.ClientID(k) {
			return false
		}
		// Per-server counts sum to the total.
		sum := 0
		for _, c := range p.PerServerCounts() {
			sum += c
		}
		return sum == p.TotalRegisters()
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaterialize(t *testing.T) {
	const k, f, n = 5, 2, 7
	p := mustPlan(t, k, f, n)
	c, sets := materialize(t, p)
	if got := c.ResourceComplexity(); got != p.TotalRegisters() {
		t.Fatalf("cluster objects = %d, want %d", got, p.TotalRegisters())
	}
	// delta agrees with the plan.
	for j, set := range sets {
		if len(set) != p.SetSizes[j] {
			t.Errorf("set %d has %d registers, want %d", j, len(set), p.SetSizes[j])
		}
		for idx, obj := range set {
			want, err := p.ServerFor(j, idx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Delta(obj)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("set %d reg %d on server %d, want %d", j, idx, got, want)
			}
		}
	}
	// Writer-set enforcement: a writer of set 0 can write set 0 but not
	// set 1, and a foreign client can write nothing.
	set0, set1 := sets[0][0], sets[1][0]
	okInv := baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1}}
	if _, err := c.Apply(set0, 0, okInv); err != nil {
		t.Errorf("writer 0 on own set: %v", err)
	}
	if _, err := c.Apply(set1, 0, okInv); !errors.Is(err, baseobj.ErrUnauthorizedWriter) {
		t.Errorf("writer 0 on foreign set err = %v, want ErrUnauthorizedWriter", err)
	}
	if _, err := c.Apply(set0, 1000, okInv); !errors.Is(err, baseobj.ErrUnauthorizedWriter) {
		t.Errorf("foreign client err = %v, want ErrUnauthorizedWriter", err)
	}
	// At the range boundaries: every register of R_j accepts R_j's last
	// writer and refuses the first writer of R_{j+1} (k for the last set).
	for j, set := range sets {
		next := types.ClientID(min((j+1)*p.Z, k))
		last := next - 1
		for idx, obj := range set {
			if _, err := c.Apply(obj, last, okInv); err != nil {
				t.Errorf("set %d reg %d refused its last writer %d: %v", j, idx, last, err)
			}
			if _, err := c.Apply(obj, next, okInv); !errors.Is(err, baseobj.ErrUnauthorizedWriter) {
				t.Errorf("set %d reg %d writer %d err = %v, want ErrUnauthorizedWriter", j, idx, next, err)
			}
		}
	}
}

// TestMaterializeOnMembers: plan server i is the i-th listed member, so a
// layout lands on the servers it is given — here the upper four of six.
func TestMaterializeOnMembers(t *testing.T) {
	p := mustPlan(t, 2, 1, 4)
	c, err := cluster.New(6)
	if err != nil {
		t.Fatal(err)
	}
	members := c.Members()[2:]
	sets, err := Materialize(c, p, members)
	if err != nil {
		t.Fatal(err)
	}
	for j, set := range sets {
		for idx, obj := range set {
			i, _ := p.ServerFor(j, idx)
			if got, err := c.Delta(obj); err != nil || got != members[i] {
				t.Errorf("set %d reg %d on server %d (%v), want %d", j, idx, got, err, members[i])
			}
		}
	}
}

func TestMaterializeClusterSizeMismatch(t *testing.T) {
	p := mustPlan(t, 2, 1, 4)
	c, err := cluster.New(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(c, p, c.Members()); err == nil {
		t.Fatal("Materialize with wrong member count succeeded")
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 1, 3); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewPlan(1, 1, 2); !errors.Is(err, bounds.ErrTooFewServers) {
		t.Errorf("n<2f+1 err = %v", err)
	}
}
