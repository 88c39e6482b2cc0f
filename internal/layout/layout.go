// Package layout builds the register placement of the paper's upper-bound
// construction (Section 3.3, Algorithm 2, Figure 1).
//
// Given k writers, failure threshold f, and n >= 2f+1 servers, it creates
//
//	z = floor((n-(f+1))/f)            writers per register set
//	y = z*f + f + 1                   registers per full set
//	m = ceil(k/z)                     register sets R_0 .. R_{m-1}
//
// where the last set is an overflow set of (k mod z)*f + f + 1 registers if
// z does not divide k. Sets are pairwise disjoint, every register of a set
// lives on a distinct server (|delta(R_i)| = |R_i|), and writer w is mapped
// to set floor(w/z): R_j's registers admit exactly the client-ID range
// [j*z, min((j+1)*z, k)). A writer of R_j waits for |R_j|-f
// acknowledgements and a collect for complete scans of all but f of the
// servers hosting registers; package regemu derives both.
package layout

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/baseobj"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/types"
)

// ErrNoSuchSet is returned for set indices outside [0, m).
var ErrNoSuchSet = errors.New("layout: no such register set")

// Plan is the abstract placement: set sizes, writer mapping, and the
// register -> server assignment, independent of any concrete cluster.
type Plan struct {
	// K, F, N are the emulation parameters.
	K, F, N int
	// Z, Y, M are the derived construction parameters.
	Z, Y, M int
	// SetSizes[j] is |R_j|.
	SetSizes []int
}

// NewPlan computes the register-set plan for (k, f, n).
func NewPlan(k, f, n int) (*Plan, error) {
	if err := bounds.Validate(k, f, n); err != nil {
		return nil, err
	}
	z, err := bounds.Z(f, n)
	if err != nil {
		return nil, err
	}
	y, err := bounds.Y(f, n)
	if err != nil {
		return nil, err
	}
	m, err := bounds.NumSets(k, f, n)
	if err != nil {
		return nil, err
	}
	last, err := bounds.OverflowSetSize(k, f, n)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, m)
	for j := range sizes {
		sizes[j] = y
	}
	sizes[m-1] = last
	return &Plan{K: k, F: f, N: n, Z: z, Y: y, M: m, SetSizes: sizes}, nil
}

// TotalRegisters returns the total number of base registers the plan uses;
// it always equals bounds.RegisterUpper(k, f, n).
func (p *Plan) TotalRegisters() int {
	total := 0
	for _, sz := range p.SetSizes {
		total += sz
	}
	return total
}

// ServerFor returns the server hosting register idx of set j. Registers of
// a set land on consecutive servers starting at a per-set rotation offset,
// so |delta(R_j)| = |R_j| and load spreads across the cluster.
func (p *Plan) ServerFor(j, idx int) (types.ServerID, error) {
	if j < 0 || j >= p.M {
		return 0, fmt.Errorf("%w: %d (m=%d)", ErrNoSuchSet, j, p.M)
	}
	if idx < 0 || idx >= p.SetSizes[j] {
		return 0, fmt.Errorf("layout: register index %d out of range for set %d (size %d)", idx, j, p.SetSizes[j])
	}
	offset := (j * p.Y) % p.N
	return types.ServerID((offset + idx) % p.N), nil
}

// PerServerCounts returns how many registers the plan places on each
// server.
func (p *Plan) PerServerCounts() []int {
	counts := make([]int, p.N)
	for j, sz := range p.SetSizes {
		for idx := 0; idx < sz; idx++ {
			s, _ := p.ServerFor(j, idx)
			counts[s]++
		}
	}
	return counts
}

// Verify checks the structural invariants the construction relies on:
// every set size is between 2f+1 and n, set sizes sum to the Theorem 3
// formula, and each set maps its registers to distinct servers.
func (p *Plan) Verify() error {
	upper, err := bounds.RegisterUpper(p.K, p.F, p.N)
	if err != nil {
		return err
	}
	if got := p.TotalRegisters(); got != upper {
		return fmt.Errorf("layout: total registers %d, want %d", got, upper)
	}
	for j, sz := range p.SetSizes {
		if sz < 2*p.F+1 || sz > p.N {
			return fmt.Errorf("layout: set %d size %d outside [2f+1=%d, n=%d]", j, sz, 2*p.F+1, p.N)
		}
		seen := make(map[types.ServerID]struct{}, sz)
		for idx := 0; idx < sz; idx++ {
			s, err := p.ServerFor(j, idx)
			if err != nil {
				return err
			}
			if _, dup := seen[s]; dup {
				return fmt.Errorf("layout: set %d maps two registers to server %d", j, s)
			}
			seen[s] = struct{}{}
		}
	}
	return nil
}

// Render draws the plan as a server-by-set grid in the spirit of Figure 1:
// one line per server listing the sets with a register on it.
func (p *Plan) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "layout k=%d f=%d n=%d: z=%d y=%d m=%d total=%d\n",
		p.K, p.F, p.N, p.Z, p.Y, p.M, p.TotalRegisters())
	onServer := make([][]int, p.N)
	for j, sz := range p.SetSizes {
		for idx := 0; idx < sz; idx++ {
			s, _ := p.ServerFor(j, idx)
			onServer[s] = append(onServer[s], j)
		}
	}
	for s, sets := range onServer {
		fmt.Fprintf(&b, "  s%-2d:", s)
		for _, j := range sets {
			fmt.Fprintf(&b, " R%d", j)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Materialize creates the plan's registers on the cluster, plan server i
// being members[i] — the view's members, or inside a transition's frozen
// window the members it activates — and returns the sets: sets[j] lists the
// object IDs of R_j in server-assignment order. Each register of set j is
// restricted to the writers of set j, the range [j*z, min((j+1)*z, k)) (the
// z-writer registers of Theorem 3), so any write by a foreign client is a
// detectable protocol violation. A refused placement leaves no register
// behind: it removes the ones it placed.
func Materialize(c *cluster.Cluster, p *Plan, members []types.ServerID) (_ [][]types.ObjectID, err error) {
	if len(members) != p.N {
		return nil, fmt.Errorf("layout: %d members, plan wants %d", len(members), p.N)
	}
	sets := make([][]types.ObjectID, p.M)
	defer func() {
		if err != nil {
			for _, set := range sets {
				for _, obj := range set {
					c.RemoveObject(obj)
				}
			}
		}
	}()
	for j, sz := range p.SetSizes {
		writers := baseobj.WriterRange{Lo: types.ClientID(j * p.Z), Hi: types.ClientID(min((j+1)*p.Z, p.K))}
		sets[j] = make([]types.ObjectID, 0, sz)
		for idx := 0; idx < sz; idx++ {
			i, err := p.ServerFor(j, idx)
			if err != nil {
				return nil, err
			}
			obj, err := c.PlaceRegister(members[i], writers)
			if err != nil {
				return nil, err
			}
			sets[j] = append(sets[j], obj)
		}
	}
	return sets, nil
}
