// Package faults injects server crashes into experiments: up to f servers
// may crash, and the emulations must stay correct (the paper's
// f-tolerance).
package faults

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/types"
)

// Crash is a scheduled server crash.
type Crash struct {
	// AfterOp crashes the server once this many high-level operations
	// have completed.
	AfterOp int
	// Server is the victim.
	Server types.ServerID
}

// Plan is a crash schedule. The zero value injects nothing.
type Plan struct {
	crashes []Crash
	applied int
}

// NewPlan creates a schedule from the given crashes, ordered by AfterOp.
func NewPlan(crashes ...Crash) *Plan {
	p := &Plan{crashes: make([]Crash, len(crashes))}
	copy(p.crashes, crashes)
	sort.SliceStable(p.crashes, func(i, j int) bool { return p.crashes[i].AfterOp < p.crashes[j].AfterOp })
	return p
}

// Validate checks the schedule against a failure threshold.
func (p *Plan) Validate(f, n int) error {
	if len(p.crashes) > f {
		return fmt.Errorf("faults: %d crashes exceed failure threshold f=%d", len(p.crashes), f)
	}
	seen := make(map[types.ServerID]struct{}, len(p.crashes))
	for _, c := range p.crashes {
		if int(c.Server) < 0 || int(c.Server) >= n {
			return fmt.Errorf("faults: server %d out of range (n=%d)", c.Server, n)
		}
		if _, dup := seen[c.Server]; dup {
			return fmt.Errorf("faults: duplicate crash for server %d", c.Server)
		}
		seen[c.Server] = struct{}{}
	}
	return nil
}

// Step fires every crash due after completedOps operations. It returns the
// servers crashed at this step.
func (p *Plan) Step(fab *fabric.Fabric, completedOps int) ([]types.ServerID, error) {
	var fired []types.ServerID
	for p.applied < len(p.crashes) && p.crashes[p.applied].AfterOp <= completedOps {
		s := p.crashes[p.applied].Server
		if err := fab.Crash(s); err != nil {
			return fired, fmt.Errorf("faults: crashing server %d: %w", s, err)
		}
		fired = append(fired, s)
		p.applied++
	}
	return fired, nil
}

// Remaining returns how many crashes have not fired yet.
func (p *Plan) Remaining() int { return len(p.crashes) - p.applied }
