// Package naiveabd is the deliberately under-provisioned baseline of the
// lower-bound experiments: the ABD pattern run directly over one plain
// read/write register per server (2f+1 base registers in total — far below
// Theorem 1's kf + f + 1 minimum for k > 1).
//
// With plain registers, the per-server "write-max" degenerates into an
// unconditional overwrite. Under benign schedules the protocol looks
// correct; under the paper's covering adversary a delayed old write,
// released after a newer write completed, erases the newer value, and a
// subsequent read violates WS-Safety (the separation between plain
// registers and max-registers/CAS in Table 1). Experiment E6 drives exactly
// that schedule against this package and against abdmax, and only this
// package fails.
package naiveabd

import (
	"repro/internal/baseobj"
	"repro/internal/emulation/abdcore"
	"repro/internal/emulation/quorumreg"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// store exposes a plain register through the max-store interface: write-max
// becomes a lossy overwrite — the flaw under adversarial asynchrony. Both
// operations are single low-level ops, so the store is direct and the
// engine batch-scatters its rounds.
type store struct {
	obj    types.ObjectID
	server types.ServerID
}

// Compile-time interface compliance checks.
var (
	_ abdcore.MaxStore    = (*store)(nil)
	_ rounds.DirectReader = (*store)(nil)
	_ rounds.DirectWriter = (*store)(nil)
)

// Server implements abdcore.MaxStore.
func (s *store) Server() types.ServerID { return s.server }

// Objects implements abdcore.MaxStore.
func (s *store) Objects() []types.ObjectID { return []types.ObjectID{s.obj} }

// ReadTarget implements rounds.DirectReader.
func (s *store) ReadTarget() rounds.Target {
	return rounds.Target{Object: s.obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}
}

// WriteTarget implements rounds.DirectWriter: the unconditional overwrite.
func (s *store) WriteTarget(v types.TSValue) rounds.Target {
	return rounds.Target{Object: s.obj, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: v}}
}

// Seed implements abdcore.MaxStore with an unconditional overwrite —
// faithful to the baseline's (flawed) write-max, and sound here because the
// window is frozen: the resize itself never loses a value, only the
// construction's normal operation can.
func (s *store) Seed(rs *fabric.Reshaper, m types.TSValue) error {
	_, err := rs.Apply(s.obj, s.WriteTarget(m).Inv)
	return err
}

// Options configure the baseline.
type Options struct {
	// History receives the high-level operations (optional).
	History *spec.History
}

// New places one plain register on each of 2f+1 servers and returns the
// (unsound) emulated k-register.
func New(fab *fabric.Fabric, k, f int, opts Options) (*quorumreg.Register, error) {
	c := fab.Cluster()
	return quorumreg.New(quorumreg.Config{
		Name: "naive-abd",
		K:    k,
		F:    f,
		Place: func(server types.ServerID) (abdcore.MaxStore, error) {
			obj, err := c.PlaceRegister(server)
			if err != nil {
				return nil, err
			}
			return &store{obj: obj, server: server}, nil
		},
		Fabric:  fab,
		History: opts.History,
	})
}
