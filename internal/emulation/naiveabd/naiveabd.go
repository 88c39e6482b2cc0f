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
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// store exposes a plain register as a max-store whose write-max is an
// unconditional overwrite (abdcore.Config.WriteOp = OpWrite) — the flaw
// under adversarial asynchrony. A resize seeds it with the same overwrite,
// sound there because the window is frozen: the resize itself never loses a
// value, only the construction's normal operation can.
type store struct {
	obj    types.ObjectID
	server types.ServerID
}

// Server implements abdcore.MaxStore.
func (s *store) Server() types.ServerID { return s.server }

// Objects implements abdcore.MaxStore.
func (s *store) Objects() []types.ObjectID { return []types.ObjectID{s.obj} }

// ReadMax implements abdcore.MaxStore.
func (s *store) ReadMax(buf []rounds.Target) []rounds.Target {
	return append(buf, rounds.Target{Object: s.obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}})
}

// Options configure the baseline.
type Options struct {
	// History receives the high-level operations (optional).
	History *spec.History
}

// New places one plain register on each of 2f+1 servers and returns the
// (unsound) emulated k-register.
func New(fab *fabric.Fabric, k, f int, opts Options) (*abdcore.Register, error) {
	c := fab.Cluster()
	return abdcore.New(abdcore.Config{
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
		WriteOp: baseobj.OpWrite,
		Fabric:  fab,
		History: opts.History,
	})
}
