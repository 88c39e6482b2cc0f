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
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/types"
)

// New places one plain register on each of 2f+1 servers, f being the
// fabric's view's, and returns the (unsound) emulated k-register. Each store
// is its one plain register (Config.Place), whose one-op write-max is an
// unconditional overwrite (OpWrite) — the flaw under adversarial asynchrony. A
// resize seeds it with the same overwrite, sound there because the window is
// frozen: the resize itself never loses a value, only the construction's
// normal operation can. Reads never write (opts.Atomic is rejected) and
// writes carry timestamps only (opts.ValueSize is ignored).
func New(fab *fabric.Fabric, k int, opts emulation.Options) (*abdcore.Register, error) {
	if err := opts.RegularOnly("naive-abd"); err != nil {
		return nil, err
	}
	return abdcore.New(abdcore.Config{
		Name:   "naive-abd",
		K:      k,
		Fabric: fab,
		Place:  place,
	})
}

// place is the store recipe: one unrestricted plain register.
func place(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
	obj, err := c.PlaceRegister(server, baseobj.WriterRange{})
	if err != nil {
		return objs, err
	}
	return append(objs, obj), nil
}
