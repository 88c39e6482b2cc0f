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
	"fmt"

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
	fab    *fabric.Fabric
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

// ReadTarget implements rounds.DirectReader.
func (s *store) ReadTarget() rounds.Target {
	return rounds.Target{Object: s.obj, Inv: baseobj.Invocation{Op: baseobj.OpRead}}
}

// WriteTarget implements rounds.DirectWriter: the unconditional overwrite.
func (s *store) WriteTarget(v types.TSValue) rounds.Target {
	return rounds.Target{Object: s.obj, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: v}}
}

// storeReshaper re-places plain-register stores across a view resize. The
// seed is an unconditional overwrite of the folded maximum — faithful to
// the baseline's (flawed) write-max, and sound here because the window is
// frozen: the resize itself never loses a value, only the construction's
// normal operation can.
type storeReshaper struct {
	fab *fabric.Fabric
}

var _ quorumreg.StoreReshaper = (*storeReshaper)(nil)

func (sr *storeReshaper) StoreObjects(s abdcore.MaxStore) []types.ObjectID {
	return []types.ObjectID{s.(*store).obj}
}

func (sr *storeReshaper) NewStore(rs *fabric.Reshaper, server types.ServerID, m types.TSValue) (abdcore.MaxStore, int, error) {
	obj, err := sr.fab.Cluster().PlaceRegister(server)
	if err != nil {
		return nil, 0, err
	}
	st := &store{fab: sr.fab, obj: obj, server: server}
	if err := sr.ReseedStore(rs, st, m); err != nil {
		return nil, 0, err
	}
	return st, 1, nil
}

func (sr *storeReshaper) ReseedStore(rs *fabric.Reshaper, s abdcore.MaxStore, m types.TSValue) error {
	if !types.ZeroTSValue.Less(m) {
		return nil
	}
	_, err := rs.Apply(s.(*store).obj, baseobj.Invocation{Op: baseobj.OpWrite, Arg: m})
	return err
}

// Options configure the baseline.
type Options struct {
	// History receives the high-level operations (optional).
	History *spec.History
	// Servers optionally pins the 2f+1 hosting servers.
	Servers []types.ServerID
}

// New places one plain register on each of 2f+1 servers and returns the
// (unsound) emulated k-register.
func New(fab *fabric.Fabric, k, f int, opts Options) (*quorumreg.Register, error) {
	if f <= 0 {
		return nil, fmt.Errorf("naiveabd: f must be positive, got %d", f)
	}
	servers := opts.Servers
	if servers == nil {
		for s := 0; s < 2*f+1; s++ {
			servers = append(servers, types.ServerID(s))
		}
	}
	if len(servers) != 2*f+1 {
		return nil, fmt.Errorf("naiveabd: need exactly 2f+1=%d servers, got %d", 2*f+1, len(servers))
	}
	c := fab.Cluster()
	stores := make([]abdcore.MaxStore, 0, len(servers))
	for _, server := range servers {
		obj, err := c.PlaceRegister(server)
		if err != nil {
			return nil, fmt.Errorf("naiveabd: placing register: %w", err)
		}
		stores = append(stores, &store{fab: fab, obj: obj, server: server})
	}
	return quorumreg.New(quorumreg.Config{
		Name:      "naive-abd",
		K:         k,
		F:         f,
		Stores:    stores,
		Fabric:    fab,
		Resources: len(stores),
		History:   opts.History,
		Reshaper:  &storeReshaper{fab: fab},
	})
}
