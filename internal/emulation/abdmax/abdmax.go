// Package abdmax implements the Table 1 "max-register" upper bound: an
// f-tolerant, wait-free, WS-Regular k-register from 2f+1 max-register base
// objects, one per server.
//
// This is multi-writer ABD [5, 22, 34, 29] with the per-server code
// factored into the write-max / read-max primitives, exactly as the paper
// observes in Section 1: the space cost is 2f+1 regardless of the number of
// writers k and the number of available servers n. The max-register's
// monotonicity is what defeats the covering adversary — a delayed old
// write-max can never erase a newer value.
package abdmax

import (
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/abdcore"
	"repro/internal/fabric"
	"repro/internal/types"
)

// New places one max-register on each of 2f+1 servers of the fabric's
// cluster, f being its view's, and returns the emulated k-register. Each
// store is its one max-register (Config.Place), whose write-max is one
// low-level op too, so the register scatters whole rounds over all stores in
// one TriggerBatch. A positive opts.ValueSize makes every write carry a
// payload of that many bytes into each replica — the replicated
// bytes-per-server baseline the coded construction is measured against: each
// of the 2f+1 servers stores the full payload, where the coded construction
// stores a 1/kData fragment. A resize seeds a store with a write-max of the
// folded maximum, whose monotonicity makes re-seeding a survivor idempotent.
func New(fab *fabric.Fabric, k int, opts emulation.Options) (*abdcore.Register, error) {
	return abdcore.New(abdcore.Config{
		Name:    "abd-max",
		K:       k,
		Fabric:  fab,
		Options: opts,
		Place:   place,
	})
}

// place is the store recipe: one max-register.
func place(c *cluster.Cluster, server types.ServerID, objs []types.ObjectID) ([]types.ObjectID, error) {
	obj, err := c.PlaceMaxRegister(server)
	if err != nil {
		return objs, err
	}
	return append(objs, obj), nil
}
