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
	"fmt"

	"repro/internal/baseobj"
	"repro/internal/emulation/abdcore"
	"repro/internal/emulation/quorumreg"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// store is a single max-register base object on one server. Both of its
// operations are single low-level ops, so it is a direct store: the quorum
// engine scatters whole rounds over all stores in one TriggerBatch.
type store struct {
	fab    *fabric.Fabric
	obj    types.ObjectID
	server types.ServerID
	// valueSize, when positive, attaches a payload of that many bytes to
	// every write-max — the replicated baseline of the bytes-per-server
	// axis: each of the 2f+1 servers stores the full payload, where the
	// coded construction stores a 1/kData fragment.
	valueSize int
}

// payload derives the write's payload rider when the store is sized.
func (s *store) payload(v types.TSValue) types.Payload {
	if s.valueSize <= 0 {
		return nil
	}
	return types.PayloadFor(v.Val, s.valueSize)
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
	return rounds.Target{Object: s.obj, Inv: baseobj.Invocation{Op: baseobj.OpReadMax}}
}

// WriteTarget implements rounds.DirectWriter.
func (s *store) WriteTarget(v types.TSValue) rounds.Target {
	return rounds.Target{Object: s.obj, Inv: baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: v, Data: s.payload(v)}}
}

// storeReshaper re-places max-register stores across a view resize: a fresh
// store is one max-register seeded with a write-max of the folded maximum —
// the monotone write-max also makes re-seeding survivors idempotent.
type storeReshaper struct {
	fab       *fabric.Fabric
	valueSize int
}

var _ quorumreg.StoreReshaper = (*storeReshaper)(nil)

func (sr *storeReshaper) StoreObjects(s abdcore.MaxStore) []types.ObjectID {
	return []types.ObjectID{s.(*store).obj}
}

func (sr *storeReshaper) NewStore(rs *fabric.Reshaper, server types.ServerID, m types.TSValue) (abdcore.MaxStore, int, error) {
	obj, err := sr.fab.Cluster().PlaceMaxRegister(server)
	if err != nil {
		return nil, 0, err
	}
	st := &store{fab: sr.fab, obj: obj, server: server, valueSize: sr.valueSize}
	if err := sr.ReseedStore(rs, st, m); err != nil {
		return nil, 0, err
	}
	return st, 1, nil
}

func (sr *storeReshaper) ReseedStore(rs *fabric.Reshaper, s abdcore.MaxStore, m types.TSValue) error {
	if !types.ZeroTSValue.Less(m) {
		return nil
	}
	st := s.(*store)
	_, err := rs.Apply(st.obj, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: m, Data: st.payload(m)})
	return err
}

// Options configure the construction.
type Options struct {
	// History receives the high-level operations (optional).
	History *spec.History
	// ReadWriteBack upgrades reads to the atomic (linearizable) protocol
	// at the cost of readers writing.
	ReadWriteBack bool
	// Servers optionally pins the 2f+1 hosting servers; defaults to
	// servers 0..2f.
	Servers []types.ServerID
	// ValueSize, when positive, makes every write carry a payload of that
	// many bytes into each replica — the replicated bytes-per-server
	// baseline the coded construction is measured against.
	ValueSize int
}

// New places one max-register on each of 2f+1 servers of the fabric's
// cluster and returns the emulated k-register.
func New(fab *fabric.Fabric, k, f int, opts Options) (*quorumreg.Register, error) {
	if f <= 0 {
		return nil, fmt.Errorf("abdmax: f must be positive, got %d", f)
	}
	servers := opts.Servers
	if servers == nil {
		for s := 0; s < 2*f+1; s++ {
			servers = append(servers, types.ServerID(s))
		}
	}
	if len(servers) != 2*f+1 {
		return nil, fmt.Errorf("abdmax: need exactly 2f+1=%d servers, got %d", 2*f+1, len(servers))
	}
	c := fab.Cluster()
	stores := make([]abdcore.MaxStore, 0, len(servers))
	for _, server := range servers {
		obj, err := c.PlaceMaxRegister(server)
		if err != nil {
			return nil, fmt.Errorf("abdmax: placing max-register: %w", err)
		}
		stores = append(stores, &store{fab: fab, obj: obj, server: server, valueSize: opts.ValueSize})
	}
	var engineOpts []abdcore.Option
	if opts.ReadWriteBack {
		engineOpts = append(engineOpts, abdcore.WithReadWriteBack())
	}
	return quorumreg.New(quorumreg.Config{
		Name:       "abd-max",
		K:          k,
		F:          f,
		Stores:     stores,
		Fabric:     fab,
		Resources:  len(stores),
		History:    opts.History,
		EngineOpts: engineOpts,
		Reshaper:   &storeReshaper{fab: fab, valueSize: opts.ValueSize},
	})
}
