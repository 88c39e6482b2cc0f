package adversary

import (
	"math/rand"
	"sync"

	"repro/internal/fabric"
	"repro/internal/types"
)

// Chaos is a seeded randomized environment: its Hold rule holds mutating
// low-level operations with a fixed probability, and it is the run's one
// fault budget. The model gives the adversary one allowance, f: the servers
// it crashed plus the responses it withholds from any one writer never
// exceed f, or that writer's next (n−f)-quorum round waits for ever. Chaos
// books both under one mutex — every hold it grants, per writer, and every
// crash it makes (Crash) — and grants either only while the crashes plus the
// most holds any one writer has booked stay within f.
//
// Installed as a Script's apply rule and combined with random releases
// between high-level operations (RunChaos calls ReleaseSome), Chaos
// explores a large space of legal environment behaviours: delayed effects,
// stale overwrites landing late, and responses that never arrive. Sound
// constructions must pass the write-sequential checkers for every seed; the
// experiment suite runs many.
type Chaos struct {
	mu          sync.Mutex
	rng         *rand.Rand
	holdProb    float64
	f           int // the fault budget: crashes + one writer's holds ≤ f
	crashes     int // servers Crash crashed
	outstanding map[types.ClientID]map[uint64]struct{}
}

// NewChaos creates the policy. holdProb is the per-op hold probability; f is
// the fault budget that crashes and each writer's outstanding holds share.
func NewChaos(seed int64, holdProb float64, f int) *Chaos {
	return &Chaos{
		rng:         rand.New(rand.NewSource(seed)),
		holdProb:    holdProb,
		f:           f,
		outstanding: make(map[types.ClientID]map[uint64]struct{}),
	}
}

// Hold is the policy as a Script rule: hold a mutating op with the hold
// probability while its writer's holds plus the crashes stay within f.
func (c *Chaos) Hold(ev fabric.TriggerEvent) bool {
	if !IsMutating(ev.Inv) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	held := c.outstanding[ev.Client]
	if c.crashes+len(held)+1 > c.f {
		return false
	}
	if c.rng.Float64() >= c.holdProb {
		return false
	}
	if held == nil {
		held = make(map[uint64]struct{})
		c.outstanding[ev.Client] = held
	}
	held[ev.Token] = struct{}{}
	return true
}

// Released informs the policy that a held op was released, freeing budget.
func (c *Chaos) Released(client types.ClientID, token uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if held, ok := c.outstanding[client]; ok {
		delete(held, token)
	}
}

// Crash crashes server on fab if the budget has a unit left for it, and
// reports whether it did: only while the crashes plus the most holds any one
// writer has booked, plus this crash, stay within f. The books are first
// reconciled against the fabric (see reconcile), then checked and the server
// crashed under the gate's lock, so no hold is granted between the check and
// the crash. A hold granted but not yet parked is booked, so it counts too.
// Holding the lock across fab.Crash is safe: the fabric asks its gate outside
// every lane lock, and Fabric.Crash never calls back into the gate.
func (c *Chaos) Crash(fab *fabric.Fabric, server types.ServerID) bool {
	c.reconcile(fab)
	defer c.mu.Unlock()
	most := 0
	for _, held := range c.outstanding {
		most = max(most, len(held))
	}
	if c.crashes+most+1 > c.f {
		return false
	}
	if srv, err := fab.Cluster().Server(server); err != nil || srv.Crashed() {
		return false // only a live server's crash costs a unit
	}
	if fab.Crash(server) != nil {
		return false
	}
	c.crashes++
	return true
}

// Crashes returns how many servers Crash has crashed.
func (c *Chaos) Crashes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashes
}

// reconcile forgets the booked holds that no longer withhold a response:
// ops a reconfiguration drained out from under the gate (completed with
// ErrViewChanged, no longer pending) and ops whose server crashed (dropped:
// the crash already paid for the missing response). Only holds booked before
// the snapshot can be forgotten: a store may trigger from a completion on a
// lane goroutine meanwhile, and a hold granted after the snapshot is still
// parked. It returns the snapshot with c.mu held.
func (c *Chaos) reconcile(fab *fabric.Fabric) []fabric.PendingOp {
	c.mu.Lock()
	gone := make(map[uint64]types.ClientID)
	for client, held := range c.outstanding {
		for tok := range held {
			gone[tok] = client
		}
	}
	c.mu.Unlock()
	pending := fab.Pending()
	c.mu.Lock()
	for _, op := range pending {
		if op.Phase != fabric.PhaseDropped {
			delete(gone, op.Event.Token)
		}
	}
	for tok, client := range gone {
		delete(c.outstanding[client], tok)
	}
	return pending
}

// ReleaseSome releases each currently held op with probability p, drawing
// from the policy's own PRNG for reproducibility, and returns how many were
// released. It reconciles the books first (see reconcile).
func (c *Chaos) ReleaseSome(fab *fabric.Fabric, p float64) int {
	pending := c.reconcile(fab)
	var victims []fabric.PendingOp
	for _, op := range pending {
		if op.Phase != fabric.PhaseApply && op.Phase != fabric.PhaseRespond {
			continue
		}
		if c.rng.Float64() < p {
			victims = append(victims, op)
		}
	}
	c.mu.Unlock()
	released := 0
	for _, op := range victims {
		err := fab.Release(op.Event.Token)
		// Free the budget even when the fabric no longer holds the op: a
		// reconfiguration drains held ops out from under the gate (they
		// complete with ErrViewChanged), and keeping them on the books
		// would permanently shrink the writer's hold budget.
		c.Released(op.Event.Client, op.Event.Token)
		if err == nil {
			released++
		}
	}
	return released
}
