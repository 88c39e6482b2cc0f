package adversary

import (
	"math/rand"
	"sync"

	"repro/internal/fabric"
	"repro/internal/types"
)

// Chaos is a seeded randomized environment: its Hold rule holds mutating
// low-level operations with a fixed probability, subject to the liveness
// budget that makes every construction's quorum math still work out — at
// most f of a writer's operations are outstanding-held at any time.
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
	budget      int // max outstanding held ops per writer (f)
	outstanding map[types.ClientID]map[uint64]struct{}
}

// NewChaos creates the policy. holdProb is the per-op hold probability;
// budget is the per-writer outstanding-hold cap (use f).
func NewChaos(seed int64, holdProb float64, budget int) *Chaos {
	return &Chaos{
		rng:         rand.New(rand.NewSource(seed)),
		holdProb:    holdProb,
		budget:      budget,
		outstanding: make(map[types.ClientID]map[uint64]struct{}),
	}
}

// Hold is the policy as a Script rule: hold a mutating op with the hold
// probability while its writer is under budget.
func (c *Chaos) Hold(ev fabric.TriggerEvent) bool {
	if !IsMutating(ev.Inv) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	held := c.outstanding[ev.Client]
	if len(held) >= c.budget {
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

// Narrow permanently shrinks the liveness budget by n (not below zero).
// A fail-stop crash consumes a unit of the same f budget the holds draw
// from: after a crash, Hold grants a writer at most f-1 outstanding holds.
// Narrow bounds only holds granted from then on — ops already held stay
// held — so a caller that crashes a server must first check that the
// crashes plus the most ops one client already has held stay below f;
// then crashed servers plus held ops never exceed f together and every
// quorum round still reaches its n-f threshold.
func (c *Chaos) Narrow(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget -= n
	if c.budget < 0 {
		c.budget = 0
	}
}

// ReleaseSome releases each currently held op with probability p, drawing
// from the policy's own PRNG for reproducibility, and returns how many were
// released. It also reconciles the budget books against the fabric: ops a
// reconfiguration drained out from under the gate (completed with
// ErrViewChanged, no longer pending) are forgotten so they stop consuming
// their writer's hold budget. Only holds booked before the snapshot can be
// forgotten: a store may trigger from a completion on a lane goroutine
// meanwhile, and a hold granted after the snapshot is still parked.
func (c *Chaos) ReleaseSome(fab *fabric.Fabric, p float64) int {
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
		delete(gone, op.Event.Token)
	}
	for tok, client := range gone {
		delete(c.outstanding[client], tok)
	}
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
