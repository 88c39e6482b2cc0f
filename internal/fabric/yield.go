package fabric

import (
	"runtime"
	"sync/atomic"

	"repro/internal/baseobj"
)

// YieldGate passes every operation but deschedules the calling goroutine
// twice between an operation's apply and its response delivery. It models
// benign asynchrony — responses take time — which widens the interleaving
// windows that are nanoseconds wide under the synchronous default. Contention
// experiments (e.g. the Algorithm 1 CAS retry measurements) use it to make
// races actually happen.
type YieldGate struct {
	ops atomic.Int64
}

// Compile-time interface compliance check.
var _ Gate = (*YieldGate)(nil)

// BeforeApply implements Gate.
func (g *YieldGate) BeforeApply(TriggerEvent) Decision { return Pass }

// BeforeRespond implements Gate: yield twice, then pass.
func (g *YieldGate) BeforeRespond(TriggerEvent, baseobj.Response) Decision {
	g.ops.Add(1)
	runtime.Gosched()
	runtime.Gosched()
	return Pass
}

// Ops returns how many responses passed through the gate.
func (g *YieldGate) Ops() int64 { return g.ops.Load() }
