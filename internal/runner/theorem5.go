package runner

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/baseobj"
	"repro/internal/emulation"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// Theorem5Report is the outcome of the partitioning demonstration behind
// Theorem 5 (|S| >= 2f+1): with only n = 2f servers, any protocol that
// stays live despite f silent servers can be driven into a safety
// violation, because a write quorum (n-f = f servers) and a read quorum
// (f servers) need not intersect.
type Theorem5Report struct {
	F, N int
	// WroteValue is the value the partitioned write stored.
	WroteValue types.Value
	// ReadValue is what the partitioned read returned (the initial value:
	// it saw only the other half).
	ReadValue types.Value
	// SafetyViolation is the checker's verdict; it must be non-nil, i.e.
	// the violation must materialize.
	SafetyViolation error
}

// RunTheorem5 builds a minimal live protocol on n = 2f servers (one
// register per server; operations wait for n-f = f responses, the most any
// f-tolerant protocol may wait for) and drives the partition schedule: the
// write's responses come from the first half, the read's from the second.
func RunTheorem5(ctx context.Context, f int) (*Theorem5Report, error) {
	if f <= 0 {
		return nil, fmt.Errorf("runner: theorem5 needs f > 0")
	}
	n := 2 * f
	// The partition is two rules swapped between the phases: during the
	// write the writer's low-level writes on the upper half (servers
	// f..2f-1) are held before taking effect, so those servers never learn
	// the value; during the read the responses from the lower half are
	// delayed, so its quorum is exactly the uninformed upper half.
	script := adversary.NewScript()
	script.SetApplyRule(func(ev fabric.TriggerEvent) bool { return ev.Inv.Op.IsWrite() && int(ev.Server) >= f })
	env, err := NewEnv(n, script)
	if err != nil {
		return nil, err
	}
	objs := make([]types.ObjectID, n)
	for s := 0; s < n; s++ {
		obj, err := env.Cluster.PlaceRegister(types.ServerID(s), baseobj.WriterRange{})
		if err != nil {
			return nil, err
		}
		objs[s] = obj
	}
	hist := &spec.History{}

	// quorumMax runs one round over every register and waits for n-f = f
	// responses, returning the highest timestamped one.
	quorumMax := func(stage string, client types.ClientID, inv baseobj.Invocation) (types.TSValue, error) {
		type result struct {
			max types.TSValue
			err error
		}
		done := make(chan result, 1)
		rounds.Scatter(ctx, env.Fabric, client, rounds.Round{
			Plan: func(buf []rounds.Target) ([]rounds.Target, int) {
				for _, obj := range objs {
					buf = append(buf, rounds.Target{Object: obj, Inv: inv})
				}
				return buf, n - f
			},
			Max: func(max types.TSValue, _ uint64, err error) { done <- result{max, err} },
		})
		select {
		case r := <-done:
			return r.max, ctxErr(ctx, stage, r.err)
		case <-ctx.Done():
			return types.ZeroTSValue, ctxErr(ctx, stage, ctx.Err())
		}
	}

	// The write: push to all, wait for n-f = f responses. The gate holds
	// the second half's writes, so they come from the first half.
	const v = types.Value(77)
	pw := hist.BeginWrite(0, v)
	if _, err := quorumMax("theorem5 write", 0, baseobj.Invocation{
		Op:  baseobj.OpWrite,
		Arg: types.TSValue{TS: 1, Writer: 0, Val: v},
	}); err != nil {
		return nil, err
	}
	pw.End()

	// The read: collect from all, wait for n-f = f responses. The gate
	// now holds responses from the first half, so the read sees only the
	// second half — which the write never reached.
	script.SetApplyRule(nil)
	script.SetRespondRule(func(ev fabric.TriggerEvent) bool { return !ev.Inv.Op.IsWrite() && int(ev.Server) < f })
	pr := hist.BeginRead(emulation.ReaderIDBase)
	max, err := quorumMax("theorem5 read", emulation.ReaderIDBase, baseobj.Invocation{Op: baseobj.OpRead})
	if err != nil {
		return nil, err
	}
	pr.End(max.Val)

	return &Theorem5Report{
		F:               f,
		N:               n,
		WroteValue:      v,
		ReadValue:       max.Val,
		SafetyViolation: spec.CheckWSSafety(hist.Snapshot(), types.InitialValue),
	}, nil
}
