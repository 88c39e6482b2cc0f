package runner

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/types"
)

// CoveringReport is the outcome of the Lemma 1 covering experiment
// (Figure 2, experiments E1/E2/E3/E5/E10): k sequential writers run under
// the Ad_i-style adversary, which holds up to f low-level writes per
// high-level write off a protected server set F of size f+1.
type CoveringReport struct {
	Kind    Kind
	K, F, N int

	// Resources is the construction's placed base-object count.
	Resources int
	// UsedObjects is the paper's resource consumption of the run: the
	// number of distinct base objects the run triggered operations on.
	UsedObjects int
	// PerWrite records the covering growth per completed write.
	PerWrite []adversary.WriteCover
	// TotalCovered is |Cov(t_k)| at the end of the run.
	TotalCovered int
	// CoveredOnF counts covered registers on the protected set F; the
	// adversary guarantees 0 (Lemma 1(b)).
	CoveredOnF int
	// CoveringLowerBound is Lemma 1(a)'s k*f.
	CoveringLowerBound int
	// PointContention of the run (always 1: the run is sequential).
	PointContention int
	// FinalRead is the value the post-run read returned; it must equal
	// the last written value for the run to be WS-Safe.
	FinalRead   types.Value
	LastWritten types.Value
	// Checks holds the WS-Safety / WS-Regularity verdicts.
	Checks CheckResult
}

// RunCovering executes the covering experiment for one construction. All
// constructions stay safe under pure covering (no releases); the point is
// the covered-register count: register-based constructions accumulate ~f
// newly covered registers per write (forcing the Theorem 1 space), while
// max-register/CAS constructions saturate at a k-independent count.
func RunCovering(ctx context.Context, kind Kind, k, f, n int) (*CoveringReport, error) {
	if err := bounds.Validate(k, f, n); err != nil {
		return nil, err
	}
	// F = the last f+1 servers, fixed before the run as in Lemma 1.
	protected := make([]types.ServerID, 0, f+1)
	for s := n - f - 1; s < n; s++ {
		protected = append(protected, types.ServerID(s))
	}
	adv := adversary.NewCovering(protected, f)
	env, err := NewEnv(n, adv)
	if err != nil {
		return nil, err
	}
	reg, hist, err := Build(kind, env.Fabric, k, f)
	if err != nil {
		return nil, err
	}

	values := NewValueGen()
	var last types.Value
	for i := 0; i < k; i++ {
		w, err := reg.Writer(i)
		if err != nil {
			return nil, err
		}
		v := values.Next(types.ClientID(i))
		adv.BeginWrite(types.ClientID(i))
		err = w.Write(ctx, v)
		adv.EndWrite()
		if err != nil {
			return nil, ctxErr(ctx, fmt.Sprintf("covering write %d", i), err)
		}
		last = v
	}

	final, err := reg.NewReader().Read(ctx)
	if err != nil {
		return nil, ctxErr(ctx, "covering final read", err)
	}

	covered := env.Fabric.CoveredObjects()
	onF := 0
	protectedSet := make(map[types.ServerID]struct{}, len(protected))
	for _, s := range protected {
		protectedSet[s] = struct{}{}
	}
	for _, obj := range covered {
		server, err := env.Cluster.Delta(obj)
		if err != nil {
			return nil, err
		}
		if _, bad := protectedSet[server]; bad {
			onF++
		}
	}

	return &CoveringReport{
		Kind:               kind,
		K:                  k,
		F:                  f,
		N:                  n,
		Resources:          reg.ResourceComplexity(),
		UsedObjects:        len(env.Fabric.UsedObjects()),
		PerWrite:           adv.PerWrite(),
		TotalCovered:       len(covered),
		CoveredOnF:         onF,
		CoveringLowerBound: bounds.CoveredLower(k, f),
		PointContention:    1,
		FinalRead:          final,
		LastWritten:        last,
		Checks:             Check(hist),
	}, nil
}

// Table1Row is one measured row of Table 1: the formula bounds next to the
// resources a real construction placed and the safety verdict of its
// adversarial run.
type Table1Row struct {
	BaseObject string
	Kind       Kind
	K, F, N    int
	// LowerFormula / UpperFormula are the paper's bounds.
	LowerFormula int
	UpperFormula int
	// Measured is the construction's placed base-object count; the shape
	// claim is Lower <= Measured <= Upper (with equality for the
	// max-register and CAS rows).
	Measured int
	// TotalCovered is the covered-register count after the adversarial
	// run, showing the mechanism behind the separation.
	TotalCovered int
	// Safe reports whether the adversarial run passed both checks.
	Safe bool
}

// MeasureTable1 reproduces Table 1 at concrete (k, f, n): each base-object
// row is measured by running its construction under the covering adversary.
func MeasureTable1(ctx context.Context, k, f, n int) ([]Table1Row, error) {
	regLower, err := bounds.RegisterLower(k, f, n)
	if err != nil {
		return nil, err
	}
	regUpper, err := bounds.RegisterUpper(k, f, n)
	if err != nil {
		return nil, err
	}
	rows := []struct {
		kind  Kind
		lower int
		upper int
	}{
		{KindABDMax, bounds.MaxRegisterBound(f), bounds.MaxRegisterBound(f)},
		{KindCASMax, bounds.CASBound(f), bounds.CASBound(f)},
		{KindRegEmu, regLower, regUpper},
	}
	out := make([]Table1Row, 0, len(rows))
	for _, row := range rows {
		rep, err := RunCovering(ctx, row.kind, k, f, n)
		if err != nil {
			return nil, fmt.Errorf("runner: table1 row %s: %w", row.kind, err)
		}
		out = append(out, Table1Row{
			BaseObject:   BaseObjectOf(row.kind),
			Kind:         row.kind,
			K:            k,
			F:            f,
			N:            n,
			LowerFormula: row.lower,
			UpperFormula: row.upper,
			Measured:     rep.Resources,
			TotalCovered: rep.TotalCovered,
			Safe:         rep.Checks.OK() && rep.FinalRead == rep.LastWritten,
		})
	}
	return out, nil
}
