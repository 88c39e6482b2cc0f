package runner

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/types"
)

// WriteCover summarizes the covering effect of one high-level write.
type WriteCover struct {
	// Writer is the client whose write was attacked.
	Writer types.ClientID
	// NewlyCovered is how many fresh registers the adversary covered
	// during this write.
	NewlyCovered int
	// Cumulative is the total number of covered registers afterwards.
	Cumulative int
}

// CoveringReport is the outcome of the Lemma 1 covering experiment
// (Figure 2, experiments E1/E2/E3/E5/E10): k sequential writers run under
// the Ad_i-style adversary, which holds up to f low-level writes per
// high-level write off a protected server set F of size f+1.
type CoveringReport struct {
	Kind    Kind
	K, F, N int

	// Resources is the construction's placed base-object count, and
	// PerServer its base objects on each server.
	Resources int
	PerServer []int
	// UsedObjects is the paper's resource consumption of the run: the
	// number of distinct base objects the run triggered operations on.
	UsedObjects int
	// PerWrite records the covering growth per completed write.
	PerWrite []WriteCover
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

// CoveringScript is the run of Lemma 1 against kind: writers 0..k-1 write
// once each, in order, and during each write the adversary Ad_i holds up to
// f of that writer's mutating ops before they take effect — never on the
// protected set F (the last f+1 servers, fixed before the run) and never on
// a register it covered before. Nothing is released, so every held write
// stays pending, covering its register. A final read must return the last
// value written.
func CoveringScript(kind Kind, k, f, n int) *Script {
	offF := make([]int, n-f-1)
	for i := range offF {
		offF[i] = i
	}
	s := &Script{Name: fmt.Sprintf("covering-%s-k%d-f%d-n%d", kind, k, f, n), Kind: kind, K: k, F: f, N: n}
	for i := range k {
		hold := holdWrites(i, offF, f)
		hold.Hold.Once = true
		s.Steps = append(s.Steps, hold, writeStep(i, int64(i+1)), clearStep)
	}
	last := int64(k)
	s.Steps = append(s.Steps, Step{Read: &ReadStep{Expect: &last}})
	return s
}

// RunCovering executes the covering experiment for one construction: it
// runs CoveringScript and reads Cov(t) off the fabric after each write. All
// constructions stay safe under pure covering (no releases); the point is
// the covered-register count: register-based constructions accumulate ~f
// newly covered registers per write (forcing the Theorem 1 space), while
// max-register/CAS constructions saturate at a k-independent count.
func RunCovering(ctx context.Context, kind Kind, k, f, n int) (*CoveringReport, error) {
	if err := bounds.Validate(k, f, n); err != nil {
		return nil, err
	}
	s := CoveringScript(kind, k, f, n)
	r, err := newRun(s, BuildOpts{})
	if err != nil {
		return nil, err
	}
	rep := &CoveringReport{
		Kind: kind, K: k, F: f, N: n,
		Resources:          r.reg.ResourceComplexity(),
		PerServer:          r.env.Cluster.PerServerCounts(),
		CoveringLowerBound: bounds.CoveredLower(k, f),
		PointContention:    1,
	}
	prev := 0
	for _, st := range s.Steps {
		if err := r.do(ctx, st); err != nil {
			return nil, err
		}
		if st.Write != nil {
			covered := len(r.env.Fabric.CoveredObjects())
			rep.PerWrite = append(rep.PerWrite, WriteCover{
				Writer:       types.ClientID(st.Write.Writer),
				NewlyCovered: covered - prev,
				Cumulative:   covered,
			})
			prev = covered
			rep.LastWritten = types.Value(st.Write.Value)
		}
	}
	res := r.finish()
	rep.FinalRead, rep.Checks = res.Reads[0], res.Checks
	rep.UsedObjects = len(r.env.Fabric.UsedObjects())
	covered := r.env.Fabric.CoveredObjects()
	rep.TotalCovered = len(covered)
	for _, obj := range covered {
		server, err := r.env.Cluster.Delta(obj)
		if err != nil {
			return nil, err
		}
		if int(server) >= n-f-1 { // F is the last f+1 servers
			rep.CoveredOnF++
		}
	}
	return rep, nil
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
