package runner

import (
	"testing"
	"testing/quick"

	"repro/internal/emulation"
	"repro/internal/emulation/aacmax"
	"repro/internal/emulation/abdmax"
	"repro/internal/emulation/casmax"
	"repro/internal/emulation/coded"
	"repro/internal/emulation/naiveabd"
	"repro/internal/emulation/regemu"
	"repro/internal/fabric"
	"repro/internal/types"
)

// A sequential run is a script of writes and reads, one step at a time:
// every construction keeps WS-Safety and WS-Regularity on one.
func TestRunSequentialAllKinds(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			k, f, n := 3, 1, 4
			if kind == KindAACMax || kind == KindNaive || kind == KindABDMax || kind == KindCASMax {
				n = 3 // the 2f+1 constructions default to servers 0..2f
			}
			s := &Script{Kind: kind, K: k, F: f, N: n}
			for i := 0; i < k; i++ {
				s.Steps = append(s.Steps, writeStep(i, int64(100+i)), readStep)
			}
			res, err := RunScript(ctx, s)
			if err != nil {
				t.Fatalf("RunScript: %v", err)
			}
			if len(res.Reads) != k || res.Reads[k-1] != types.Value(100+k-1) {
				t.Errorf("reads = %v, want %d ending in the last write", res.Reads, k)
			}
			if !res.Checks.OK() {
				t.Errorf("checks failed: safety=%v regularity=%v", res.Checks.WSSafety, res.Checks.WSRegularity)
			}
		})
	}
}

// A crash plan is a script with crash steps: Algorithm 2 at f=2 loses two
// servers mid-run, between round-robin writes by three writers, and stays
// WS-Safe and WS-Regular.
func TestRunSequentialWithCrashes(t *testing.T) {
	s := &Script{Kind: KindRegEmu, K: 3, F: 2, N: 6}
	for op := 0; op < 9; op++ {
		switch op {
		case 2:
			s.Steps = append(s.Steps, Step{Crash: &CrashStep{Server: 0}})
		case 5:
			s.Steps = append(s.Steps, Step{Crash: &CrashStep{Server: 3}})
		}
		s.Steps = append(s.Steps, writeStep(op%3, int64(100+op)), readStep)
	}
	res, err := RunScript(testCtx(t), s)
	if err != nil {
		t.Fatalf("RunScript with crashes: %v", err)
	}
	if !res.Met() || !res.Checks.OK() {
		t.Errorf("checks failed after crashes: %v %+v", res.Failures, res.Checks)
	}
}

func TestRunSequentialRejectsOverbudgetCrashPlan(t *testing.T) {
	s := &Script{Kind: KindRegEmu, K: 2, F: 1, N: 3, Steps: []Step{
		{Crash: &CrashStep{Server: 0}}, writeStep(0, 1), {Crash: &CrashStep{Server: 1}}, writeStep(1, 2),
	}}
	if _, err := RunScript(testCtx(t), s); err == nil {
		t.Fatal("crash plan beyond f accepted")
	}
}

func TestRunConcurrentAllKinds(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			n := 4
			if kind != KindRegEmu {
				n = 3
			}
			rep, err := RunConcurrent(ctx, ConcurrentConfig{
				Kind: kind, K: 3, F: 1, N: n,
				WritesPerWriter: 10, Readers: 2, ReadsPerReader: 10,
			})
			if err != nil {
				t.Fatalf("RunConcurrent: %v", err)
			}
			if rep.ReadValidity != nil {
				t.Errorf("read validity: %v", rep.ReadValidity)
			}
			if rep.Writes != 30 || rep.Reads != 20 {
				t.Errorf("ops = %d/%d, want 30/20", rep.Writes, rep.Reads)
			}
		})
	}
}

func TestRunConcurrentAtomicLinearizable(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range []Kind{KindABDMax, KindCASMax} {
		rep, err := RunConcurrent(ctx, ConcurrentConfig{
			Kind: kind, K: 2, F: 1, N: 3,
			WritesPerWriter: 8, Readers: 2, ReadsPerReader: 8,
			Atomic: true,
		})
		if err != nil {
			t.Fatalf("RunConcurrent atomic %s: %v", kind, err)
		}
		if !rep.LinearizabilityChecked {
			t.Fatalf("%s: linearizability not checked (history too large?)", kind)
		}
		if rep.Linearizable != nil {
			t.Errorf("%s atomic run not linearizable: %v", kind, rep.Linearizable)
		}
	}
}

func TestBuildAtomicRejectsReadOnlyReaders(t *testing.T) {
	env, err := NewEnv(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{KindRegEmu, KindAACMax, KindNaive} {
		if _, _, err := BuildWith(kind, env.Fabric, 2, 1, BuildOpts{Atomic: true}); err == nil {
			t.Errorf("atomic BuildWith(%s) succeeded; its readers cannot write", kind)
		}
	}
	// BuildWith passes the option through: each construction refuses it in
	// its own New, before placing anything.
	atomic := emulation.Options{Atomic: true}
	for name, build := range map[string]func() error{
		"regemu":   func() error { _, err := regemu.New(env.Fabric, 2, atomic); return err },
		"aacmax":   func() error { _, err := aacmax.New(env.Fabric, 2, atomic); return err },
		"naiveabd": func() error { _, err := naiveabd.New(env.Fabric, 2, atomic); return err },
	} {
		if err := build(); err == nil {
			t.Errorf("%s.New with Atomic succeeded; its readers cannot write", name)
		}
	}
	if got := env.Cluster.ResourceComplexity(); got != 0 {
		t.Errorf("the refused builds placed %d base objects", got)
	}
}

// TestBuildReturnsTheRegistersHistory: the history BuildWith returns is the
// one the register records into, for every construction, and every one keeps
// the handle contract: Writer(i) is the same handle on every call, Writer(k)
// and Writer(-1) are refused, and readers get distinct IDs above
// ReaderIDBase.
func TestBuildReturnsTheRegistersHistory(t *testing.T) {
	const k = 2
	for _, kind := range Kinds() {
		env, err := NewEnv(ChaosServers(kind), nil)
		if err != nil {
			t.Fatal(err)
		}
		reg, hist, err := BuildWith(kind, env.Fabric, k, 1, BuildOpts{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if hist == nil || hist != reg.History() {
			t.Errorf("%s: BuildWith returned history %p, the register records into %p", kind, hist, reg.History())
		}
		for i := range k {
			w1, err1 := reg.Writer(i)
			w2, err2 := reg.Writer(i)
			if err1 != nil || err2 != nil || w1 != w2 || w1.Client() != types.ClientID(i) {
				t.Errorf("%s: Writer(%d) twice = %p (%v), %p (%v), want one handle of client %d", kind, i, w1, err1, w2, err2, i)
			}
		}
		for _, i := range []int{k, -1} {
			if w, err := reg.Writer(i); err == nil || w != nil {
				t.Errorf("%s: Writer(%d) = %p, %v, want a refusal", kind, i, w, err)
			}
		}
		r1, r2 := reg.NewReader(), reg.NewReader()
		if r1.Client() == r2.Client() || r1.Client() <= emulation.ReaderIDBase || r2.Client() <= emulation.ReaderIDBase {
			t.Errorf("%s: readers got IDs %d and %d, want distinct IDs above %d", kind, r1.Client(), r2.Client(), emulation.ReaderIDBase)
		}
	}
}

// TestBuildSetsTheViewsF: BuildWith sets the view's f and every
// construction takes its f from the view — on a 7-member view at f = 1, 2
// and 3 in turn.
func TestBuildSetsTheViewsF(t *testing.T) {
	for _, kind := range Kinds() {
		env, err := NewEnv(7, nil)
		if err != nil {
			t.Fatal(err)
		}
		for f := 1; f <= 3; f++ {
			reg, _, err := BuildWith(kind, env.Fabric, 2, f, BuildOpts{})
			if err != nil {
				t.Fatalf("%s at f=%d: %v", kind, f, err)
			}
			if view := env.Cluster.View(); view.F != f || reg.F() != view.F {
				t.Errorf("%s: built at f=%d, the view's f is %d and the register's %d", kind, f, view.F, reg.F())
			}
		}
	}
}

// TestRefusedBuildKeepsTheViewsF: a build BuildWith refuses — f = 3 on 5
// members — puts the view's f back and leaves no object behind, and a build
// at the view's own f starts no new epoch.
func TestRefusedBuildKeepsTheViewsF(t *testing.T) {
	for _, kind := range Kinds() {
		env, err := NewEnv(5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := BuildWith(kind, env.Fabric, 2, 1, BuildOpts{}); err != nil {
			t.Fatalf("%s at f=1: %v", kind, err)
		}
		objects := env.Cluster.ResourceComplexity()
		if _, _, err := BuildWith(kind, env.Fabric, 2, 3, BuildOpts{}); err == nil {
			t.Fatalf("%s: f=3 on 5 members was accepted", kind)
		}
		if f, got := env.Cluster.F(), env.Cluster.ResourceComplexity(); f != 1 || got != objects {
			t.Errorf("%s: after the refused build f=%d with %d objects, want 1 with %d", kind, f, got, objects)
		}
		epoch := env.Cluster.View().Epoch
		if _, _, err := BuildWith(kind, env.Fabric, 2, 1, BuildOpts{}); err != nil {
			t.Fatalf("%s at f=1 again: %v", kind, err)
		}
		if e := env.Cluster.View().Epoch; e != epoch {
			t.Errorf("%s: a build at the view's own f moved the epoch from %d to %d", kind, epoch, e)
		}
	}
}

// TestNewRefusesAViewWithoutF: a fresh view's f is 0, and each
// construction's New refuses it before placing a single object.
func TestNewRefusesAViewWithoutF(t *testing.T) {
	opts := emulation.Options{}
	for name, build := range map[string]func(*fabric.Fabric) error{
		"regemu":   func(fab *fabric.Fabric) error { _, err := regemu.New(fab, 2, opts); return err },
		"abdmax":   func(fab *fabric.Fabric) error { _, err := abdmax.New(fab, 2, opts); return err },
		"casmax":   func(fab *fabric.Fabric) error { _, _, err := casmax.New(fab, 2, opts); return err },
		"aacmax":   func(fab *fabric.Fabric) error { _, err := aacmax.New(fab, 2, opts); return err },
		"naiveabd": func(fab *fabric.Fabric) error { _, err := naiveabd.New(fab, 2, opts); return err },
		"coded":    func(fab *fabric.Fabric) error { _, err := coded.New(fab, 2, opts); return err },
	} {
		env, err := NewEnv(5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f := env.Cluster.F(); f != 0 {
			t.Fatalf("a fresh view has f=%d, want 0", f)
		}
		if err := build(env.Fabric); err == nil {
			t.Errorf("%s.New accepted a view with f=0", name)
		}
		if got := env.Cluster.ResourceComplexity(); got != 0 {
			t.Errorf("%s.New placed %d base objects before refusing f=0", name, got)
		}
	}
}

func TestBuildUnknownKind(t *testing.T) {
	env, err := NewEnv(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildWith(Kind("bogus"), env.Fabric, 1, 1, BuildOpts{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindMetadata(t *testing.T) {
	if len(Kinds()) != 6 {
		t.Fatalf("Kinds = %v, want 6 entries", Kinds())
	}
	want := map[Kind]string{
		KindRegEmu: "register",
		KindABDMax: "max-register",
		KindCASMax: "cas",
		KindAACMax: "register",
		KindNaive:  "register",
		KindCoded:  "frag-store",
	}
	for kind, base := range want {
		if got := BaseObjectOf(kind); got != base {
			t.Errorf("BaseObjectOf(%s) = %q, want %q", kind, got, base)
		}
	}
	if BaseObjectOf(Kind("bogus")) != "unknown" {
		t.Error("unknown kind not reported")
	}
}

func TestValueGenUnique(t *testing.T) {
	g := NewValueGen()
	seen := make(map[types.Value]bool)
	for c := 0; c < 5; c++ {
		for i := 0; i < 100; i++ {
			v := g.Next(types.ClientID(c))
			if seen[v] {
				t.Fatalf("duplicate value %d", v)
			}
			seen[v] = true
		}
	}
}

func TestValueGenUniqueProperty(t *testing.T) {
	// Values from different clients never collide, regardless of call
	// interleaving.
	err := quick.Check(func(calls []uint8) bool {
		g := NewValueGen()
		seen := make(map[types.Value]bool)
		for _, c := range calls {
			v := g.Next(types.ClientID(c % 16))
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
