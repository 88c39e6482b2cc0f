package adversary

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/types"
)

func writeEv(token uint64, client types.ClientID, obj types.ObjectID, server types.ServerID) fabric.TriggerEvent {
	return fabric.TriggerEvent{
		Token:  token,
		Client: client,
		Object: obj,
		Server: server,
		Inv:    baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1}},
	}
}

func TestIsMutating(t *testing.T) {
	one := types.TSValue{TS: 1}
	tests := []struct {
		name string
		inv  baseobj.Invocation
		want bool
	}{
		{"write", baseobj.Invocation{Op: baseobj.OpWrite, Arg: one}, true},
		{"write-max", baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: one}, true},
		{"read", baseobj.Invocation{Op: baseobj.OpRead}, false},
		{"read-max", baseobj.Invocation{Op: baseobj.OpReadMax}, false},
		{"cas update", baseobj.Invocation{Op: baseobj.OpCAS, Exp: types.ZeroTSValue, Arg: one}, true},
		{"cas no-op read", baseobj.Invocation{Op: baseobj.OpCAS, Exp: one, Arg: one}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsMutating(tc.inv); got != tc.want {
				t.Errorf("IsMutating = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestScriptRules(t *testing.T) {
	s := NewScript()
	ev := writeEv(1, 0, 10, 0)
	// No rules: pass.
	if s.BeforeApply(ev) != fabric.Pass || s.BeforeRespond(ev, baseobj.Response{}) != fabric.Pass {
		t.Fatal("empty script held")
	}
	s.SetApplyRule(func(e fabric.TriggerEvent) bool { return e.Server == 0 })
	if s.BeforeApply(ev) != fabric.Hold {
		t.Fatal("apply rule not applied")
	}
	s.SetApplyRule(nil)
	if s.BeforeApply(ev) != fabric.Pass {
		t.Fatal("cleared apply rule still holds")
	}
	s.SetRespondRule(func(e fabric.TriggerEvent) bool { return e.Client == 0 })
	if s.BeforeRespond(ev, baseobj.Response{}) != fabric.Hold {
		t.Fatal("respond rule not applied")
	}
	s.SetRespondRule(nil)
	if s.BeforeRespond(ev, baseobj.Response{}) != fabric.Pass {
		t.Fatal("cleared respond rule still holds")
	}
	if got := s.Held(); got != 2 {
		t.Fatalf("Held = %d, want 2 (one per phase)", got)
	}
}

// TestScriptWhenHeld: the channel closes at once when the count is already
// reached, and otherwise exactly when the n-th hold is counted.
func TestScriptWhenHeld(t *testing.T) {
	s := NewScript()
	s.SetApplyRule(func(fabric.TriggerEvent) bool { return true })
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	if !closed(s.WhenHeld(0)) {
		t.Fatal("WhenHeld(0) did not close at once")
	}
	s.BeforeApply(writeEv(1, 0, 10, 0))
	if !closed(s.WhenHeld(1)) {
		t.Fatal("WhenHeld(1) after one hold did not close at once")
	}
	ch := s.WhenHeld(3)
	s.BeforeApply(writeEv(2, 0, 11, 0))
	if closed(ch) {
		t.Fatal("WhenHeld(3) closed at two holds")
	}
	s.BeforeApply(writeEv(3, 0, 12, 0))
	if !closed(ch) {
		t.Fatal("WhenHeld(3) did not close at the third hold")
	}
	s.BeforeApply(writeEv(4, 0, 13, 0)) // past the count: must not close twice
	if got := s.Held(); got != 4 {
		t.Fatalf("Held = %d, want 4", got)
	}
}

// chaosEnv returns an n-server in-process fabric gated by c's Hold rule,
// with one register on each server.
func chaosEnv(t *testing.T, c *Chaos, n int) (*fabric.Fabric, []types.ObjectID) {
	t.Helper()
	cl, err := cluster.New(n)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]types.ObjectID, n)
	for s := range objs {
		if objs[s], err = cl.PlaceRegister(types.ServerID(s), baseobj.WriterRange{}); err != nil {
			t.Fatal(err)
		}
	}
	gate := NewScript()
	gate.SetApplyRule(c.Hold)
	fab := fabric.New(cl, fabric.WithGate(gate))
	t.Cleanup(func() { fab.Close() })
	return fab, objs
}

// write triggers client's write on obj and reports whether the gate parked
// it: on the in-process lane an op that is not held has completed on return.
func write(fab *fabric.Fabric, client types.ClientID, obj types.ObjectID) bool {
	g := &fabric.Group{Ops: []fabric.BatchOp{{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1}}}}}
	held := true
	g.Done = func(int, *fabric.Outcome) { held = false }
	fab.TriggerBatch(client, g)
	return held
}

// heldBy returns the tokens of client's apply-held ops.
func heldBy(fab *fabric.Fabric, client types.ClientID) []uint64 {
	var tokens []uint64
	for _, op := range fab.Pending() {
		if op.Event.Client == client && op.Phase == fabric.PhaseApply {
			tokens = append(tokens, op.Event.Token)
		}
	}
	return tokens
}

// crashed reports whether server has crashed.
func crashed(t *testing.T, fab *fabric.Fabric, server types.ServerID) bool {
	t.Helper()
	srv, err := fab.Cluster().Server(server)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Crashed()
}

// TestChaosHoldBudget: crashes and holds draw on one budget of f. The rule
// holds only mutating ops, at most f − crashes per writer at a time, and a
// release frees budget; Crash is refused while the crashes plus the most
// holds one writer has booked plus one exceed f; and a hold drained out from
// under the gate stops blocking a crash once Crash has reconciled the books.
func TestChaosHoldBudget(t *testing.T) {
	const f = 2
	c := NewChaos(1, 1, f) // hold every op the budget allows
	fab, objs := chaosEnv(t, c, 5)
	if c.Hold(fabric.TriggerEvent{Inv: baseobj.Invocation{Op: baseobj.OpRead}}) {
		t.Fatal("held a read")
	}
	if !write(fab, 0, objs[0]) || !write(fab, 0, objs[1]) {
		t.Fatal("writer 0's first two writes not held")
	}
	if write(fab, 0, objs[2]) {
		t.Fatal("held beyond the writer's budget")
	}
	if !write(fab, 1, objs[0]) {
		t.Fatal("another writer's budget is its own")
	}
	if c.Crash(fab, 4) || crashed(t, fab, 4) {
		t.Fatal("crashed with 0 crashes + 2 held by writer 0 + 1 > f")
	}

	tok := heldBy(fab, 0)[0]
	if err := fab.Release(tok); err != nil {
		t.Fatal(err)
	}
	c.Released(0, tok)
	if !c.Crash(fab, 4) || !crashed(t, fab, 4) {
		t.Fatal("crash refused with 0 crashes + 1 held + 1 = f")
	}
	if c.Crash(fab, 3) {
		t.Fatal("crashed with 1 crash + 1 held + 1 > f")
	}
	// f − crashes = 1: writers 0 and 1 each hold one op, so their second
	// hold is refused, and a fresh writer gets exactly one.
	if write(fab, 0, objs[2]) || write(fab, 1, objs[2]) {
		t.Fatal("a writer held its (f − crashes + 1)th op")
	}
	if !write(fab, 2, objs[2]) || write(fab, 2, objs[3]) {
		t.Fatal("a fresh writer's budget after one crash is not f − 1")
	}

	// Every hold leaves the fabric without the gate hearing of it, as a
	// reconfiguration's drain takes them: the books still list three.
	for _, w := range []types.ClientID{0, 1, 2} {
		for _, tok := range heldBy(fab, w) {
			if err := fab.Release(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !c.Crash(fab, 3) || !crashed(t, fab, 3) {
		t.Fatal("a drained hold still blocks the crash after Crash reconciled")
	}
	if got := c.Crashes(); got != f {
		t.Fatalf("Crashes = %d, want %d", got, f)
	}
	if c.Crash(fab, 2) || write(fab, 3, objs[2]) {
		t.Fatal("the budget is spent, yet a crash or a hold was granted")
	}
}

// TestChaosForgetsHoldsOnCrashedServer: a held op whose server crashes is
// dropped, and the crash already pays for its missing response, so the next
// reconcile takes it off its writer's books: the writer holds again up to
// f − 1.
func TestChaosForgetsHoldsOnCrashedServer(t *testing.T) {
	const f = 2
	c := NewChaos(1, 1, f)
	fab, objs := chaosEnv(t, c, 5)
	if !write(fab, 0, objs[0]) {
		t.Fatal("write on server 0 not held")
	}
	if !c.Crash(fab, 0) {
		t.Fatal("crash refused with 0 crashes + 1 held + 1 = f")
	}
	c.ReleaseSome(fab, 0) // releases nothing; reconciles the books
	if !write(fab, 0, objs[1]) {
		t.Fatal("the dropped hold still counts against its writer")
	}
	if write(fab, 0, objs[2]) {
		t.Fatal("writer held more than f − 1 ops after one crash")
	}
}

// TestChaosBudgetRace: writers hold and release while another goroutine
// crashes servers, and after every step the books keep the invariant
// crashes + most holds one writer has booked ≤ f. Run under -race.
func TestChaosBudgetRace(t *testing.T) {
	const f, n, writers, steps = 3, 8, 4, 200
	c := NewChaos(1, 0.5, f)
	fab, objs := chaosEnv(t, c, n)
	check := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		most := 0
		for _, held := range c.outstanding {
			most = max(most, len(held))
		}
		if c.crashes+most > c.f {
			t.Errorf("crashes %d + most held %d > f = %d", c.crashes, most, c.f)
		}
	}
	var wg sync.WaitGroup
	for w := types.ClientID(0); w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				write(fab, w, objs[(int(w)+i)%n])
				check()
				if tokens := heldBy(fab, w); len(tokens) > 1 {
					if fab.Release(tokens[0]) == nil {
						c.Released(w, tokens[0])
					}
					check()
				}
				runtime.Gosched()
			}
		}()
	}
	done := make(chan struct{})
	crasher := make(chan struct{})
	go func() {
		defer close(crasher)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			c.Crash(fab, types.ServerID(i%n))
			check()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(done)
	<-crasher
	if c.Crashes() == 0 {
		t.Error("no crash was granted: the race never met the crash check")
	}
}
