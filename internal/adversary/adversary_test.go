package adversary

import (
	"testing"

	"repro/internal/baseobj"
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

// TestChaosHoldBudget: the chaos rule holds only mutating ops, at most its
// budget per writer at a time, and a release frees budget.
func TestChaosHoldBudget(t *testing.T) {
	c := NewChaos(1, 1, 1) // hold every op the budget allows
	if c.Hold(fabric.TriggerEvent{Inv: baseobj.Invocation{Op: baseobj.OpRead}}) {
		t.Fatal("held a read")
	}
	if !c.Hold(writeEv(1, 0, 10, 0)) {
		t.Fatal("first write not held")
	}
	if c.Hold(writeEv(2, 0, 11, 1)) {
		t.Fatal("held beyond the writer's budget")
	}
	if !c.Hold(writeEv(3, 1, 12, 0)) {
		t.Fatal("another writer's budget is its own")
	}
	c.Released(0, 1)
	if !c.Hold(writeEv(4, 0, 13, 0)) {
		t.Fatal("a release did not free budget")
	}
	c.Narrow(1)
	if c.Hold(writeEv(5, 2, 14, 0)) {
		t.Fatal("held with the budget narrowed to zero")
	}
}
