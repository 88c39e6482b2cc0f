package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseobj"
	"repro/internal/fabric"
	"repro/internal/types"
)

// TestTestdataScripts runs every script in testdata through LoadScript and
// RunScript; each encodes its own expectations (read values, the safety
// verdict).
func TestTestdataScripts(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected >= 3 testdata scripts, found %d", len(entries))
	}
	for _, entry := range entries {
		if !strings.HasSuffix(entry.Name(), ".json") {
			continue
		}
		t.Run(entry.Name(), func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", entry.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s, err := LoadScript(f)
			if err != nil {
				t.Fatalf("LoadScript: %v", err)
			}
			res, err := RunScript(testCtx(t), s)
			if err != nil {
				t.Fatalf("RunScript: %v", err)
			}
			if !res.Met() {
				t.Fatalf("expectations failed: %v", res.Failures)
			}
		})
	}
}

func TestLoadScriptValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"missing kind", `{"name":"x","k":1,"f":1,"n":3,"steps":[]}`},
		{"bad params", `{"name":"x","kind":"regemu","k":0,"f":1,"n":3,"steps":[]}`},
		{"empty step", `{"name":"x","kind":"regemu","k":1,"f":1,"n":3,"steps":[{}]}`},
		{"two actions", `{"name":"x","kind":"regemu","k":1,"f":1,"n":3,"steps":[{"clear":{},"crash":{"server":0}}]}`},
		{"bad phase", `{"name":"x","kind":"regemu","k":1,"f":1,"n":3,"steps":[{"hold":{"phase":"weird","class":"any"}}]}`},
		{"bad class", `{"name":"x","kind":"regemu","k":1,"f":1,"n":3,"steps":[{"hold":{"phase":"apply","class":"weird"}}]}`},
		{"unknown field", `{"name":"x","kind":"regemu","k":1,"f":1,"n":3,"bogus":true,"steps":[]}`},
		{"syntax", `{`},
		{"crashes beyond f", `{"name":"x","kind":"regemu","k":1,"f":1,"n":3,"steps":[{"crash":{"server":0}},{"crash":{"server":1}}]}`},
		{"duplicate crash", `{"name":"x","kind":"regemu","k":1,"f":2,"n":5,"steps":[{"crash":{"server":1}},{"crash":{"server":1}}]}`},
		{"crash out of range", `{"name":"x","kind":"regemu","k":1,"f":1,"n":3,"steps":[{"crash":{"server":9}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadScript(strings.NewReader(tc.json)); err == nil {
				t.Fatalf("accepted: %s", tc.json)
			}
		})
	}
	ok := `{"name":"x","kind":"regemu","k":1,"f":2,"n":5,"steps":[{"crash":{"server":0}},{"crash":{"server":4}}]}`
	if _, err := LoadScript(strings.NewReader(ok)); err != nil {
		t.Errorf("valid crash plan rejected: %v", err)
	}
}

func TestRunScriptReportsUnexpectedViolation(t *testing.T) {
	// A benign schedule that claims it violates safety: expectations must
	// fail (but the run itself succeeds).
	s := &Script{
		Name: "wrong-expectation", Kind: KindRegEmu, K: 1, F: 1, N: 3,
		ExpectSafetyViolation: true,
		Steps:                 []Step{writeStep(0, 5), readStep},
	}
	res, err := RunScript(testCtx(t), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met() {
		t.Fatal("wrong expectation reported as met")
	}
	if res.Checks.WSSafety != nil {
		t.Fatalf("benign run not safe: %v", res.Checks.WSSafety)
	}
}

func TestRunScriptReadExpectationFailure(t *testing.T) {
	want := int64(99)
	s := &Script{
		Name: "wrong-read", Kind: KindRegEmu, K: 1, F: 1, N: 3,
		Steps: []Step{writeStep(0, 5), {Read: &ReadStep{Expect: &want}}},
	}
	res, err := RunScript(testCtx(t), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met() {
		t.Fatal("wrong read expectation reported as met")
	}
	if len(res.Reads) != 1 || res.Reads[0] != 5 {
		t.Fatalf("Reads = %v, want [5]", res.Reads)
	}
}

func TestRunScriptHoldCountBudget(t *testing.T) {
	// A count-limited hold must stop holding after its budget: with
	// count=1 against f=1, the write still completes and exactly one op
	// stays held.
	want := int64(5)
	s := &Script{
		Name: "budget", Kind: KindRegEmu, K: 1, F: 1, N: 3,
		Steps: []Step{
			{Hold: &HoldStep{Phase: "apply", Class: "mutating", Count: 1}},
			writeStep(0, 5),
			clearStep,
			{Read: &ReadStep{Expect: &want}},
			{Release: &ReleaseStep{}},
		},
	}
	res, err := RunScript(testCtx(t), s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met() || res.Released != 1 {
		t.Fatalf("expectations %v, released %d; want met, 1", res.Failures, res.Released)
	}
}

// TestStaleReleaseScriptRoundTrips: the Lemma 4 script survives JSON — what
// examples/attacklab prints is what RunSeparation runs.
func TestStaleReleaseScriptRoundTrips(t *testing.T) {
	for _, f := range []int{1, 2} {
		s := StaleReleaseScript(KindNaive, f)
		doc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadScript(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("f=%d: LoadScript of the marshalled script: %v", f, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, again) {
			t.Fatalf("f=%d: script changed on the round trip:\n%s\n%s", f, doc, again)
		}
		res, err := RunScript(testCtx(t), back)
		if err != nil || !res.Met() {
			t.Fatalf("f=%d: loaded script: %v, %v", f, err, res)
		}
	}
}

// writeEv is a mutating trigger event of client on obj at server.
func writeEv(token uint64, client types.ClientID, obj types.ObjectID, server types.ServerID) fabric.TriggerEvent {
	return fabric.TriggerEvent{
		Token: token, Client: client, Object: obj, Server: server,
		Inv: baseobj.Invocation{Op: baseobj.OpWrite, Arg: types.TSValue{TS: 1}},
	}
}

// TestCoveringBudgetAndFreshness drives the covering hold rule — a writer's
// mutating apply-phase ops, count f, off the protected set F, once per
// object — on a run's gate with hand-made events: Lemma 1's Ad_i as a
// HoldStep.
func TestCoveringBudgetAndFreshness(t *testing.T) {
	r, err := newRun(&Script{Name: "covering-rule", Kind: KindABDMax, K: 2, F: 2, N: 7}, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	offF := []int{0, 1, 2, 3, 4} // F = {5, 6}
	cover := func(writer int) Step {
		st := holdWrites(writer, offF, 2)
		st.Hold.Once = true
		return st
	}
	apply := func(ev fabric.TriggerEvent) fabric.Decision { return r.gate.BeforeApply(ev) }

	// Nothing armed: everything passes.
	if apply(writeEv(1, 0, 10, 0)) != fabric.Pass {
		t.Fatal("unarmed run held an op")
	}
	if err := r.do(ctx, cover(0)); err != nil {
		t.Fatal(err)
	}
	// Reads pass even when armed.
	if apply(fabric.TriggerEvent{Client: 0, Server: 0, Inv: baseobj.Invocation{Op: baseobj.OpRead}}) != fabric.Pass {
		t.Fatal("armed rule held a read")
	}
	// Another client's writes pass.
	if apply(writeEv(2, 1, 11, 0)) != fabric.Pass {
		t.Fatal("armed rule held a foreign client's write")
	}
	// The writer's first two fresh off-F writes are held.
	if apply(writeEv(3, 0, 12, 0)) != fabric.Hold {
		t.Fatal("first fresh write not held")
	}
	// Same object again: passes (already covered).
	if apply(writeEv(4, 0, 12, 1)) != fabric.Pass {
		t.Fatal("already-covered object held twice")
	}
	// Protected server: passes.
	if apply(writeEv(5, 0, 13, 5)) != fabric.Pass {
		t.Fatal("write on protected F held")
	}
	if apply(writeEv(6, 0, 14, 1)) != fabric.Hold {
		t.Fatal("second fresh write not held")
	}
	// Budget exhausted.
	if apply(writeEv(7, 0, 15, 2)) != fabric.Pass {
		t.Fatal("write held beyond the count")
	}
	if got := r.gate.Held(); got != 2 || len(r.held) != 2 {
		t.Fatalf("after the first write: %d held on %d objects, want 2 on 2", got, len(r.held))
	}

	// Second write by another client: a fresh count, the covered set
	// persists across rules.
	if err := r.do(ctx, clearStep, cover(1)); err != nil {
		t.Fatal(err)
	}
	if apply(writeEv(8, 1, 12, 0)) != fabric.Pass {
		t.Fatal("covered object held for the new writer")
	}
	if apply(writeEv(9, 1, 16, 0)) != fabric.Hold {
		t.Fatal("fresh object for the new writer not held")
	}
	if got := r.gate.Held(); got != 3 || len(r.held) != 3 {
		t.Fatalf("after the second write: %d held on %d objects, want 3 on 3", got, len(r.held))
	}
	// Responses always pass: no respond rule is armed.
	if r.gate.BeforeRespond(writeEv(10, 1, 17, 0), baseobj.Response{}) != fabric.Pass {
		t.Fatal("BeforeRespond held")
	}
}

// TestHoldRuleSharedCountAndServers: a rule without a client selector
// spends one count across writers, and a servers list selects exactly its
// servers.
func TestHoldRuleSharedCountAndServers(t *testing.T) {
	r, err := newRun(&Script{Name: "shared-count", Kind: KindABDMax, K: 2, F: 1, N: 4}, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.do(testCtx(t), Step{Hold: &HoldStep{Servers: []int{1, 3}, Phase: "apply", Class: "mutating", Count: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ev   fabric.TriggerEvent
		want fabric.Decision
		why  string
	}{
		{writeEv(1, 0, 10, 0), fabric.Pass, "server 0 is not listed"},
		{writeEv(2, 0, 11, 1), fabric.Hold, "writer 0 on server 1"},
		{writeEv(3, 0, 11, 1), fabric.Hold, "no once: the same object again"},
		{writeEv(4, 1, 12, 3), fabric.Pass, "the count is shared and spent"},
	} {
		if got := r.gate.BeforeApply(tc.ev); got != tc.want {
			t.Fatalf("%s: decision %v, want %v", tc.why, got, tc.want)
		}
	}
}

// TestCoveringScriptRoundTrips: the Lemma 1 run survives JSON and, loaded
// back, meets its expectations through RunScript.
func TestCoveringScriptRoundTrips(t *testing.T) {
	for _, kind := range []Kind{KindRegEmu, KindABDMax, KindCASMax, KindAACMax} {
		s := CoveringScript(kind, 3, 1, 4)
		doc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadScript(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: LoadScript of the marshalled script: %v", kind, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(doc, again) {
			t.Fatalf("%s: script changed on the round trip:\n%s\n%s", kind, doc, again)
		}
		res, err := RunScript(testCtx(t), back)
		if err != nil || !res.Met() {
			t.Fatalf("%s: loaded script: %v, %+v", kind, err, res)
		}
	}
}
