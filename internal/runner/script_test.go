package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
