package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json declares what the harness prints; the two are written by
// hand in different files, so this test is what keeps them the same list.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: declared %q (%q), harness has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, harness prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end metric %d: declared %+v, harness has %+v", i, got, d)
		}
		if got.Bound == nil || *got.Bound < 0 || *got.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound missing or outside [0, 0.25]", d.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, harness prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: declared %+v, harness has %+v", i, got, d)
		}
	}
}

func sp(v float64) *float64 { return &v }

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name         string
		a, b         metricSummary
		higherBetter bool
		bound        float64
		want         string
	}{
		{"lower-better within bound", metricSummary{Median: 100, Spread: sp(0.01)}, metricSummary{Median: 104, Spread: sp(0.01)}, false, 0.05, "ok"},
		{"lower-better past bound", metricSummary{Median: 100, Spread: sp(0.01)}, metricSummary{Median: 106, Spread: sp(0.01)}, false, 0.05, "regressed"},
		{"lower-better improved", metricSummary{Median: 100, Spread: sp(0.01)}, metricSummary{Median: 50, Spread: sp(0.01)}, false, 0.05, "ok"},
		{"higher-better within bound", metricSummary{Median: 100, Spread: sp(0.01)}, metricSummary{Median: 96, Spread: sp(0.01)}, true, 0.05, "ok"},
		{"higher-better past bound", metricSummary{Median: 100, Spread: sp(0.01)}, metricSummary{Median: 94, Spread: sp(0.01)}, true, 0.05, "regressed"},
		{"spread wider than bound", metricSummary{Median: 100, Spread: sp(0.08)}, metricSummary{Median: 101, Spread: sp(0.01)}, false, 0.05, "unresolved"},
		{"single runs carry no spread", metricSummary{Median: 100}, metricSummary{Median: 101}, false, 0.05, "ok"},
		{"exact count unchanged", metricSummary{Median: 3, Spread: sp(0)}, metricSummary{Median: 3, Spread: sp(0)}, false, 0, "ok"},
	} {
		if got := judge(c.a, c.b, c.higherBetter, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.05},
		{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
	}})
	report := func(ops, p50 []float64, failed int64) *envelope {
		wr := workloadReport{Name: "w"}
		for i := range ops {
			wr.Runs = append(wr.Runs, &runResult{Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{
				"ops_per_s": {Value: ops[i], Unit: "ops/s"},
				"p50_ms":    {Value: p50[i], Unit: "ms"},
			}})
		}
		wr.summarize()
		return &envelope{Repeats: len(ops), Workloads: []workloadReport{wr}}
	}
	base := write("a.json", report([]float64{1000, 1001, 999, 1000}, []float64{2.0, 2.01, 1.99, 2.0}, 0))

	for _, c := range []struct {
		name          string
		b             *envelope
		wantRegressed bool
		wantRows      []string
	}{
		{"same", report([]float64{1002, 1000, 1001, 999}, []float64{2.0, 2.02, 2.0, 1.98}, 0), false, []string{"ops_per_s", "p50_ms", "ok"}},
		{"slower", report([]float64{900, 901, 899, 900}, []float64{2.0, 2.0, 2.0, 2.0}, 0), true, []string{"regressed"}},
		{"noisy", report([]float64{1000, 1000, 1000, 1000}, []float64{1.6, 2.4, 1.7, 2.3}, 0), false, []string{"unresolved"}},
		{"more failures", report([]float64{1000, 1001, 999, 1000}, []float64{2.0, 2.01, 1.99, 2.0}, 3), true, []string{"failed_frac", "regressed"}},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, base, write("b.json", c.b))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.wantRegressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.wantRegressed, out.String())
		}
		for _, want := range c.wantRows {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q\n%s", c.name, want, out.String())
			}
		}
	}
}

func TestProcCPUReadsOwnProcess(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if _, err := procCPU(-1); err == nil {
		t.Fatal("procCPU(-1) succeeded")
	}
}
