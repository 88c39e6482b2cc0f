package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

// envelope is the result file: what ran, where, and what it measured, so a
// number can be traced to its commit, machine and seed.
type envelope struct {
	Commit     string           `json:"commit"`
	Dirty      bool             `json:"dirty"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	WindowS    int              `json:"window_s"`
	Repeats    int              `json:"repeats"`
	Started    time.Time        `json:"started"`
	Workloads  []workloadReport `json:"workloads"`
}

// workloadReport is one workload's runs and their per-metric summary.
type workloadReport struct {
	Name      string                   `json:"name"`
	Why       string                   `json:"why"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]metricSummary `json:"metrics"`
	Runs      []*runResult             `json:"runs"`
}

// metricSummary is one metric across a workload's runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run, in run order
	Median float64   `json:"median"`
	// Spread is the interquartile distance over the median; absent with
	// fewer than two runs.
	Spread *float64 `json:"spread,omitempty"`
	N      int64    `json:"n"` // samples behind one run's value (first run)
}

func newEnvelope(seed int64, seconds, repeats int) *envelope {
	rev, dirty := strings.CutSuffix(buildinfo.GitCommit(), "-dirty")
	if !dirty {
		// Under `go run` the toolchain omits the VCS stamp and buildinfo
		// falls back to `git rev-parse HEAD`, which cannot see uncommitted
		// changes; ask git directly. Outside a git checkout this reads clean.
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return &envelope{
		Commit: rev, Dirty: dirty,
		GoVersion: buildinfo.GoVersion(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, WindowS: seconds, Repeats: repeats, Started: time.Now().UTC(),
	}
}

// summarize folds the runs' metrics into per-metric value lists.
func (wr *workloadReport) summarize() {
	wr.Metrics = make(map[string]metricSummary)
	for _, r := range wr.Runs {
		if !r.Trace {
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
		}
		for name, m := range r.Metrics {
			s := wr.Metrics[name]
			if len(s.Values) == 0 {
				s.Unit, s.N = m.Unit, m.N
			}
			s.Values = append(s.Values, m.Value)
			wr.Metrics[name] = s
		}
	}
	for name, s := range wr.Metrics {
		s.Median = median(s.Values)
		if sp, ok := spread(s.Values); ok {
			s.Spread = &sp
		}
		wr.Metrics[name] = s
	}
}

func (e *envelope) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readEnvelope(path string) (*envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians and a verdict — ok, regressed (b worse than a by more than the
// metric's bound) or unresolved (either side's spread is wider than the
// bound, so "no change" cannot be claimed) — and reports whether anything
// regressed. More failed ops in b than in a is a regression whatever the
// metrics say.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (regressed bool, err error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readEnvelope(aPath)
	if err != nil {
		return false, err
	}
	b, err := readEnvelope(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %.12s dirty=%v  %d run(s) x %ds\n", aPath, a.Commit, a.Dirty, a.Repeats, a.WindowS)
	fmt.Fprintf(w, "b: %s  commit %.12s dirty=%v  %d run(s) x %ds\n", bPath, b.Commit, b.Dirty, b.Repeats, b.WindowS)
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "a.median", "b.median", "change", "bound", "a.spread", "b.spread", "verdict")
	byName := make(map[string]*workloadReport, len(b.Workloads))
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := judge(ma, mb, m.Better == "higher", m.Bound)
			regressed = regressed || v.verdict == "regressed"
			fmt.Fprintf(w, "%-20s %-16s %14.4f %14.4f %+7.1f%% %6.1f%% %8s %8s  %s\n",
				wa.Name, m.Name, ma.Median, mb.Median, 100*v.change, 100*m.Bound, pct(ma.Spread), pct(mb.Spread), v.verdict)
		}
		fa, fb := failedFrac(wa), failedFrac(wb)
		verdict := "ok"
		if fb > fa {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-20s %-16s %14.6f %14.6f %8s %7s %8s %8s  %s\n", wa.Name, "failed_frac", fa, fb, "", "", "", "", verdict)
	}
	return regressed, nil
}

type judgement struct {
	change  float64 // relative change of b over a, signed as measured
	verdict string
}

// judge compares two summaries of one metric.
func judge(a, b metricSummary, higherBetter bool, bound float64) judgement {
	var j judgement
	if a.Median != 0 {
		j.change = (b.Median - a.Median) / a.Median
	}
	worse := j.change
	if higherBetter {
		worse = -j.change
	}
	switch {
	case worse > bound:
		j.verdict = "regressed"
	case (a.Spread != nil && *a.Spread > bound) || (b.Spread != nil && *b.Spread > bound):
		j.verdict = "unresolved"
	default:
		j.verdict = "ok"
	}
	return j
}

func failedFrac(wr *workloadReport) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

func pct(p *float64) string {
	if p == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100**p)
}
