package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func (bf benchmarkFile) bound(t *testing.T, name string) float64 {
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %q", name)
	return 0
}

func runBench(t *testing.T, cfg config) *result {
	t.Helper()
	cfg.workdir = t.TempDir()
	cfg.out = io.Discard
	if testing.Verbose() {
		cfg.out = os.Stderr
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func metricNames(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// The benchmark prints exactly the metrics BENCHMARK.json declares: the
// end-to-end ones untraced, the per-layer ones traced. Every check passes
// on update-reanalytics, where peers reuse records one round apart.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bf := loadBenchmarkFile(t)
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, tc := range []struct {
		trace bool
		want  []string
	}{{false, e2e}, {true, layer}} {
		res := runBench(t, config{workload: "update-reanalytics", seed: 1, seconds: time.Second, trace: tc.trace})
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace=%t: correct=%t failed=%d", tc.trace, res.Correct, res.Failed)
		}
		got := metricNames(res.Metrics)
		if len(got) != len(tc.want) {
			t.Fatalf("trace=%t: got %d metrics %v, BENCHMARK.json declares %d %v", tc.trace, len(got), got, len(tc.want), tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("trace=%t: metric %q printed, BENCHMARK.json has %q", tc.trace, got[i], tc.want[i])
			}
		}
		for n, m := range res.Metrics {
			if !tc.trace && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
			}
		}
	}
}

// The traced run goes through the decorators, including the window-view
// estimators of the time-series graph, and must still score every unit
// exactly as the untraced program does.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, trace := range []bool{false, true} {
		res := runBench(t, config{workload: "timeseries-teg", seed: 2, seconds: time.Second, trace: trace})
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace=%t: correct=%t failed=%d", trace, res.Correct, res.Failed)
		}
	}
}

// worse reports by what share after is worse than before.
func worse(before, after float64) float64 { return after/before - 1 }

// A deliberately slowed DARR persist layer must push cold-search time on
// update-reanalytics, where the fsync'd DARR writes sit on the search's
// critical path, past its bound, and leave regression-teg, where compute
// dominates, inside it. An unmodified rerun stays inside the bound.
func TestSelfTestDetectsSlowedPersistLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	const metricName = "cold_search_p50_s"
	bound := loadBenchmarkFile(t).bound(t, metricName)
	const delay = 10 * time.Millisecond
	seconds := 4 * time.Second

	base := runBench(t, config{workload: "update-reanalytics", seed: 3, seconds: seconds})
	rerun := runBench(t, config{workload: "update-reanalytics", seed: 3, seconds: seconds})
	slow := runBench(t, config{workload: "update-reanalytics", seed: 3, seconds: seconds, darrDelay: delay})
	b, r, s := base.Metrics[metricName].Value, rerun.Metrics[metricName].Value, slow.Metrics[metricName].Value
	t.Logf("update-reanalytics %s: base %.4fs, rerun %.4fs (%+.1f%%), slowed %.4fs (%+.1f%%), bound %.0f%%",
		metricName, b, r, 100*worse(b, r), s, 100*worse(b, s), 100*bound)
	if w := worse(b, r); w > bound {
		t.Errorf("unmodified rerun is %.1f%% worse, past the %.0f%% bound", 100*w, 100*bound)
	}
	if w := worse(b, s); w <= bound {
		t.Errorf("slowed persist layer moved %s by only %.1f%%, inside the %.0f%% bound", metricName, 100*w, 100*bound)
	}

	ctrl := runBench(t, config{workload: "regression-teg", seed: 3, seconds: seconds})
	ctrlSlow := runBench(t, config{workload: "regression-teg", seed: 3, seconds: seconds, darrDelay: delay})
	cb, cs := ctrl.Metrics[metricName].Value, ctrlSlow.Metrics[metricName].Value
	t.Logf("regression-teg %s: base %.4fs, slowed %.4fs (%+.1f%%)", metricName, cb, cs, 100*worse(cb, cs))
	if w := worse(cb, cs); w > bound {
		t.Errorf("slowed persist layer moved the control workload's %s by %.1f%%, past the %.0f%% bound", metricName, 100*w, 100*bound)
	}
}

func TestTail(t *testing.T) {
	var s samples
	for i := 1; i <= 30; i++ {
		s = append(s, float64(i))
	}
	if v, pct := s.tail(); v != 20 || pct < 66 || pct > 67 {
		t.Errorf("tail of 1..30 = %v at p%v, want 20 (ten samples above it) at p66.7", v, pct)
	}
	if v, pct := s[:15].tail(); v != 8 || pct != 50 {
		t.Errorf("tail of 1..15 = %v at p%v, want the median 8 at p50", v, pct)
	}
	var long samples
	for i := 1; i <= 1000; i++ {
		long = append(long, float64(i))
	}
	if v, pct := long.tail(); v != 950 || pct != 95 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 950 at p95", v, pct)
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 30 (10..40) + 10 (90..100) = 40", got)
	}
}
