package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartileSetMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		if got := quartileSet(tc.xs); got != tc.want {
			t.Errorf("quartileSet(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func seq(from, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = from + step*float64(i)
	}
	return xs
}

func TestCompareMetric(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name    string
		spec    metricSpec
		p, c    []float64
		verdict string
		wins    int
	}{
		{"clear gain, higher is better", higher, seq(100, 1, 10), seq(120, 1, 10), verdictGain, 10},
		{"clear gain, lower is better", lower, seq(10, 0.01, 10), seq(8, 0.01, 10), verdictGain, 10},
		{"nine of ten wins still a gain", lower, seq(10, 0.01, 10),
			append(seq(8, 0.01, 9), 11), verdictGain, 9},
		{"eight of ten wins is not a gain", lower, seq(10, 0.01, 10),
			append(seq(9.5, 0.01, 8), 11, 11), verdictNoChange, 8},
		{"win inside the parent's spread is not a gain", lower, seq(10, 0.1, 10),
			seq(9.9, 0.1, 10), verdictNoChange, 10},
		{"ties count for neither side", lower, seq(10, 0.01, 10), seq(10, 0.01, 10), verdictNoChange, 0},
		{"small slowdown within the bound", lower, seq(10, 0.01, 10), seq(10.5, 0.01, 10), verdictNoChange, 0},
		{"slowdown beyond the bound", lower, seq(10, 0.01, 10), seq(12, 0.01, 10), verdictRegression, 0},
		{"throughput drop beyond the bound", higher, seq(100, 0.1, 10), seq(85, 0.1, 10), verdictRegression, 0},
		{"parent spread wider than the bound", lower, seq(10, 1, 10), seq(14, 1, 10), verdictUnresolved, 0},
		{"wide spread but every change run better", lower, []float64{10, 20, 10, 20, 10, 20, 10, 20, 10, 20},
			seq(9.5, 0.05, 10), verdictNoChange, 10},
		{"too few pairs", lower, seq(10, 0.01, 9), seq(8, 0.01, 9), verdictUnresolved, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := compareMetric(tc.spec, tc.p, tc.c)
			if r.verdict != tc.verdict || r.wins != tc.wins {
				t.Fatalf("verdict %s (%d wins, %d ties, %d losses)%s; want %s with %d wins",
					r.verdict, r.wins, r.ties, r.loss, r.note, tc.verdict, tc.wins)
			}
		})
	}
}

// synthRuns builds runs of one side. Pair i starts at 10i; the side with
// side == i%2 runs first in it, so two sides built with sides 0 and 1
// alternate.
func synthRuns(workload string, lat []float64, failed int, side int) []*result {
	var out []*result
	for i, v := range lat {
		start := int64(10 * i)
		if side != i%2 {
			start++
		}
		out = append(out, &result{
			Workload: workload, Started: start,
			Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"op_ms_p50": {v, "ms"}},
		})
	}
	return out
}

func TestCompareRunsFailureShareVoidsGain(t *testing.T) {
	specs := []metricSpec{{Name: "op_ms_p50", Better: "lower", Bound: 0.10}}
	parents := synthRuns("w", seq(10, 0.01, 10), 0, 0)
	for _, tc := range []struct {
		name              string
		failed            int
		latency, failRows string
	}{
		{"no extra failures", 0, verdictGain, verdictNoChange},
		{"more failures", 3, verdictNoChange, verdictRegression},
	} {
		t.Run(tc.name, func(t *testing.T) {
			changes := synthRuns("w", seq(8, 0.01, 10), tc.failed, 1)
			rows, warnings := compareRuns(specs, parents, changes)
			if len(warnings) > 0 {
				t.Errorf("alternating pairs warned: %v", warnings)
			}
			if len(rows) != 2 || rows[0].verdict != tc.latency || rows[1].metric != "fail_share" || rows[1].verdict != tc.failRows {
				t.Fatalf("rows %+v; want latency %s, fail_share %s", rows, tc.latency, tc.failRows)
			}
		})
	}
}

func TestCompareRunsWarnsOnSameOrder(t *testing.T) {
	specs := []metricSpec{{Name: "op_ms_p50", Better: "lower", Bound: 0.10}}
	parents := synthRuns("w", seq(10, 0.01, 10), 0, 0)
	changes := synthRuns("w", seq(10, 0.01, 10), 0, 1)
	for _, c := range changes {
		c.Started += 1000 // every change run after every parent run
	}
	if _, warnings := compareRuns(specs, parents, changes); len(warnings) != 1 {
		t.Fatalf("warnings %v, want one about the run order", warnings)
	}
}

func TestCompareMainReportsRows(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs []*result) string {
		path := filepath.Join(dir, name)
		for _, r := range rs {
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p := write("parent.json", synthRuns("w", seq(10, 0.01, 10), 0, 0))
	c := write("change.json", synthRuns("w", seq(12, 0.01, 10), 0, 1))
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-benchmark", bench, p, "--", c}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "op_ms_p50") || !strings.Contains(out.String(), verdictRegression) {
		t.Fatalf("report lacks the regression row:\n%s", out.String())
	}
	if code := compareMain([]string{"-benchmark", bench, p}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d without change files, want 2", code)
	}
}
