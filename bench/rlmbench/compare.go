package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of a comparison row.
const (
	verdictGain       = "gain"
	verdictNoChange   = "no-change"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// row is the comparison of one metric on one workload.
type row struct {
	workload, metric string
	pairs            int
	parent, change   [3]float64 // first quartile, median, third quartile
	wins, ties, loss int
	verdict          string
	note             string
}

// compareMain implements `rlmbench compare PARENT.json... -- CHANGE.json...`:
// the section 8 rule of the choosing-metrics method over -json results of
// untraced runs.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var parentFiles, changeFiles []string
	sep := false
	for _, a := range fs.Args() {
		switch {
		case a == "--":
			sep = true
		case sep:
			changeFiles = append(changeFiles, a)
		default:
			parentFiles = append(parentFiles, a)
		}
	}
	if len(parentFiles) == 0 || len(changeFiles) == 0 {
		fmt.Fprintln(stderr, "usage: rlmbench compare [-benchmark BENCHMARK.json] PARENT.json... -- CHANGE.json...")
		return 2
	}
	specs, err := readSpecs(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "rlmbench compare:", err)
		return 2
	}
	load := func(files []string) ([]*result, error) {
		var out []*result
		for _, f := range files {
			rs, err := readResults(f)
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				if !r.Trace {
					out = append(out, r)
				}
			}
		}
		return out, nil
	}
	parents, err := load(parentFiles)
	if err != nil {
		fmt.Fprintln(stderr, "rlmbench compare:", err)
		return 2
	}
	changes, err := load(changeFiles)
	if err != nil {
		fmt.Fprintln(stderr, "rlmbench compare:", err)
		return 2
	}
	rows, warnings := compareRuns(specs, parents, changes)
	for _, w := range warnings {
		fmt.Fprintln(stdout, "warning:", w)
	}
	fmt.Fprintf(stdout, "%-16s %-14s %5s  %-32s %-32s %8s %9s  %s\n",
		"workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "delta", "win/tie/loss", "verdict")
	status := 0
	for _, r := range rows {
		delta := math.NaN()
		if r.parent[1] != 0 {
			delta = 100 * (r.change[1] - r.parent[1]) / math.Abs(r.parent[1])
		}
		fmt.Fprintf(stdout, "%-16s %-14s %5d  %-32s %-32s %+7.2f%% %3d/%d/%-3d  %s%s\n",
			r.workload, r.metric, r.pairs, quartiles(r.parent), quartiles(r.change), delta,
			r.wins, r.ties, r.loss, r.verdict, r.note)
		if r.verdict == verdictRegression && status == 0 {
			status = 1
		}
		if r.pairs < minPairs {
			status = 2
		}
	}
	return status
}

func quartiles(q [3]float64) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2]) }

func readSpecs(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// compareRuns pairs the i-th parent run of each workload with its i-th
// change run in start order and applies, per end-to-end metric:
//
//   - gain: the change wins at least nine tenths of the pairs (ties count
//     for neither side) and the medians differ by more than the parent's
//     interquartile range;
//   - unresolved: the parent's own spread (IQR over median) exceeds the
//     metric's bound, unless every change run reads better than every
//     parent run;
//   - regression: the change median is worse than the parent median by more
//     than the bound's share of it;
//   - no-change otherwise.
//
// A failure-share row per workload compares failed plus refused calls over
// attempted calls; when the change fails a larger share, it is a
// regression and no gain on that workload counts.
func compareRuns(specs []metricSpec, parents, changes []*result) ([]row, []string) {
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		for _, list := range m {
			sort.SliceStable(list, func(i, j int) bool { return list[i].Started < list[j].Started })
		}
		return m
	}
	ps, cs := byWorkload(parents), byWorkload(changes)
	var names []string
	for name := range ps {
		if _, ok := cs[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []row
	var warnings []string
	for _, wl := range names {
		p, c := ps[wl], cs[wl]
		n := min(len(p), len(c))
		p, c = p[:n], c[:n]
		parentFirst := 0
		for i := range p {
			if p[i].Started < c[i].Started {
				parentFirst++
			}
		}
		if d := 2*parentFirst - n; d > 1 || d < -1 {
			warnings = append(warnings, fmt.Sprintf("%s: %d of %d pairs ran the parent first; alternate which side runs first", wl, parentFirst, n))
		}
		failRow := compareFailures(wl, p, c)
		for _, spec := range specs {
			pv, cv := values(p, spec.Name), values(c, spec.Name)
			r := compareMetric(spec, pv, cv)
			r.workload = wl
			if r.verdict == verdictGain && failRow.verdict == verdictRegression {
				r.verdict, r.note = verdictNoChange, " (more calls failed than at the parent)"
			}
			rows = append(rows, r)
		}
		rows = append(rows, failRow)
	}
	return rows, warnings
}

func values(rs []*result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// compareMetric applies the rule to one metric's paired samples.
func compareMetric(spec metricSpec, p, c []float64) row {
	r := row{metric: spec.Name, pairs: len(p), parent: quartileSet(p), change: quartileSet(c)}
	better := func(a, b float64) bool {
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range p {
		switch {
		case better(c[i], p[i]):
			r.wins++
		case better(p[i], c[i]):
			r.loss++
		default:
			r.ties++
		}
	}
	pMed, cMed := r.parent[1], r.change[1]
	iqr := r.parent[2] - r.parent[0]
	rel := func(x float64) float64 {
		if pMed == 0 {
			return x
		}
		return x / math.Abs(pMed)
	}
	worse := cMed - pMed
	if spec.Better == "higher" {
		worse = -worse
	}
	allBetter := len(p) > 0
	for _, cv := range c {
		for _, pv := range p {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	switch {
	case len(p) < minPairs:
		r.verdict, r.note = verdictUnresolved, fmt.Sprintf(" (fewer than %d pairs)", minPairs)
	case better(cMed, pMed) && 10*r.wins >= 9*len(p) && math.Abs(cMed-pMed) > iqr:
		r.verdict = verdictGain
	case rel(iqr) > spec.Bound && !allBetter:
		r.verdict, r.note = verdictUnresolved, fmt.Sprintf(" (parent spread %.3f > bound %.3f)", rel(iqr), spec.Bound)
	case rel(worse) > spec.Bound:
		r.verdict = verdictRegression
	default:
		r.verdict = verdictNoChange
	}
	return r
}

// compareFailures is the failure-share row of one workload.
func compareFailures(wl string, p, c []*result) row {
	share := func(rs []*result) (float64, []float64) {
		var bad, all int
		per := make([]float64, len(rs))
		for i, r := range rs {
			bad += r.Failed + r.Refused
			all += r.Attempted
			if r.Attempted > 0 {
				per[i] = float64(r.Failed+r.Refused) / float64(r.Attempted)
			}
		}
		if all == 0 {
			return 0, per
		}
		return float64(bad) / float64(all), per
	}
	ps, pv := share(p)
	cs, cv := share(c)
	r := row{workload: wl, metric: "fail_share", pairs: len(p), parent: quartileSet(pv), change: quartileSet(cv), verdict: verdictNoChange}
	r.note = fmt.Sprintf(" (pooled %.4g -> %.4g)", ps, cs)
	if cs > ps {
		r.verdict = verdictRegression
	}
	return r
}

// quartileSet returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method), so the spreads match the ones the benchmark's bounds
// were validated with.
func quartileSet(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
