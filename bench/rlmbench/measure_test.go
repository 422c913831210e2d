package main

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		xs   []float64
		p    float64
		minN int
		want float64
		err  string
	}{
		{name: "single", xs: []float64{7}, p: 50, minN: 1, want: 7},
		{name: "median of four is the second", xs: []float64{4, 1, 3, 2}, p: 50, minN: 1, want: 2},
		{name: "median of five", xs: seq(5), p: 50, minN: 1, want: 3},
		{name: "p90 of 100 is the 90th", xs: seq(100), p: 90, minN: 100, want: 90},
		{name: "p90 of 101 is the 91st", xs: seq(101), p: 90, minN: 100, want: 91},
		{name: "p100 is the maximum", xs: seq(10), p: 100, minN: 1, want: 10},
		{name: "p90 refused below 100 samples", xs: seq(99), p: 90, minN: 100, err: "needs at least 100 samples, have 99"},
		{name: "empty refused", xs: nil, p: 50, minN: 1, err: "have 0"},
		{name: "p0 refused", xs: seq(3), p: 0, minN: 1, err: "outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := percentile(tc.xs, tc.p, tc.minN)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("percentile = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

// An end-to-end p90 from fewer than 100 headline calls fails the run, however
// many other calls it made.
func TestEndToEndRefusesShortP90(t *testing.T) {
	r := newRecorder(false)
	calls := func(name string, n int) {
		for i := 0; i < n; i++ {
			_ = r.call(name, 0, func() error { return nil })
		}
		r.endUnit()
		r.setSpeed(1)
	}
	calls("rlm.Load", 99)
	calls("rlm.Unload", 200)
	if _, _, err := endToEnd(r, []float64{1}, "rlm.Load", minP90Samples); err == nil || !strings.Contains(err.Error(), "op_ms_p90") {
		t.Fatalf("endToEnd with 99 headline samples: err = %v, want a refused op_ms_p90", err)
	}
	calls("rlm.Load", 1)
	m, samples, err := endToEnd(r, []float64{1}, "rlm.Load", minP90Samples)
	if err != nil {
		t.Fatal(err)
	}
	if samples["op_ms_p90"] != 100 || m["op_ms_p90"].Unit != "ref_ms" {
		t.Fatalf("p90 reported as %+v from %d samples", m["op_ms_p90"], samples["op_ms_p90"])
	}
	if _, _, err := endToEnd(r, []float64{1}, "rlm.Move", minP90Samples); err == nil {
		t.Fatal("endToEnd with no headline calls reported latencies")
	}
}

func TestRecorderRegionExcludesUntimedWork(t *testing.T) {
	r := newRecorder(true)
	r.region("sched.Run", 1, func() {
		r.untimed("itc99.Generate", func() {})
		_ = r.call("rlm.Load", 7, func() error { return nil })
		r.span("rearrange.Plan", 0, func() {})
	})
	if r.calls != 1 || len(r.tr.spans) != 4 {
		t.Fatalf("calls %d, spans %d; want 1 and 4", r.calls, len(r.tr.spans))
	}
	run := r.tr.spans[0]
	for _, sp := range r.tr.spans[1:] {
		if sp.Parent != run.ID {
			t.Errorf("%s: parent %d, want %d", sp.Name, sp.Parent, run.ID)
		}
	}
	if load := r.tr.spans[2]; load.Op != 7 {
		t.Errorf("rlm.Load op %d, want its own op 7", load.Op)
	}
	if plan := r.tr.spans[3]; plan.Op != 1 {
		t.Errorf("rearrange.Plan op %d, want the enclosing op 1", plan.Op)
	}
	if self := selfSeconds(r.tr.spans, "sched.Run"); self < 0 {
		t.Errorf("sched.Run self time %v < 0", self)
	}
}

// Host-time figures are divided by the speed factor measured after each
// unit: a unit that ran on a host twice as slow counts as half its time.
func TestRecorderReferenceTime(t *testing.T) {
	r := newRecorder(false)
	r.lat = []float64{10, 10, 20, 20}
	r.names = []string{"a", "b", "a", "b"}
	r.calls = 4
	r.units = []unitStat{
		{first: 0, calls: 2, wall: 20 * time.Millisecond, speed: 1},
		{first: 2, calls: 2, wall: 40 * time.Millisecond},
	}
	r.setSpeed(2) // measured after the second unit only
	if r.units[0].speed != 1 || r.units[1].speed != 2 {
		t.Fatalf("speeds %v, %v after setSpeed(2)", r.units[0].speed, r.units[1].speed)
	}
	if got := r.throughput(); got != 100 {
		t.Errorf("throughput = %v, want 100", got)
	}
	if got := r.refLatencies("a"); !slices.Equal(got, []float64{10, 10}) {
		t.Errorf("refLatencies = %v", got)
	}
}
