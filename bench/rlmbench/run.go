package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // sets the work per workload: seconds / the unit's nominal cost
	units    int     // > 0: run exactly this many work units instead (the self-test)
	planned  int     // the units the run plans; set by runWorkload before its set-ups
	trace    bool
	traceDir string
	dir      string // scratch directory for journal files
	// tiny shrinks every input and runs one set-up; the self-test uses it.
	// A tiny run reports a p90 from any sample count.
	tiny bool
}

// bench is one workload. setup builds its world; unit runs one
// deterministic slice of timed work; finish drains what the last unit left
// in flight; audit checks the outputs after the measured units.
type bench interface {
	setup() error
	unit(r *recorder, i int) error
	finish(r *recorder) error
	audit(r *recorder) error
	counters() counters
	inputs() string // a description of the seeded inputs, digested into the result
	close()
}

// workloadDef names a workload. unitSeconds is a unit's nominal host cost,
// timed and untimed work together, in reference seconds (see hostSpeed) on
// the 2-core machine the bounds were validated on: a run does
// seconds/unitSeconds units, so every run of one length does the same work
// unless it hits the maxStretch cap. headline is the span name of the call a user of the workload waits on;
// op_ms_p50 and op_ms_p90 are its latencies.
type workloadDef struct {
	name        string
	new         func(c *config) bench
	unitSeconds float64
	headline    string
}

// maxStretch caps a run's measuring time at maxStretch x seconds of wall
// time. The host this benchmark runs on is shared, and at times the
// hypervisor takes half its CPU time, which stretches a run by three to
// four times. When that happens a run stops after the unit that crosses
// the cap, as long as it has the calls a p90 needs, so that the whole
// benchmark still ends in its time budget. Such a run reports the units it
// did out of those it planned.
const maxStretch = 2.0

var workloads = []workloadDef{
	{"tab2-relocate", newTab2, 1.5, "relocate.RelocateCLB"},
	{"task-stream", newTaskStream, 1.5, "rlm.Load"},
	{"journaled-churn", newChurn, 0.6, "rlm.Move"},
	{"crash-recover", newCrash, 0.035, "rlm.Recover"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports. Metrics holds the
// end-to-end metrics (measured with tracing off unless Trace is set),
// Detail the per-operation latencies and workload-specific figures, and
// Layers the per-layer metrics of a traced run.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Started  int64  `json:"started_unix_ns"`
	Inputs   string `json:"inputs"`
	Headline string `json:"headline"`
	Units    int    `json:"units"`
	// PlannedUnits is the units the run's length asks for; Units falls
	// short of it when the run hit its maxStretch cap.
	PlannedUnits int               `json:"planned_units"`
	Correct      bool              `json:"correct"`
	Audit        string            `json:"audit,omitempty"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Refused      int               `json:"refused"`
	Metrics      map[string]metric `json:"metrics"`
	Samples      map[string]int    `json:"samples"`
	Detail       map[string]metric `json:"detail"`
	Layers       map[string]metric `json:"layers,omitempty"`
	SetupRuns    []float64         `json:"setup_runs_s"`
	HostSpeed    []float64         `json:"host_speed"`

	spans   []span
	profile []byte
}

// runtimeStats are the process-wide runtime/metrics counters a run reads
// before and after its measured units.
type runtimeStats struct {
	gcCycles uint64
	gcCPU    float64
	allocs   uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: mAllocs},
	}
	metrics.Read(s)
	return runtimeStats{gcCycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
}

// runWorkload sets the workload up several times, keeping the last, runs
// its units, drains, audits and assembles every metric. An error means the
// harness itself broke; a failed audit is reported in the result.
func runWorkload(c *config, def workloadDef) (*result, error) {
	res := &result{Workload: def.name, Seed: c.seed, Trace: c.trace, Started: time.Now().UnixNano(), Headline: def.headline}
	// Set up at least three times, and until the set-ups add up to three
	// quarters of a second, so that a set-up of a few milliseconds still has
	// a steady median and a set-up of half a second is not repeated more
	// than its median needs.
	// Set-up times are in reference seconds like the other host times (see
	// hostSpeed): each is divided by the speed factor measured after it.
	hs, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	defer hs.close()
	c.planned = c.units
	if c.units <= 0 {
		c.planned = max(1, int(math.Round(c.seconds/def.unitSeconds)))
	}
	minSetups, budget := 3, 0.75
	if c.tiny {
		minSetups, budget = 1, 0
	}
	var b bench
	var pending []float64 // host seconds of the set-ups since the last speed measurement
	total := 0.0
	for i := 0; i < minSetups || (total < budget && i < 200); i++ {
		if b != nil {
			b.close()
		}
		b = def.new(c)
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.close()
			return nil, fmt.Errorf("%s: setup: %w", def.name, err)
		}
		d := time.Since(t0).Seconds()
		total += d
		pending = append(pending, d)
		if hs.stale() || (i+1 >= minSetups && total >= budget) {
			f := hs.measure()
			for _, p := range pending {
				res.SetupRuns = append(res.SetupRuns, p/f)
			}
			pending = pending[:0]
		}
	}
	defer b.close()
	h := fnv.New64a()
	h.Write([]byte(b.inputs()))
	res.Inputs = fmt.Sprintf("%016x", h.Sum64())

	runtime.GC() // start the measured units from the set-up's live heap only
	r := newRecorder(c.trace)
	before, rt0 := b.counters(), readRuntime()
	var prof bytes.Buffer
	if c.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	minP90 := minP90Samples
	if c.tiny {
		minP90 = 1
	}
	res.PlannedUnits = c.planned
	limit := time.Duration(maxStretch * c.seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; i < res.PlannedUnits; i++ {
		if err := b.unit(r, i); err != nil {
			if c.trace {
				pprof.StopCPUProfile()
			}
			return nil, fmt.Errorf("%s: unit %d: %w", def.name, i, err)
		}
		r.endUnit()
		res.Units++
		last := i == res.PlannedUnits-1 || c.units <= 0 && len(r.latencies(def.headline)) >= minP90 && time.Since(t0) >= limit
		if last || hs.stale() {
			r.setSpeed(hs.measure())
		}
		if last {
			break
		}
	}
	res.HostSpeed = hs.samples
	err = b.finish(r)
	if c.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: final drain: %w", def.name, err)
	}
	delta := b.counters().sub(before)
	rt1 := readRuntime()
	res.Correct = true
	if err := b.audit(r); err != nil {
		res.Correct, res.Audit = false, err.Error()
	}
	res.Attempted, res.Failed, res.Refused = r.calls, r.failed, r.refused
	if res.Metrics, res.Samples, err = endToEnd(r, res.SetupRuns, def.headline, minP90); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	res.Detail = detail(r, delta)
	if c.trace {
		res.spans, res.profile = r.tr.spans, prof.Bytes()
		cpu, err := parseProfile(res.profile)
		if err != nil {
			return nil, fmt.Errorf("%s: decoding CPU profile: %w", def.name, err)
		}
		res.Layers = layers(r, delta, rt1.sub(rt0), cpu)
	}
	return res, nil
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU, allocs: a.allocs - b.allocs}
}

// endToEnd assembles the metrics a user of the manager sees, with the
// sample count of every latency: op_ms_p50 and op_ms_p90 are the latencies
// of the headline calls, the other metrics cover every timed call.
func endToEnd(r *recorder, setupRuns []float64, headline string, minP90 int) (map[string]metric, map[string]int, error) {
	lat := r.refLatencies(headline)
	if len(lat) == 0 {
		return nil, nil, fmt.Errorf("no timed %s calls", headline)
	}
	p90, err := percentile(lat, 90, minP90)
	if err != nil {
		return nil, nil, fmt.Errorf("op_ms_p90 of %s: %w; raise -seconds", headline, err)
	}
	n := float64(r.calls)
	m := map[string]metric{
		"setup_s":       {median(setupRuns), "s"},
		"ops_per_s":     {r.throughput(), "1/ref_s"},
		"op_ms_p50":     {median(lat), "ref_ms"},
		"op_ms_p90":     {p90, "ref_ms"},
		"ok_ratio":      {float64(r.calls-r.failed-r.refused) / n, "ratio"},
		"mem_kb_per_op": {float64(r.allocBytes) / 1024 / n, "KiB"},
		"live_heap_mb":  {median(r.live), "MiB"},
	}
	samples := map[string]int{"op_ms_p50": len(lat), "op_ms_p90": len(lat)}
	return m, samples, nil
}

// opLatencies maps the per-operation latency names of the report to the
// span names their samples are recorded under.
var opLatencies = []struct{ prefix, span string }{
	{"reloc_clb_ms", "relocate.RelocateCLB"},
	{"load_ms", "rlm.Load"},
	{"move_ms", "rlm.Move"},
	{"unload_ms", "rlm.Unload"},
	{"scrub_ms", "rlm.Scrub"},
	{"recover_ms", "rlm.Recover"},
}

// detail reports each operation kind's latency (a p90 only from at least
// minP90Samples samples; the sample count travels as <name>_n) and the
// workload-specific figures.
func detail(r *recorder, d counters) map[string]metric {
	m := map[string]metric{
		"op_fail_ratio": {float64(r.failed+r.refused) / float64(r.calls), "ratio"},
	}
	for _, o := range opLatencies {
		xs := r.latencies(o.span)
		if len(xs) == 0 {
			continue
		}
		m[o.prefix+"_n"] = metric{float64(len(xs)), "count"}
		m[o.prefix+"_p50"] = metric{median(xs), "ms"}
		if p90, err := percentile(xs, 90, minP90Samples); err == nil {
			m[o.prefix+"_p90"] = metric{p90, "ms"}
		}
	}
	m["sim_ms_per_op"] = metric{d.portSim * 1e3 / float64(r.calls), "sim_ms"}
	if d.st.CLBsRelocated > 0 {
		m["sim_ms_per_clb"] = metric{d.portSim * 1e3 / float64(d.st.CLBsRelocated), "sim_ms"}
	}
	if d.sched.Submitted > 0 {
		m["alloc_rate"] = metric{d.allocRate(), "ratio"}
	}
	return m
}

// writeTrace writes the spans, the CPU profile and the per-layer metrics of
// a traced run into dir.
func writeTrace(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(res.spans)
	if err != nil {
		return err
	}
	layersJSON, err := json.MarshalIndent(res.Layers, "", "  ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		res.Workload + ".spans.json":  spans,
		res.Workload + ".cpu.pprof":   res.profile,
		res.Workload + ".layers.json": layersJSON,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// rng is a splitmix64 generator: the bench derives every seeded input from
// it, so inputs never change between Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a Fisher-Yates permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
