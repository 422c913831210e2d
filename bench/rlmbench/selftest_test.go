package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// self-test checks the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// deterministic lists the metrics that depend only on the inputs and the
// number of units: simulated time, the layers' work counters and outcomes.
// Host times, overlap with the background stream and journal sizes (the
// post records carry host planning time) are excluded.
var deterministic = []string{
	"ok_ratio", "bitstream.sim_ms_per_op",
	"relocate.cells_relocated", "relocate.clbs_relocated", "relocate.nets_relocated",
	"relocate.aux_circuits", "relocate.frames_written", "relocate.frames_per_clb",
	"bitstream.words_shifted", "bitstream.full_words", "bitstream.compression_ratio",
	"bitstream.frames_delivered", "bitstream.port_sim_s", "bitstream.tck_per_frame",
	"bitstream.sim_ms_per_clb",
	"rlm.faults_detected", "rlm.fault_retries", "rlm.retries_exhausted", "rlm.retry_sim_s",
	"rlm.scrub_checked", "rlm.scrub_repairs", "rlm.scrub_sim_s", "faultport.faults",
	"rlm.events_total",
	"rlm.recover.frames_checked", "rlm.recover.recovery_sim_s",
	"sched.submitted", "sched.rejected", "sched.placed_after_rearrange",
	"sched.physical_place_failures", "sched.relocated_clbs", "sched.alloc_rate",
	"area.fragmentation_mean", "area.utilisation_mean",
	"relocate.RelocateCLB.calls", "rlm.Load.calls", "rlm.Unload.calls", "rlm.Move.calls",
	"rlm.Scrub.calls", "rlm.Recover.calls", "rearrange.Plan.calls", "sched.Run.calls",
}

// TestWorkloadsTiny runs every workload at a tiny size: each must pass its
// audit, print exactly the metrics BENCHMARK.json lists, repeat every
// deterministic metric on a second run of the same seed, and take other
// inputs from another seed.
func TestWorkloadsTiny(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		def, ok := workloadByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not run by the bench", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			run := func() *result {
				t.Helper()
				c := &config{workload: w.Name, seed: 1, units: 1, trace: true, dir: t.TempDir(), tiny: true}
				res, err := runWorkload(c, def)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("audit failed: %s", res.Audit)
				}
				return res
			}
			// checkLine parses the result line an untraced or a traced run
			// prints and checks it names exactly the metrics BENCHMARK.json
			// lists for that mode.
			checkLine := func(res *result, trace bool) {
				t.Helper()
				shown := *res
				shown.Trace = trace
				line, err := resultLine(&shown)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   *bool             `json:"correct"`
					Attempted *int              `json:"attempted"`
					Failed    *int              `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil || parsed.Correct == nil ||
					parsed.Attempted == nil || *parsed.Attempted < 1 || parsed.Failed == nil {
					t.Fatalf("result line %s: %v", line, err)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(parsed.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(parsed.Metrics), len(want))
				}
				for _, spec := range want {
					m, ok := parsed.Metrics[spec.Name]
					if !ok || m.Unit != spec.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", spec.Name, m, ok, spec.Unit)
					}
				}
			}
			a, b := run(), run()
			checkLine(a, false)
			checkLine(a, true)
			for _, spec := range bf.EndToEnd {
				if a.Metrics[spec.Name].Value == 0 {
					t.Errorf("end-to-end %s is 0", spec.Name)
				}
			}
			if a.Inputs != b.Inputs {
				t.Errorf("seed 1 inputs differ between runs: %s %s", a.Inputs, b.Inputs)
			}
			for _, name := range deterministic {
				va, okA := a.Layers[name]
				if !okA {
					va, okA = a.Metrics[name]
				}
				vb, okB := b.Layers[name]
				if !okB {
					vb, okB = b.Metrics[name]
				}
				if !okA || !okB || va != vb {
					t.Errorf("%s: %v then %v on the same seed", name, va, vb)
				}
			}
			other := def.new(&config{seed: 2, dir: t.TempDir(), tiny: true})
			defer other.close()
			if err := other.setup(); err != nil {
				t.Fatal(err)
			}
			first := def.new(&config{seed: 1, dir: t.TempDir(), tiny: true})
			defer first.close()
			if err := first.setup(); err != nil {
				t.Fatal(err)
			}
			if other.inputs() == first.inputs() {
				t.Errorf("seed 2 gives the same inputs as seed 1")
			}
		})
	}
}
