// Command rlmbench is the end-to-end and per-layer benchmark of the
// run-time manager. It drives four seeded, closed-loop, single-client
// workloads through the public functions of each layer, times only the
// calls into the layer, audits the outputs, and prints every metric by name
// with its unit:
//
//	rlmbench -workload {tab2-relocate|task-stream|journaled-churn|crash-recover|all} -seed 1
//	         [-seconds 13] [-json FILE] [-trace 1 [-trace-dir DIR] [-baseline FILE]]
//	rlmbench compare PARENT.json... -- CHANGE.json...
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. The exit status
// is non-zero when an audit fails or the harness cannot run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// endToEndNames is the report order of the end-to-end metrics.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "ok_ratio",
	"mem_kb_per_op", "live_heap_mb",
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("rlmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "all", "tab2-relocate, task-stream, journaled-churn, crash-recover or all")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed; seed 2 is held out for validating claims")
	fs.Float64Var(&c.seconds, "seconds", 13, "work per workload, in seconds of nominal host time")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	fs.StringVar(&c.traceDir, "trace-dir", "", "traced run: write <workload>.spans.json, .cpu.pprof and .layers.json here")
	baseline := fs.String("baseline", "", "traced run: an untraced -json file of the same seed, to report the tracing overhead")
	jsonPath := fs.String("json", "", "append one JSON result line per workload to this file")
	scratch := fs.String("scratch", ".bench_build/tmp", "directory for the workloads' journal files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "rlmbench: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	c.trace = *trace == 1
	defs := workloads
	if c.workload != "all" {
		def, ok := workloadByName(c.workload)
		if !ok {
			fmt.Fprintf(stderr, "rlmbench: unknown workload %q\n", c.workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	var base []*result
	if *baseline != "" {
		var err error
		if base, err = readResults(*baseline); err != nil {
			fmt.Fprintln(stderr, "rlmbench:", err)
			return 1
		}
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "rlmbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "rlmbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	c.dir = dir

	status := 0
	for _, def := range defs {
		res, err := runWorkload(c, def)
		if err != nil {
			fmt.Fprintln(stderr, "rlmbench:", err)
			return 1
		}
		printReport(stdout, res, base)
		if *jsonPath != "" {
			if err := appendResult(*jsonPath, res); err != nil {
				fmt.Fprintln(stderr, "rlmbench:", err)
				return 1
			}
		}
		if c.trace && c.traceDir != "" {
			if err := writeTrace(c.traceDir, res); err != nil {
				fmt.Fprintln(stderr, "rlmbench: writing trace:", err)
				return 1
			}
		}
		line, err := resultLine(res)
		if err != nil {
			fmt.Fprintln(stderr, "rlmbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// resultLine is the one-line JSON summary: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func resultLine(res *result) (string, error) {
	m := res.Metrics
	if res.Trace {
		m = res.Layers
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, m})
	return string(b), err
}

func printReport(w io.Writer, res *result, base []*result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  units %d of %d  inputs %s\n", res.Workload, res.Seed, mode, res.Units, res.PlannedUnits, res.Inputs)
	if res.Units < res.PlannedUnits {
		fmt.Fprintf(w, "  stopped early: the units took more than %gx the run's seconds\n", maxStretch)
	}
	for _, name := range endToEndNames {
		m := res.Metrics[name]
		note := ""
		switch name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups, %.4g to %.4g s", len(res.SetupRuns), slices.Min(res.SetupRuns), slices.Max(res.SetupRuns))
		case "ops_per_s":
			note = fmt.Sprintf("%d timed calls", res.Attempted)
		case "ok_ratio":
			note = fmt.Sprintf("%d failed, %d refused", res.Failed, res.Refused)
		}
		if n, ok := res.Samples[name]; ok {
			note = fmt.Sprintf("n=%d %s calls", n, res.Headline)
		}
		fmt.Fprintf(w, "  %-15s %12.6g %-7s %s\n", name, m.Value, m.Unit, note)
	}
	if len(res.HostSpeed) > 0 {
		fmt.Fprintf(w, "  host speed factor %.3f: median of %d measurements, %.3f to %.3f (ref_ms = host ms / factor)\n",
			median(res.HostSpeed), len(res.HostSpeed), slices.Min(res.HostSpeed), slices.Max(res.HostSpeed))
	}
	fmt.Fprintln(w, "  detail:")
	for _, name := range sortedKeys(res.Detail) {
		if strings.HasSuffix(name, "_n") {
			continue
		}
		m := res.Detail[name]
		note := ""
		if i := strings.LastIndex(name, "_p"); i > 0 {
			if n, ok := res.Detail[name[:i]+"_n"]; ok {
				note = fmt.Sprintf("n=%d", int(n.Value))
			}
		}
		fmt.Fprintf(w, "    %-20s %12.6g %-7s %s\n", name, m.Value, m.Unit, note)
	}
	for _, o := range opLatencies {
		n, ok := res.Detail[o.prefix+"_n"]
		if _, has := res.Detail[o.prefix+"_p90"]; ok && !has {
			fmt.Fprintf(w, "    %-20s not reported: n=%d < %d\n", o.prefix+"_p90", int(n.Value), minP90Samples)
		}
	}
	if res.Trace {
		fmt.Fprintln(w, "  layers:")
		for _, name := range sortedKeys(res.Layers) {
			m := res.Layers[name]
			fmt.Fprintf(w, "    %-36s %12.6g %s\n", name, m.Value, m.Unit)
		}
		printOverhead(w, res, base)
	}
	if res.Correct {
		fmt.Fprintln(w, "  audit: ok")
	} else {
		fmt.Fprintln(w, "  audit: FAILED:", res.Audit)
	}
}

// printOverhead reports the traced-minus-untraced difference of every
// latency metric against an untraced run of the same workload and seed.
func printOverhead(w io.Writer, res *result, base []*result) {
	var b *result
	for _, r := range base {
		if r.Workload == res.Workload && r.Seed == res.Seed && !r.Trace {
			b = r
		}
	}
	if b == nil {
		fmt.Fprintln(w, "  tracing overhead: no untraced -baseline run of this workload and seed")
		return
	}
	fmt.Fprintln(w, "  tracing overhead (traced - untraced):")
	diff := func(name string, t, u metric) {
		fmt.Fprintf(w, "    %-20s %+10.4g %s (%+.1f%%)\n", name, t.Value-u.Value, t.Unit, 100*(t.Value-u.Value)/u.Value)
	}
	for _, name := range []string{"op_ms_p50", "op_ms_p90"} {
		diff(name, res.Metrics[name], b.Metrics[name])
	}
	// The per-operation latencies are raw host milliseconds, and the host's
	// speed drifts between the two runs: each is put in reference time with
	// its run's median speed factor before they are compared.
	ts, us := median(res.HostSpeed), median(b.HostSpeed)
	for _, name := range sortedKeys(res.Detail) {
		if u, ok := b.Detail[name]; ok && u.Unit == "ms" {
			diff(name, metric{res.Detail[name].Value / ts, "ref_ms"}, metric{u.Value / us, "ref_ms"})
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads the JSON lines -json appended.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		r := &result{}
		if err := json.Unmarshal([]byte(line), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: a line is not an rlmbench -json result", path)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
