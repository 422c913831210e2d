package main

import (
	"repro/internal/bitstream"
	"repro/internal/relocate"
	"repro/internal/sched"
)

// counters is the cumulative program state a workload reads through public
// accessors; the per-layer metrics are the deltas across the measured units.
type counters struct {
	st      relocate.Stats
	traffic bitstream.Traffic
	cycles  uint64  // port clock cycles (TCK or SelectMAP clocks)
	bursts  uint64  // bursts the background stream completed
	portSim float64 // simulated seconds of foreground port transport

	faults int // faults the fault-injecting port injected
	events int // events delivered to the workload's subscriber

	journalBytes   int64
	journalRecords int

	recovers      int
	framesChecked int
	imageBytes    int

	sched   sched.Metrics // summed over task-stream units
	fragSum float64       // per-unit mean fragmentation x tasks submitted
	utilSum float64       // per-unit mean utilisation x tasks submitted
}

func (a counters) sub(b counters) counters {
	d := a
	d.st = relocate.Stats{
		CellsRelocated:   a.st.CellsRelocated - b.st.CellsRelocated,
		CLBsRelocated:    a.st.CLBsRelocated - b.st.CLBsRelocated,
		NetsRelocated:    a.st.NetsRelocated - b.st.NetsRelocated,
		AuxCircuits:      a.st.AuxCircuits - b.st.AuxCircuits,
		FramesWritten:    a.st.FramesWritten - b.st.FramesWritten,
		PlanSeconds:      a.st.PlanSeconds - b.st.PlanSeconds,
		OverlappedOps:    a.st.OverlappedOps - b.st.OverlappedOps,
		SerialFallbacks:  a.st.SerialFallbacks - b.st.SerialFallbacks,
		FaultsDetected:   a.st.FaultsDetected - b.st.FaultsDetected,
		FaultRetries:     a.st.FaultRetries - b.st.FaultRetries,
		RetriesExhausted: a.st.RetriesExhausted - b.st.RetriesExhausted,
		RetrySeconds:     a.st.RetrySeconds - b.st.RetrySeconds,
		ScrubChecked:     a.st.ScrubChecked - b.st.ScrubChecked,
		ScrubRepairs:     a.st.ScrubRepairs - b.st.ScrubRepairs,
		ScrubSeconds:     a.st.ScrubSeconds - b.st.ScrubSeconds,
	}
	d.traffic = bitstream.Traffic{
		WordsShifted:    a.traffic.WordsShifted - b.traffic.WordsShifted,
		FullWords:       a.traffic.FullWords - b.traffic.FullWords,
		FramesDelivered: a.traffic.FramesDelivered - b.traffic.FramesDelivered,
	}
	d.cycles -= b.cycles
	d.bursts -= b.bursts
	d.portSim -= b.portSim
	d.faults -= b.faults
	d.events -= b.events
	d.journalBytes -= b.journalBytes
	d.journalRecords -= b.journalRecords
	d.recovers -= b.recovers
	d.framesChecked -= b.framesChecked
	// sched, fragSum, utilSum and imageBytes are produced by the measured
	// units alone (or fixed at set-up) and pass through.
	return d
}

func (d counters) allocRate() float64 {
	m := d.sched
	if m.Submitted == 0 {
		return 0
	}
	return float64(m.Placed+m.PlacedAfterRearrange+m.PlacedAfterWait) / float64(m.Submitted)
}

// spanNames are the layer boundaries the bench records spans at.
var spanNames = []string{
	"relocate.RelocateCLB", "rlm.Load", "rlm.Unload", "rlm.Move", "rlm.Scrub",
	"rlm.Recover", "rearrange.Plan", "sched.Run",
}

// cpuModules are the buckets CPU-profile self time is attributed to: this
// repository's packages (the facade is "rlm"), the standard-library layers
// the workloads lean on, the bench itself, and everything else.
var cpuModules = []string{
	"route", "place", "relocate", "bitstream", "jtag", "fabric", "area",
	"rearrange", "sched", "journal", "rlm", "faultport", "itc99", "sim",
	"netlist", "health", "template", "workload", "json", "syscall", "runtime",
	"bench", "other",
}

// layers assembles the per-layer metrics of a traced run.
func layers(r *recorder, d counters, rt runtimeStats, cpu *cpuProfile) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	calls := float64(r.calls)
	st := d.st

	put("relocate.cells_relocated", "count", float64(st.CellsRelocated))
	put("relocate.clbs_relocated", "count", float64(st.CLBsRelocated))
	put("relocate.nets_relocated", "count", float64(st.NetsRelocated))
	put("relocate.aux_circuits", "count", float64(st.AuxCircuits))
	put("relocate.frames_written", "count", float64(st.FramesWritten))
	put("relocate.frames_per_clb", "frames/CLB", ratio(float64(st.FramesWritten), float64(st.CLBsRelocated)))
	put("relocate.plan_s", "s", st.PlanSeconds)
	put("relocate.plan_share", "ratio", ratio(st.PlanSeconds, r.wall.Seconds()))
	put("relocate.overlap_ratio", "ratio", ratio(float64(st.OverlappedOps), float64(st.CellsRelocated)))
	put("relocate.serial_fallbacks", "count", float64(st.SerialFallbacks))

	tr := d.traffic
	put("bitstream.words_shifted", "count", float64(tr.WordsShifted))
	put("bitstream.full_words", "count", float64(tr.FullWords))
	put("bitstream.compression_ratio", "ratio", tr.CompressionRatio())
	put("bitstream.frames_delivered", "count", float64(tr.FramesDelivered))
	put("bitstream.bursts", "count", float64(d.bursts))
	put("bitstream.port_sim_s", "sim_s", d.portSim)
	put("bitstream.tck_per_frame", "cycles/frame", ratio(float64(d.cycles), float64(tr.FramesDelivered)))
	put("bitstream.sim_ms_per_clb", "sim_ms", ratio(d.portSim*1e3, float64(st.CLBsRelocated)))
	put("bitstream.sim_ms_per_op", "sim_ms", ratio(d.portSim*1e3, calls))

	put("rlm.faults_detected", "count", float64(st.FaultsDetected))
	put("rlm.fault_retries", "count", float64(st.FaultRetries))
	put("rlm.retries_exhausted", "count", float64(st.RetriesExhausted))
	put("rlm.retry_sim_s", "sim_s", st.RetrySeconds)
	put("rlm.scrub_checked", "count", float64(st.ScrubChecked))
	put("rlm.scrub_repairs", "count", float64(st.ScrubRepairs))
	put("rlm.scrub_sim_s", "sim_s", st.ScrubSeconds)
	put("faultport.faults", "count", float64(d.faults))
	put("rlm.events_total", "count", float64(d.events))
	put("rlm.events_per_op", "ratio", ratio(float64(d.events), calls))

	put("journal.bytes_per_op", "B", ratio(float64(d.journalBytes), calls))
	put("journal.records_per_op", "ratio", ratio(float64(d.journalRecords), calls))
	put("journal.crash_image_bytes", "B", float64(d.imageBytes))
	put("rlm.recover.frames_checked", "count", ratio(float64(d.framesChecked), float64(d.recovers)))
	put("rlm.recover.recovery_sim_s", "sim_s", ratio(d.portSim, float64(d.recovers)))

	sm := d.sched
	put("sched.submitted", "count", float64(sm.Submitted))
	put("sched.rejected", "count", float64(sm.Rejected))
	put("sched.placed_after_rearrange", "count", float64(sm.PlacedAfterRearrange))
	put("sched.physical_place_failures", "count", float64(sm.PhysicalPlaceFailures))
	put("sched.relocated_clbs", "count", float64(sm.RelocatedCLBs))
	put("sched.alloc_rate", "ratio", d.allocRate())
	put("area.fragmentation_mean", "ratio", ratio(d.fragSum, float64(sm.Submitted)))
	put("area.utilisation_mean", "ratio", ratio(d.utilSum, float64(sm.Submitted)))

	put("runtime.gc_cycles", "count", float64(rt.gcCycles))
	put("runtime.gc_cpu_s", "s", rt.gcCPU)
	put("runtime.alloc_mb", "MiB", float64(rt.allocs)/(1<<20))
	put("runtime.live_heap_peak_mb", "MiB", float64(r.heapPeak)/(1<<20))

	byName := map[string][]float64{}
	for _, sp := range r.tr.spans {
		byName[sp.Name] = append(byName[sp.Name], float64(sp.End-sp.Start)/1e6)
	}
	for _, name := range spanNames {
		xs := byName[name]
		busy := 0.0
		for _, x := range xs {
			busy += x / 1e3
		}
		put(name+".calls", "count", float64(len(xs)))
		put(name+".ms_p50", "ms", median(xs))
		put(name+".busy_s", "s", busy)
	}
	put("sched.Run.self_s", "s", selfSeconds(r.tr.spans, "sched.Run"))

	for _, mod := range cpuModules {
		put(mod+".cpu_s", "s", cpu.seconds[mod])
		put(mod+".cpu_share", "ratio", ratio(cpu.seconds[mod], cpu.total))
	}
	put("route.heap_cpu_share", "ratio", ratio(cpu.routeHeap, cpu.total))
	put("route.node_delay_cpu_share", "ratio", ratio(cpu.nodeDelay, cpu.total))
	return m
}

// selfSeconds sums the spans named name minus the time their direct child
// spans cover: for sched.Run, the scheduler's and area book-keeping's own
// time once the Space calls, the planner and untimed input generation are
// taken out.
func selfSeconds(spans []span, name string) float64 {
	total := int64(0)
	isRun := map[int64]bool{}
	for _, sp := range spans {
		if sp.Name == name {
			isRun[sp.ID] = true
			total += sp.End - sp.Start
		}
	}
	for _, sp := range spans {
		if isRun[sp.Parent] {
			total -= sp.End - sp.Start
		}
	}
	return float64(total) / 1e9
}
