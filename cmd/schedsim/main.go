// Command schedsim drives the run-time management experiments of the
// reproduction: the Fig. 1 temporal/spatial scheduling study and the
// defragmentation study (allocation rate and waiting time with and without
// on-line rearrangement).
//
// By default the defrag experiment runs against pure area book-keeping.
// With -fabric it drives a real rlm.System instead: every task is a live
// generated design loaded onto the simulated device, every rearrangement a
// physical relocation through the configuration port, with all resident
// designs verified in lock-step against their golden models throughout.
//
// The scenarios experiment runs the named scenario matrix (small / large /
// bimodal / gated-heavy / ram-heavy / corner-pressure): each scenario's
// task stream — with per-task design profiles and netlists sized to the
// allocated region — is executed on a live fabric AND on the pure
// book-keeping model, and the divergence between the two (physical
// placement failures, allocation and fragmentation gaps, relocation work)
// is reported per scenario.
//
// Usage:
//
//	schedsim -experiment fig1
//	schedsim -experiment defrag -rows 28 -cols 42 -tasks 500
//	schedsim -experiment defrag -fabric -device XCV50 -tasks 40 -events
//	schedsim -experiment scenarios -device XCV50 -tasks 30
//	schedsim -experiment scenarios -scenario ram-heavy -verify=false
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	rlm "repro"
	"repro/internal/area"
	"repro/internal/fabric"
	"repro/internal/rearrange"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "defrag", "fig1 | defrag | policies | scenarios")
		rows       = flag.Int("rows", 28, "device rows (XCV200 = 28)")
		cols       = flag.Int("cols", 42, "device columns (XCV200 = 42)")
		tasks      = flag.Int("tasks", 0, "number of tasks (defrag; 0 = 400 book-keeping, 40 fabric)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		load       = flag.Float64("load", 1.0, "arrival rate (tasks/s)")
		useFabric  = flag.Bool("fabric", false, "drive a real rlm.System instead of book-keeping (defrag)")
		deviceName = flag.String("device", "XCV50", "device preset for -fabric: TEST12x8, XCV50, XCV200, XCV800")
		verify     = flag.Bool("verify", true, "lock-step verify resident designs during relocations (-fabric)")
		events     = flag.Bool("events", false, "print the system's event stream (-fabric)")
		scenario   = flag.String("scenario", "", "run only the named scenario of the matrix (scenarios)")
		tmpl       = flag.Int("tmpl", 0, "template cache capacity: repeated loads take the warm path (0 = off; -fabric/scenarios)")
		width      = flag.Int("width", 0, "use a wide SelectMAP port of this many data bits (8/16/32) instead of Boundary-Scan (0 = Boundary-Scan; -fabric/scenarios)")
		compress   = flag.Bool("compress", false, "ship delta/MFWR-compressed configuration streams (-fabric/scenarios)")
		pool       = flag.Int("pool", 0, "repeat-pool size: tasks draw shape+circuit from this many combos (0 = fresh draws)")
		record     = flag.String("record", "", "save the task stream to this trace file (defrag/policies)")
		replay     = flag.String("replay", "", "replay the task stream from this trace file instead of generating one (defrag/policies)")
	)
	flag.Parse()

	switch *experiment {
	case "fig1":
		fig1(*rows, *cols, *seed)
	case "scenarios":
		if *tasks == 0 {
			*tasks = 30
		}
		preset, ok := fabric.PresetByName(*deviceName)
		if !ok {
			fmt.Fprintf(os.Stderr, "schedsim: unknown device %q\n", *deviceName)
			os.Exit(2)
		}
		scenarios(preset, *tasks, *seed, *load, *verify, *scenario, *tmpl, *width, *compress)
	case "defrag":
		if *tasks == 0 {
			*tasks = 400
			if *useFabric {
				*tasks = 40
			}
		}
		stream := resolveStream(*record, *replay, *tasks, *seed, *load, *pool)
		if *useFabric {
			preset, ok := fabric.PresetByName(*deviceName)
			if !ok {
				fmt.Fprintf(os.Stderr, "schedsim: unknown device %q\n", *deviceName)
				os.Exit(2)
			}
			defragFabric(preset, stream, *load, *verify, *events, *tmpl, *width, *compress)
		} else {
			defrag(*rows, *cols, stream, *load)
		}
	case "policies":
		if *tasks == 0 {
			*tasks = 400
		}
		policies(*rows, *cols, resolveStream(*record, *replay, *tasks, *seed, *load, *pool))
	default:
		fmt.Fprintf(os.Stderr, "schedsim: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// fig1 reproduces the paper's Fig. 1 story: applications sharing the device
// in the temporal and spatial domains; swap-in-advance hides
// reconfiguration until parallelism exhausts the space.
func fig1(rows, cols int, seed uint64) {
	fmt.Println("Fig. 1 — temporal scheduling of applications (stall vs. parallelism)")
	fmt.Printf("%-6s %-12s %-12s %-12s %-12s %-10s\n",
		"apps", "stall(s)", "hidden", "stalled", "rearranged", "util")
	for _, planner := range []rearrange.Planner{rearrange.None{}, rearrange.LocalRepacking{}} {
		fmt.Printf("-- planner: %s\n", planner.Name())
		for apps := 1; apps <= 8; apps++ {
			w := workload.Flows(workload.FlowConfig{
				Seed: seed, Apps: apps, FnsPerApp: 6,
				MinSide: 4, MaxSide: 8, MeanDuration: 60,
			})
			m := sched.RunFlows(sched.FlowConfig{
				Rows: rows / 2, Cols: cols / 2, Policy: area.FirstFit,
				Planner: planner, PrefetchLead: 4,
			}, w)
			fmt.Printf("%-6d %-12.2f %-12d %-12d %-12d %-10.2f\n",
				apps, m.TotalStallSec, m.HiddenSwaps, m.StalledSwaps, m.RearrangedSwaps, m.MeanUtilisation)
		}
	}
}

func taskStreamConfig(tasks int, seed uint64, load float64, pool int) workload.Config {
	return workload.Config{
		Seed: seed, N: tasks,
		MeanInterarrival: 1.0 / load, MeanService: 6.0,
		MinSide: 3, MaxSide: 10, Dist: workload.Bimodal,
		RepeatPool: pool,
	}
}

// resolveStream produces the task stream for the defrag/policies experiments:
// generated from the CLI knobs, or replayed verbatim from a recorded trace
// (-replay, which then ignores -tasks/-seed/-pool), and optionally recorded
// to a trace file (-record) for later replay or batch ingest via
// "fratool trace".
func resolveStream(record, replay string, tasks int, seed uint64, load float64, pool int) []workload.Task {
	var stream []workload.Task
	var cfg *workload.Config
	if replay != "" {
		tr, err := workload.LoadTrace(replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedsim:", err)
			os.Exit(1)
		}
		stream, cfg = tr.Tasks, tr.Config
		fmt.Printf("replaying %d tasks from %s (%s)\n", len(stream), replay, tr.Label)
	} else {
		c := taskStreamConfig(tasks, seed, load, pool)
		stream, cfg = workload.Stream(c), &c
	}
	if record != "" {
		if err := workload.SaveTrace(record, workload.NewTrace("schedsim", cfg, stream)); err != nil {
			fmt.Fprintln(os.Stderr, "schedsim:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d tasks to %s\n", len(stream), record)
	}
	return stream
}

func printMetricsHeader() {
	fmt.Printf("%-22s %-10s %-10s %-12s %-12s %-12s %-10s\n",
		"planner", "alloc", "immediate", "mean-wait", "frag(mean)", "frag(peak)", "moved-CLBs")
}

func printMetrics(planner rearrange.Planner, m sched.Metrics) {
	fmt.Printf("%-22s %-10.3f %-10.3f %-12.3f %-12.3f %-12.3f %-10d\n",
		planner.Name(), m.AllocationRate, m.ImmediateRate, m.MeanWaitSec,
		m.MeanFragmentation, m.PeakFragmentation, m.RelocatedCLBs)
}

// defrag reproduces the defragmentation study: allocation rate and waiting
// time for the same task stream with three rearrangement strategies.
func defrag(rows, cols int, stream []workload.Task, load float64) {
	fmt.Printf("Defragmentation study — %dx%d CLBs, %d tasks, load %.2f/s\n", rows, cols, len(stream), load)
	printMetricsHeader()
	for _, planner := range []rearrange.Planner{
		rearrange.None{}, rearrange.OrderedCompaction{}, rearrange.LocalRepacking{},
	} {
		s := sched.NewSimulator(sched.Config{
			Rows: rows, Cols: cols, Policy: area.FirstFit,
			Planner: planner, MaxWait: 20,
		})
		printMetrics(planner, s.Run(stream))
	}
}

// defragFabric runs the same schedule against a live System: real designs,
// real relocations, same Metrics schema.
func defragFabric(preset fabric.Preset, stream []workload.Task, load float64, verify, events bool, tmplCap, width int, compress bool) {
	fmt.Printf("Defragmentation study on live fabric — %s (%dx%d CLBs), %d tasks, load %.2f/s, verify=%v\n",
		preset.Name, preset.Rows, preset.Cols, len(stream), load, verify)
	printMetricsHeader()
	for _, planner := range []rearrange.Planner{
		rearrange.None{}, rearrange.LocalRepacking{},
	} {
		space, err := newFabricSpace(preset, verify, tmplCap, width, compress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedsim:", err)
			os.Exit(1)
		}
		var wg sync.WaitGroup
		var cancel func()
		if events {
			var ch <-chan rlm.Event
			ch, cancel = space.System().Subscribe(1024)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := range ch {
					fmt.Println("  event:", e)
				}
			}()
		}
		s := sched.NewSimulatorOn(sched.Config{
			Policy:  area.FirstFit,
			Planner: planner, MaxWait: 20,
		}, space)
		m := s.Run(stream)
		printMetrics(planner, m)
		st := space.System().Stats()
		fmt.Printf("  fabric: %d cells relocated, %d frames, %.1f ms of %s traffic, %d designs resident at end\n",
			st.CellsRelocated, st.FramesWritten, st.PortSeconds*1e3,
			space.System().Port().Name(), len(space.System().Designs()))
		printTraffic(space.System())
		printTemplateStats(space.System())
		if events {
			cancel()
			wg.Wait()
		}
	}
}

// scenarios runs the named scenario matrix: each scenario's profiled task
// stream is executed on a live fabric and on the pure book-keeping model,
// and the divergence between the two runs is reported per scenario.
func scenarios(preset fabric.Preset, tasks int, seed uint64, load float64, verify bool, only string, tmplCap, width int, compress bool) {
	matrix := sched.ScenarioMatrix(seed, tasks, load)
	if only != "" {
		sc, ok := sched.ScenarioByName(matrix, only)
		if !ok {
			fmt.Fprintf(os.Stderr, "schedsim: unknown scenario %q\n", only)
			os.Exit(2)
		}
		matrix = []sched.Scenario{sc}
	}
	fmt.Printf("Scenario-divergence study — %s (%dx%d CLBs), %d tasks/scenario, load %.2f/s, verify=%v\n",
		preset.Name, preset.Rows, preset.Cols, tasks, load, verify)
	fmt.Printf("%-16s %-11s %-11s %-9s %-9s %-10s %-10s %-10s\n",
		"scenario", "alloc-book", "alloc-fab", "rej-gap", "frag-gap", "phys-fail", "clb-gap", "reloc-s")
	for _, sc := range matrix {
		space, err := newFabricSpace(preset, verify, tmplCap, width, compress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedsim:", err)
			os.Exit(1)
		}
		d := sched.RunScenario(sc, space)
		fmt.Printf("%-16s %-11.3f %-11.3f %-9.3f %-9.3f %-10d %-10d %-10.2f\n",
			d.Scenario, d.Book.AllocationRate, d.Fabric.AllocationRate,
			d.RejectionGap, d.FragmentationGap, d.PhysicalPlaceFailures,
			d.RelocatedCLBGap, d.Fabric.RearrangeSeconds)
		st := space.System().Stats()
		fmt.Printf("  fabric: %d cells relocated, %d frames, %.1f ms of %s traffic — %s\n",
			st.CellsRelocated, st.FramesWritten, st.PortSeconds*1e3,
			space.System().Port().Name(), sc.Desc)
		printTraffic(space.System())
		printTemplateStats(space.System())
	}
}

// printTraffic reports the configuration-bandwidth counters: stream words
// actually shipped against their uncompressed equivalent (the two are equal
// when compression is off).
func printTraffic(sys *rlm.System) {
	tr := sys.Traffic()
	fmt.Printf("  traffic: %d words shifted (%d uncompressed, %.2fx), %d frame deliveries\n",
		tr.WordsShifted, tr.FullWords, tr.CompressionRatio(), tr.FramesDelivered)
}

// printTemplateStats reports template-cache outcomes when the cache is on.
func printTemplateStats(sys *rlm.System) {
	st, ok := sys.TemplateStats()
	if !ok {
		return
	}
	fmt.Printf("  templates: %d hits / %d misses (%.0f%% warm), %d fallbacks, %d evictions\n",
		st.Hits, st.Misses, 100*st.HitRate(), st.Fallbacks, st.Evictions)
}

// policies compares the allocation policies under one planner.
func policies(rows, cols int, stream []workload.Task) {
	fmt.Printf("Placement-policy study — %dx%d CLBs, %d tasks\n", rows, cols, len(stream))
	fmt.Printf("%-14s %-10s %-12s %-12s\n", "policy", "alloc", "mean-wait", "frag(mean)")
	for _, p := range []area.Policy{area.FirstFit, area.BestFit, area.BottomLeft} {
		s := sched.NewSimulator(sched.Config{
			Rows: rows, Cols: cols, Policy: p,
			Planner: rearrange.LocalRepacking{}, MaxWait: 20,
		})
		m := s.Run(stream)
		fmt.Printf("%-14s %-10.3f %-12.3f %-12.3f\n", p, m.AllocationRate, m.MeanWaitSec, m.MeanFragmentation)
	}
}
