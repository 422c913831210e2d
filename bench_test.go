// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md). Each bench both
// exercises the relevant machinery per iteration and — once per run —
// prints the series the paper's figure illustrates.
package rlm

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/journal"
	"repro/internal/jtag"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/rearrange"
	"repro/internal/relocate"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/template"
	"repro/internal/workload"
)

var printOnce sync.Map

func once(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// --- E1 / Fig. 1: temporal scheduling, stall vs parallelism --------------

func BenchmarkFig1Scheduling(b *testing.B) {
	run := func(apps int, p rearrange.Planner) sched.FlowMetrics {
		w := workload.Flows(workload.FlowConfig{
			Seed: 13, Apps: apps, FnsPerApp: 6, MinSide: 4, MaxSide: 8, MeanDuration: 60,
		})
		return sched.RunFlows(sched.FlowConfig{
			Rows: 14, Cols: 14, Policy: area.FirstFit, Planner: p, PrefetchLead: 4,
		}, w)
	}
	once("fig1", func() {
		fmt.Println("\nFig.1 series — application stall (s) vs degree of parallelism:")
		fmt.Printf("%-6s %-14s %-16s\n", "apps", "no-rearrange", "local-repacking")
		for n := 2; n <= 7; n++ {
			a := run(n, rearrange.None{})
			r := run(n, rearrange.LocalRepacking{})
			fmt.Printf("%-6d %-14.1f %-16.1f\n", n, a.TotalStallSec, r.TotalStallSec)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := run(4, rearrange.LocalRepacking{})
		if m.FunctionsRun == 0 {
			b.Fatal("no functions ran")
		}
	}
}

// pingPongSetup places a design and returns an engine plus a cell that can
// be relocated back and forth between its home and a free location.
func pingPongSetup(b *testing.B, circuit string, gated bool, port func(*fabric.Device) bitstream.Port) (*relocate.Engine, fabric.CellRef, fabric.CellRef) {
	b.Helper()
	dev := fabric.NewDevice(fabric.XCV50)
	nl, err := itc99.Get(circuit)
	if err != nil {
		b.Fatal(err)
	}
	region, err := place.AutoRegion(dev, nl, 2, 2, 0.35)
	if err != nil {
		b.Fatal(err)
	}
	d, err := place.Place(dev, nl, place.Options{Region: region})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := relocate.NewEngine(dev, port(dev))
	if err != nil {
		b.Fatal(err)
	}
	eng.MaxCyclesPerWait = 0 // no simulation load in benches
	var from fabric.CellRef
	found := false
	for id, nd := range nl.Nodes {
		if nd.Kind != netlist.KindFF {
			continue
		}
		if gated != (nd.CE != netlist.None) {
			continue
		}
		if ref, ok := d.CellOf[netlist.ID(id)]; ok {
			from, found = ref, true
			break
		}
	}
	if !found {
		b.Fatal("no suitable cell")
	}
	spare := fabric.CellRef{Coord: fabric.Coord{Row: 12, Col: 12}, Cell: from.Cell}
	// The engine builds its router at the first route, and the frame tool
	// its per-frame records at the first staged write. One untimed round
	// trip builds both, so the timed loop holds the relocations alone.
	for _, hop := range [][2]fabric.CellRef{{from, spare}, {spare, from}} {
		if _, err := eng.RelocateCell(hop[0], hop[1]); err != nil {
			b.Fatal(err)
		}
	}
	return eng, from, spare
}

func directBenchPort(dev *fabric.Device) bitstream.Port {
	return bitstream.NewParallelPort(bitstream.NewController(dev), 50e6)
}

func jtagBenchPort(dev *fabric.Device) bitstream.Port {
	return jtag.NewPort(bitstream.NewController(dev), jtag.DefaultTCKHz)
}

// selectMapBenchPort builds a SelectMAP port at the given data-pin width
// (8/16/32): the per-word clock cost is 32/width.
func selectMapBenchPort(width int) func(*fabric.Device) bitstream.Port {
	return func(dev *fabric.Device) bitstream.Port {
		p := bitstream.NewParallelPort(bitstream.NewController(dev), 50e6)
		p.WidthBits = width
		return p
	}
}

// compressBenchPort wraps a port constructor with delta/MFWR stream encoding
// switched on.
func compressBenchPort(mk func(*fabric.Device) bitstream.Port) func(*fabric.Device) bitstream.Port {
	return func(dev *fabric.Device) bitstream.Port {
		p := mk(dev)
		p.SetCompress(true)
		return p
	}
}

// reportTraffic attaches the configuration-bandwidth columns every transport
// lane reports: stream words actually shipped, the write-path compression
// ratio, and port clocks per delivered frame. All three ride through
// benchdiff as informational metrics.
func reportTraffic(b *testing.B, tr bitstream.Traffic, cycles uint64) {
	b.ReportMetric(float64(tr.WordsShifted), "words_shifted")
	b.ReportMetric(tr.CompressionRatio(), "compression_ratio")
	if tr.FramesDelivered > 0 {
		b.ReportMetric(float64(cycles)/float64(tr.FramesDelivered), "tck_per_frame")
	}
}

// --- E2 / Fig. 2: two-phase relocation of a free-running cell -------------

func BenchmarkFig2TwoPhaseRelocation(b *testing.B) {
	eng, home, spare := pingPongSetup(b, "b01", false, directBenchPort)
	locs := [2]fabric.CellRef{home, spare}
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i++ {
		mv, err := eng.RelocateCell(locs[i%2], locs[(i+1)%2])
		if err != nil {
			b.Fatal(err)
		}
		frames += mv.Frames
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/move")
	once("fig2", func() {
		fmt.Printf("\nFig.2 — two-phase relocation (free-running FF): %.0f frames per move\n",
			float64(frames)/float64(b.N))
	})
}

// --- E3 / Fig. 3: gated-clock relocation via the aux circuit --------------

func BenchmarkFig3GatedClock(b *testing.B) {
	eng, home, spare := pingPongSetup(b, "b03", true, directBenchPort)
	locs := [2]fabric.CellRef{home, spare}
	b.ResetTimer()
	aux := 0
	frames := 0
	for i := 0; i < b.N; i++ {
		mv, err := eng.RelocateCell(locs[i%2], locs[(i+1)%2])
		if err != nil {
			b.Fatal(err)
		}
		if mv.UsedAux {
			aux++
		}
		frames += mv.Frames
	}
	if aux != b.N {
		b.Fatalf("aux circuit used %d/%d times", aux, b.N)
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/move")
}

// --- E4 / Fig. 4: the procedure flow itself -------------------------------

func BenchmarkFig4Procedure(b *testing.B) {
	// Compare the frame cost of the plain and gated procedures (the extra
	// steps of Fig. 4 show up as extra frames and port time).
	measure := func(circuit string, gated bool) (frames float64, ms float64) {
		eng, home, spare := pingPongSetup(b, circuit, gated, jtagBenchPort)
		mv, err := eng.RelocateCell(home, spare)
		if err != nil {
			b.Fatal(err)
		}
		return float64(mv.Frames), mv.Seconds * 1e3
	}
	once("fig4", func() {
		pf, pt := measure("b01", false)
		gf, gt := measure("b03", true)
		fmt.Println("\nFig.4 — procedure cost over Boundary-Scan @ 20 MHz:")
		fmt.Printf("%-28s %-10s %-10s\n", "procedure", "frames", "ms")
		fmt.Printf("%-28s %-10.0f %-10.2f\n", "two-phase (free-running)", pf, pt)
		fmt.Printf("%-28s %-10.0f %-10.2f\n", "Fig.4 flow (gated, aux)", gf, gt)
	})
	eng, home, spare := pingPongSetup(b, "b03", true, directBenchPort)
	locs := [2]fabric.CellRef{home, spare}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RelocateCell(locs[i%2], locs[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5 / Fig. 5: relocation of routing resources --------------------------

func BenchmarkFig5RouteRelocation(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV50)
	nl, err := itc99.Get("b01")
	if err != nil {
		b.Fatal(err)
	}
	region, _ := place.AutoRegion(dev, nl, 2, 2, 0.35)
	d, err := place.Place(dev, nl, place.Options{Region: region})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := relocate.NewEngine(dev, directBenchPort(dev))
	if err != nil {
		b.Fatal(err)
	}
	eng.MaxCyclesPerWait = 0
	eng.FreeRouter() // built before timing, as in pingPongSetup
	// A routed pin to bounce between alternative paths.
	var tile fabric.Coord
	local := -1
	for _, ref := range d.OccupiedCells() {
		for k := 0; k < fabric.LUTInputs; k++ {
			l := fabric.LocalPinI(ref.Cell, k)
			if dev.PIPMask(ref.Coord, l) != 0 {
				tile, local = ref.Coord, l
			}
		}
	}
	if local < 0 {
		b.Fatal("no routed pin")
	}
	b.ResetTimer()
	fuzzSum := 0.0
	for i := 0; i < b.N; i++ {
		mv, err := eng.RerouteSink(tile, local)
		if err != nil {
			b.Fatal(err)
		}
		fuzzSum += mv.FuzzinessNs()
	}
	b.ReportMetric(fuzzSum/float64(b.N), "fuzz-ns/move")
}

// --- E6 / Fig. 6: propagation-delay fuzziness ------------------------------

func BenchmarkFig6DelayFuzziness(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	once("fig6", func() {
		// Sweep: route a net straight, then via increasingly long detours;
		// fuzziness = |d_new - d_old|, parallel delay = max.
		fmt.Println("\nFig.6 — delay fuzziness while original and replica paths are paralleled:")
		fmt.Printf("%-14s %-12s %-12s %-12s %-12s\n", "detour(rows)", "d_old(ns)", "d_new(ns)", "parallel", "fuzziness")
		src := dev.NodeIDAt(fabric.Coord{Row: 14, Col: 5}, fabric.LocalOutX(0))
		dst := dev.NodeIDAt(fabric.Coord{Row: 14, Col: 30}, fabric.LocalPinI(0, 0))
		r := route.NewRouter(dev)
		direct, err := r.RouteAll([]route.Net{{Name: "d", Source: src, Sinks: []fabric.NodeID{dst}}})
		if err != nil {
			b.Fatal(err)
		}
		dOld := direct[0].DelayTo(dev, dst)
		for detour := 2; detour <= 12; detour += 2 {
			r2 := route.NewRouter(dev)
			// Block a wall forcing the detour. The wall is six columns
			// wide so hex wires cannot jump across it.
			for dr := -detour; dr <= detour; dr++ {
				row := 14 + dr
				if row < 0 || row >= dev.Rows {
					continue
				}
				for wc := 0; wc < 6; wc++ {
					for l := 0; l < fabric.NodeSlots; l++ {
						kind, _, _ := fabric.DecodeLocal(l)
						if kind == fabric.KindSingle || kind == fabric.KindHex {
							r2.Block(dev.NodeIDAt(fabric.Coord{Row: row, Col: 15 + wc}, l))
						}
					}
				}
			}
			alt, err := r2.RouteAll([]route.Net{{Name: "a", Source: src, Sinks: []fabric.NodeID{dst}}})
			if err != nil {
				continue
			}
			dNew := alt[0].DelayTo(dev, dst)
			par := dOld
			if dNew > par {
				par = dNew
			}
			fuzz := dNew - dOld
			if fuzz < 0 {
				fuzz = -fuzz
			}
			fmt.Printf("%-14d %-12.2f %-12.2f %-12.2f %-12.2f\n", detour, dOld, dNew, par, fuzz)
		}
	})
	src := dev.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
	dst := dev.NodeIDAt(fabric.Coord{Row: 20, Col: 35}, fabric.LocalPinI(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := route.NewRouter(dev)
		nets, err := r.RouteAll([]route.Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{dst}}})
		if err != nil {
			b.Fatal(err)
		}
		_ = nets[0].DelayTo(dev, dst)
	}
}

// --- E7 / §4: defragmentation study ---------------------------------------

func BenchmarkFig7Defrag(b *testing.B) {
	stream := workload.Stream(workload.Config{
		Seed: 7, N: 250, MeanInterarrival: 1 / 1.2, MeanService: 4.0,
		MinSide: 2, MaxSide: 6, Dist: workload.Bimodal,
	})
	run := func(p rearrange.Planner) sched.Metrics {
		s := sched.NewSimulator(sched.Config{
			Rows: 12, Cols: 12, Policy: area.FirstFit, Planner: p, MaxWait: 10,
		})
		return s.Run(stream)
	}
	once("fig7", func() {
		fmt.Println("\nDefragmentation study — allocation rate / waiting with on-line rearrangement:")
		fmt.Printf("%-22s %-10s %-12s %-12s %-12s\n", "planner", "alloc", "mean-wait", "frag(mean)", "moved-CLBs")
		for _, p := range []rearrange.Planner{
			rearrange.None{}, rearrange.OrderedCompaction{}, rearrange.LocalRepacking{},
		} {
			m := run(p)
			fmt.Printf("%-22s %-10.3f %-12.3f %-12.3f %-12d\n",
				p.Name(), m.AllocationRate, m.MeanWaitSec, m.MeanFragmentation, m.RelocatedCLBs)
		}
	})
	// Measured loop: the same study made physical — scattered designs are
	// loaded onto a live System and one best-effort compaction pass slides
	// them west/north through the configuration port. This is the path the
	// checkpointing machinery sits on (every slide brackets a configuration
	// checkpoint), so allocations/op here track the rollback state the
	// run-time manager keeps per pass. The lanes sweep transport
	// (Boundary-Scan, wide SelectMAP) crossed with delta/MFWR compression;
	// the bandwidth columns ride through benchdiff informationally. The
	// lanes time the defragmentation only: building the System and the two
	// cold loads run with the timer stopped.
	nl1 := itc99.Generate(itc99.GenConfig{
		Name: "gen1", Inputs: 3, Outputs: 2, FFs: 6, LUTs: 12,
		Seed: 99, Style: itc99.FreeRunning,
	})
	nl2 := itc99.Generate(itc99.GenConfig{
		Name: "gen2", Inputs: 3, Outputs: 2, FFs: 6, LUTs: 12,
		Seed: 98, Style: itc99.FreeRunning,
	})
	for _, lane := range []struct {
		name string
		opts []Option
	}{
		{"BoundaryScan", []Option{WithPort(BoundaryScan)}},
		{"BoundaryScan-compressed", []Option{WithPort(BoundaryScan), WithCompression()}},
		{"SelectMAP8", []Option{WithPort(SelectMAP)}},
		{"SelectMAP32-compressed", []Option{WithPort(SelectMAP), WithPortWidth(32), WithCompression()}},
	} {
		b.Run(lane.name, func(b *testing.B) {
			var last *System
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := New(append([]Option{WithDevice(fabric.XCV50)}, lane.opts...)...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Load(nl1, fabric.Rect{Row: 2, Col: 6, H: 4, W: 4}); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Load(nl2, fabric.Rect{Row: 8, Col: 6, H: 4, W: 4}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := sys.Defragment(DefragPolicy{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Moves) == 0 || rep.CellsRelocated == 0 {
					b.Fatalf("no physical compaction happened: %+v", rep)
				}
				last = sys
			}
			b.StopTimer()
			reportTraffic(b, last.Traffic(), last.Port().(interface{ Cycles() uint64 }).Cycles())
		})
	}
}

// --- Scenario diversity: fabric-vs-book-keeping divergence ------------------

// BenchmarkSchedFabricDivergence runs the named scenario matrix — profiled
// task streams whose netlists are sized to their allocated regions — on a
// live System against the pure book-keeping twin, and reports where fabric
// reality diverges from the model. The measured loop runs the ram-heavy
// scenario (the largest divergence: immovable RAM cells pin their columns,
// so the fabric refuses rearrangements the grid model books as feasible);
// the divergence figures ride through benchdiff as informational columns.
func BenchmarkSchedFabricDivergence(b *testing.B) {
	const tasks = 30
	matrix := sched.ScenarioMatrix(1, tasks, 1.0)
	runScenario := func(name string) sched.Divergence {
		sc, ok := sched.ScenarioByName(matrix, name)
		if !ok {
			b.Fatalf("unknown scenario %q", name)
		}
		sys, err := New(WithDevice(fabric.XCV50), WithPort(BoundaryScan))
		if err != nil {
			b.Fatal(err)
		}
		return sched.RunScenario(sc, NewFabricSpace(sys, false))
	}
	once("divergence", func() {
		fmt.Println("\nScenario divergence — live fabric vs book-keeping, XCV50:")
		fmt.Printf("%-16s %-11s %-11s %-10s %-9s %-10s\n",
			"scenario", "alloc-book", "alloc-fab", "phys-fail", "clb-gap", "reloc-s-fab")
		for _, sc := range matrix {
			d := runScenario(sc.Name)
			fmt.Printf("%-16s %-11.3f %-11.3f %-10d %-9d %-10.2f\n",
				d.Scenario, d.Book.AllocationRate, d.Fabric.AllocationRate,
				d.PhysicalPlaceFailures, d.RelocatedCLBGap, d.Fabric.RearrangeSeconds)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	var last sched.Divergence
	for i := 0; i < b.N; i++ {
		last = runScenario("ram-heavy")
		if last.Fabric.Submitted != tasks {
			b.Fatalf("scenario did not run: %+v", last.Fabric)
		}
	}
	b.ReportMetric(last.AllocationGap, "alloc_gap")
	b.ReportMetric(float64(last.PhysicalPlaceFailures), "phys_fail")
	b.ReportMetric(float64(last.RelocatedCLBGap), "clb_gap")
}

// --- Host-side O(change): unload and checkpoint costs ----------------------

// BenchmarkUnload measures decommissioning one design through the
// configuration port. The engine's occupancy view is maintained
// incrementally from the tool's touched-reporting, so the B/op and
// allocs/op of an unload track the design's own routing and cells — run the
// two device sizes to verify they do NOT scale with the device (the old
// rescan-per-write path was O(cells x device)).
func BenchmarkUnload(b *testing.B) {
	for _, preset := range []fabric.Preset{fabric.XCV50, fabric.XCV800} {
		b.Run(preset.Name, func(b *testing.B) {
			sys, err := New(WithDevice(preset), WithPort(SelectMAP))
			if err != nil {
				b.Fatal(err)
			}
			nl := itc99.Generate(itc99.GenConfig{
				Name: "gen", Inputs: 3, Outputs: 2, FFs: 6, LUTs: 12,
				Seed: 99, Style: itc99.FreeRunning,
			})
			region := fabric.Rect{Row: 4, Col: 6, H: 4, W: 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := sys.Load(nl, region); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sys.Unload("gen"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadWarmVsCold gates the template cache: a warm Load (cache hit:
// stream the pre-routed image, route only boundary nets) against a cold Load
// (full place-and-route) of the same circuit on XCV50. The warm path must
// come in well under the cold one — the acceptance floor is 5x.
func BenchmarkLoadWarmVsCold(b *testing.B) {
	cfg := genCfg("gen", 11, itc99.FreeRunning)
	region := fabric.Rect{Row: 4, Col: 6, H: 4, W: 4}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, err := New(WithDevice(fabric.XCV50), WithPort(SelectMAP),
				WithTemplateCache(&template.Policy{Capacity: 8}))
			if err != nil {
				b.Fatal(err)
			}
			sys.engine.FreeRouter() // built before timing, as in pingPongSetup
			nl := itc99.Generate(cfg)
			b.StartTimer()
			if _, err := sys.Load(nl, region); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "cold_ms_per_load")
	})

	b.Run("warm", func(b *testing.B) {
		sys, err := New(WithDevice(fabric.XCV50), WithPort(SelectMAP),
			WithTemplateCache(&template.Policy{Capacity: 8}))
		if err != nil {
			b.Fatal(err)
		}
		// Prime the cache: one cold load captures the template.
		if _, err := sys.Load(itc99.Generate(cfg), region); err != nil {
			b.Fatal(err)
		}
		if err := sys.Unload("gen"); err != nil {
			b.Fatal(err)
		}
		if st, _ := sys.TemplateStats(); st.Stores != 1 {
			b.Fatalf("priming load was not captured: %+v", st)
		}
		nl := itc99.Generate(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Load(nl, region); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := sys.Unload("gen"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		st, _ := sys.TemplateStats()
		if st.Hits != b.N {
			b.Fatalf("not every load was warm: %d/%d, %+v", st.Hits, b.N, st)
		}
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "warm_ms_per_load")
		b.ReportMetric(st.HitRate(), "tmpl_hit_rate")
	})
}

// BenchmarkCheckpoint measures opening and releasing a run-time-manager
// checkpoint via a no-op operation (a staged move with zero hops), with
// several designs resident. Checkpoints are copy-on-write on both sides —
// the frame tool's pre-images and the host book-keeping journal — so
// allocs/op here must not scale with the resident design count (the old
// path cloned the area grid plus every design's CellOf/SourceOf tables per
// checkpoint).
func BenchmarkCheckpoint(b *testing.B) {
	sys, err := New(WithDevice(fabric.XCV50), WithPort(SelectMAP))
	if err != nil {
		b.Fatal(err)
	}
	slots := []fabric.Rect{
		{Row: 1, Col: 2, H: 4, W: 4}, {Row: 1, Col: 8, H: 4, W: 4},
		{Row: 1, Col: 14, H: 4, W: 4}, {Row: 6, Col: 2, H: 4, W: 4},
		{Row: 6, Col: 8, H: 4, W: 4}, {Row: 6, Col: 14, H: 4, W: 4},
	}
	for i, slot := range slots {
		nl := itc99.Generate(itc99.GenConfig{
			Name: fmt.Sprintf("d%d", i), Inputs: 2, Outputs: 1, FFs: 4, LUTs: 8,
			Seed: uint64(100 + i), Style: itc99.FreeRunning,
		})
		if _, err := sys.Load(nl, slot); err != nil {
			b.Fatal(err)
		}
	}
	region, ok := sys.Region("d0")
	if !ok {
		b.Fatal("d0 not loaded")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.MoveStaged("d0", region, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Two-stage commit pipeline: multi-op transaction cost -------------------

// BenchmarkPlanCommit measures a three-op transaction (three design moves,
// ping-ponged between two region sets) through the Boundary-Scan port — the
// pipeline's home turf: op N+1 plans and routes while op N's partial
// bitstream shifts out, so wall-clock tracks the shift cycles, not host
// compute. overlap_ratio reports the fraction of relocations that started
// while a stream was in flight; host planning wall-clock is ms_per_clb's
// business in BenchmarkTab226msRelocationTime.
func BenchmarkPlanCommit(b *testing.B) {
	sys, err := New(WithDevice(fabric.XCV50), WithPort(BoundaryScan))
	if err != nil {
		b.Fatal(err)
	}
	homes := []fabric.Rect{
		{Row: 1, Col: 2, H: 4, W: 4}, {Row: 1, Col: 10, H: 4, W: 4}, {Row: 6, Col: 2, H: 4, W: 4},
	}
	aways := []fabric.Rect{
		{Row: 11, Col: 2, H: 4, W: 4}, {Row: 11, Col: 10, H: 4, W: 4}, {Row: 6, Col: 10, H: 4, W: 4},
	}
	names := []string{"p0", "p1", "p2"}
	for i, name := range names {
		nl := itc99.Generate(itc99.GenConfig{
			Name: name, Inputs: 2, Outputs: 1, FFs: 3, LUTs: 6,
			Seed: uint64(200 + i), Style: itc99.FreeRunning,
		})
		if _, err := sys.Load(nl, homes[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := aways
		if i%2 == 1 {
			to = homes
		}
		if err := sys.Plan().
			Move(names[0], to[0]).
			Move(names[1], to[1]).
			Move(names[2], to[2]).
			Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sys.Stats()
	if st.CellsRelocated > 0 {
		b.ReportMetric(float64(st.OverlappedOps)/float64(st.CellsRelocated), "overlap_ratio")
	}
}

// --- E8 / §2 headline: 22.6 ms mean CLB relocation time --------------------

func BenchmarkTab226msRelocationTime(b *testing.B) {
	// The paper: "The average relocation time of each CLB implementing
	// synchronous gated-clock circuits is about 22.6 ms, when the Boundary
	// Scan infrastructure is used ... at a test clock frequency of 20 MHz"
	// (ITC'99 circuits on an XCV200). We relocate every occupied CLB of a
	// mapped gated-clock ITC'99 circuit through the Boundary-Scan model
	// and report the measured mean.
	// setup builds the XCV200, places the circuit and builds the engine;
	// measure relocates the placed CLBs and also reports the host-side
	// planning cost (ms of wall-clock spent in placement/routing per CLB)
	// and the pipeline overlap ratio (fraction of relocations that started
	// executing while the previous operation's bitstream was still shifting
	// out) — the two numbers the commit pipeline moves: planning now
	// happens inside the shift window. The lanes time measure only.
	type tab2Setup struct {
		region fabric.Rect
		d      *place.Design
		eng    *relocate.Engine
	}
	setup := func(circuit string, mkPort func(*fabric.Device) bitstream.Port) tab2Setup {
		dev := fabric.NewDevice(fabric.XCV200)
		nl, err := itc99.Get(circuit)
		if err != nil {
			b.Fatal(err)
		}
		region, err := place.AutoRegion(dev, nl, 4, 4, 0.35)
		if err != nil {
			b.Fatal(err)
		}
		d, err := place.Place(dev, nl, place.Options{Region: region})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := relocate.NewEngine(dev, mkPort(dev))
		if err != nil {
			b.Fatal(err)
		}
		eng.MaxCyclesPerWait = 0
		eng.FreeRouter() // built before timing, as in pingPongSetup
		return tab2Setup{region: region, d: d, eng: eng}
	}
	measure := func(su tab2Setup) (msPerCLB float64, clbs int, hostMsPerCLB, overlap float64, cycles uint64, tr bitstream.Traffic) {
		// Relocate every occupied CLB of the region far away.
		seen := map[fabric.Coord]bool{}
		totalSec := 0.0
		dstRow, dstCol := su.region.Row+su.region.H+3, su.region.Col
		for _, ref := range su.d.OccupiedCells() {
			if seen[ref.Coord] {
				continue
			}
			seen[ref.Coord] = true
			dst := fabric.Coord{Row: dstRow, Col: dstCol}
			dstCol += 2
			if dstCol >= su.eng.Dev.Cols-2 {
				dstCol = su.region.Col
				dstRow += 2
			}
			moves, err := su.eng.RelocateCLB(ref.Coord, dst)
			if err != nil {
				b.Fatal(err)
			}
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				su.d.Rebind(fabric.CellRef{Coord: ref.Coord, Cell: cell}, fabric.CellRef{Coord: dst, Cell: cell})
			}
			for _, mv := range moves {
				totalSec += mv.Seconds
			}
			clbs++
			if clbs >= 24 { // enough CLBs for a stable mean
				break
			}
		}
		st := su.eng.Stats
		hostMsPerCLB = st.PlanSeconds * 1e3 / float64(clbs)
		if st.CellsRelocated > 0 {
			overlap = float64(st.OverlappedOps) / float64(st.CellsRelocated)
		}
		port := su.eng.Tool.Port()
		if cp, ok := port.(interface{ Cycles() uint64 }); ok {
			cycles = cp.Cycles()
		}
		tr = port.Meter().Usage(bitstream.Foreground).Traffic
		return totalSec * 1e3 / float64(clbs), clbs, hostMsPerCLB, overlap, cycles, tr
	}
	once("e8", func() {
		fmt.Println("\nHeadline — mean CLB relocation time, gated-clock ITC'99 on XCV200, Boundary-Scan @ 20 MHz:")
		fmt.Printf("%-8s %-10s %-12s %-14s %-10s (paper: 22.6 ms)\n", "circuit", "CLBs", "ms/CLB", "host-ms/CLB", "overlap")
		for _, c := range []string{"b03", "b07", "b10"} {
			ms, n, hostMs, ov, _, _ := measure(setup(c, jtagBenchPort))
			fmt.Printf("%-8s %-10d %-12.1f %-14.2f %-10.2f\n", c, n, ms, hostMs, ov)
		}
	})
	// One lane per transport, crossed with compression: the paper's headline
	// stays the Boundary-Scan lane's ms/CLB, the compressed lanes show what
	// the bandwidth layer buys, the SelectMAP lanes what a wide parallel port
	// buys on top. words_shifted/compression_ratio/tck_per_frame ride through
	// benchdiff informationally.
	for _, lane := range []struct {
		name string
		mk   func(*fabric.Device) bitstream.Port
	}{
		{"BoundaryScan", jtagBenchPort},
		{"BoundaryScan-compressed", compressBenchPort(jtagBenchPort)},
		{"SelectMAP8", directBenchPort},
		{"SelectMAP32-compressed", compressBenchPort(selectMapBenchPort(32))},
	} {
		b.Run(lane.name, func(b *testing.B) {
			var hostMs, overlap float64
			var cycles uint64
			var tr bitstream.Traffic
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				su := setup("b03", lane.mk)
				b.StartTimer()
				ms, _, h, ov, cy, tf := measure(su)
				b.ReportMetric(ms, "ms/CLB")
				hostMs, overlap, cycles, tr = h, ov, cy, tf
			}
			b.ReportMetric(hostMs, "ms_per_clb")
			b.ReportMetric(overlap, "overlap_ratio")
			reportTraffic(b, tr, cycles)
		})
	}
}

// --- Ablation: configuration port comparison --------------------------------

func BenchmarkAblationConfigPort(b *testing.B) {
	once("ports", func() {
		fmt.Println("\nAblation — configuration interface (same gated-cell relocation):")
		fmt.Printf("%-16s %-12s\n", "port", "ms/cell")
		for _, pk := range []struct {
			name string
			mk   func(*fabric.Device) bitstream.Port
		}{
			{"Boundary-Scan", jtagBenchPort},
			{"SelectMAP", directBenchPort},
		} {
			eng, home, spare := pingPongSetup(b, "b03", true, pk.mk)
			mv, err := eng.RelocateCell(home, spare)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("%-16s %-12.2f\n", pk.name, mv.Seconds*1e3)
		}
	})
	eng, home, spare := pingPongSetup(b, "b03", true, jtagBenchPort)
	locs := [2]fabric.CellRef{home, spare}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RelocateCell(locs[i%2], locs[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: allocation policies ------------------------------------------

func BenchmarkAblationPolicies(b *testing.B) {
	stream := workload.Stream(workload.Config{
		Seed: 11, N: 200, MeanInterarrival: 1.0, MeanService: 6.0,
		MinSide: 3, MaxSide: 8, Dist: workload.Bimodal,
	})
	once("policies", func() {
		fmt.Println("\nAblation — allocation policy under local repacking:")
		fmt.Printf("%-14s %-10s %-12s\n", "policy", "alloc", "frag(mean)")
		for _, p := range []area.Policy{area.FirstFit, area.BestFit, area.BottomLeft} {
			s := sched.NewSimulator(sched.Config{
				Rows: 14, Cols: 14, Policy: p, Planner: rearrange.LocalRepacking{}, MaxWait: 15,
			})
			m := s.Run(stream)
			fmt.Printf("%-14s %-10.3f %-12.3f\n", p, m.AllocationRate, m.MeanFragmentation)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sched.NewSimulator(sched.Config{
			Rows: 14, Cols: 14, Policy: area.BestFit, Planner: rearrange.LocalRepacking{}, MaxWait: 15,
		})
		s.Run(stream)
	}
}

// --- Ablation: device scaling ----------------------------------------------

func BenchmarkAblationDeviceScaling(b *testing.B) {
	// Frame length scales with device rows, so per-cell relocation time
	// grows with the device — the paper notes reconfiguration time depends
	// on the device and interface.
	measure := func(preset fabric.Preset) float64 {
		dev := fabric.NewDevice(preset)
		nl, err := itc99.Get("b01")
		if err != nil {
			b.Fatal(err)
		}
		region, err := place.AutoRegion(dev, nl, 2, 2, 0.35)
		if err != nil {
			b.Fatal(err)
		}
		d, err := place.Place(dev, nl, place.Options{Region: region})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := relocate.NewEngine(dev, jtagBenchPort(dev))
		if err != nil {
			b.Fatal(err)
		}
		eng.MaxCyclesPerWait = 0
		var from fabric.CellRef
		for id, nd := range nl.Nodes {
			if nd.Kind == netlist.KindFF {
				if ref, ok := d.CellOf[netlist.ID(id)]; ok {
					from = ref
					break
				}
			}
		}
		to := fabric.CellRef{Coord: fabric.Coord{Row: dev.Rows - 3, Col: dev.Cols - 3}, Cell: from.Cell}
		mv, err := eng.RelocateCell(from, to)
		if err != nil {
			b.Fatal(err)
		}
		return mv.Seconds * 1e3
	}
	once("scaling", func() {
		fmt.Println("\nAblation — device scaling (same cell move, Boundary-Scan @ 20 MHz):")
		fmt.Printf("%-10s %-10s %-12s %-10s\n", "device", "CLBs", "frame-bits", "ms/cell")
		for _, p := range []fabric.Preset{fabric.XCV50, fabric.XCV200, fabric.XCV800} {
			dev := fabric.NewDevice(p)
			fmt.Printf("%-10s %-10d %-12d %-10.2f\n", p.Name, p.Rows*p.Cols, dev.FrameBits(), measure(p))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = measure(fabric.XCV50)
	}
}

// --- Construction ----------------------------------------------------------

// BenchmarkNewSystem pins what building a System costs: the frame tool's
// shadow of every frame and the occupancy view decoded from those frames.
// The engine's router is built by the first route, not here.
func BenchmarkNewSystem(b *testing.B) {
	for _, preset := range []fabric.Preset{fabric.XCV50, fabric.XCV800} {
		b.Run(preset.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(WithDevice(preset), WithPort(BoundaryScan)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// denseXCV800 is an XCV800 loaded over most of its array: 96 designs in a
// grid of 6x6 regions, each routed around the ones before it, one input pad
// on the West edge and one output pad on the East. It is built once per test
// binary; building an engine only reads it.
var denseXCV800 = sync.OnceValues(func() (*fabric.Device, error) {
	dev := fabric.NewDevice(fabric.XCV800)
	eng, err := relocate.NewEngine(dev, directBenchPort(dev))
	if err != nil {
		return nil, err
	}
	reserved := map[fabric.PadRef]bool{}
	for i := 0; i < 96; i++ {
		nl := itc99.Generate(itc99.GenConfig{
			Name: fmt.Sprintf("d%d", i), Inputs: 1, Outputs: 1,
			Seed: uint64(i + 1), Style: itc99.FreeRunning,
		}.SizedTo(6*6*fabric.CellsPerCLB, 0.35))
		region := fabric.Rect{Row: i / 12 * 7, Col: i % 12 * 7, H: 6, W: 6}
		if _, err := place.Place(dev, nl, place.Options{Region: region, ReservePads: reserved, Router: eng.FreeRouter()}); err != nil {
			return nil, fmt.Errorf("placing %s at %v: %w", nl.Name, region, err)
		}
		if err := eng.Tool.Sync(); err != nil {
			return nil, err
		}
	}
	return dev, nil
})

// BenchmarkNewEngineDenseXCV800 pins engine construction on a densely
// loaded large device, where the view's frame decode has the most set bits
// to re-derive.
func BenchmarkNewEngineDenseXCV800(b *testing.B) {
	dev, err := denseXCV800()
	if err != nil {
		b.Fatal(err)
	}
	port := directBenchPort(dev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relocate.NewEngine(dev, port); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durable state: crash recovery ---------------------------------------

// BenchmarkRecoverFromJournal measures host crash recovery end to end: a
// journaled facade workout is crashed at its last post boundary (shift
// landed, seal lost — the roll-forward case, which reads back every dirty
// frame for the digest comparison), and each iteration reconciles the
// journal tail against a rebuilt device and reinstates the full host state.
// recover_ms rides through benchdiff as an informational column.
func BenchmarkRecoverFromJournal(b *testing.B) {
	dir := b.TempDir()
	crash := postCrash(b, dir+"/op.journal")
	rebuild := func() (*fabric.Device, string) {
		path := dir + "/crash.journal"
		if err := os.WriteFile(path, crash.jdata, 0o644); err != nil {
			b.Fatal(err)
		}
		dev := fabric.NewDevice(fabric.TestDevice)
		for addr, words := range crash.frames {
			if err := dev.WriteFrame(addr.Major, addr.Minor, words); err != nil {
				b.Fatal(err)
			}
		}
		return dev, path
	}
	b.ReportAllocs()
	b.ResetTimer()
	var framesChecked int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, path := rebuild()
		b.StartTimer()
		_, rep, err := Recover(dev, path)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Action != "rolled-forward" {
			b.Fatalf("action = %q, want rolled-forward", rep.Action)
		}
		framesChecked = rep.FramesChecked
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "recover_ms")
	b.ReportMetric(float64(framesChecked), "frames_checked")
}

// longHistory is the journal of a journaled XCV50 history, as rlmbench's
// crash-recover workload writes one but four times longer: four designs
// loaded, then 64 moves, each design going between two slots, and Close.
// The final commit seal is cut, so the journal ends in an unsealed move
// with its post state. It returns the cut journal and the device's frames.
var longHistory = sync.OnceValues(func() (crashPoint, error) {
	dir, err := os.MkdirTemp("", "rlm-history-")
	if err != nil {
		return crashPoint{}, err
	}
	defer os.RemoveAll(dir)
	path := dir + "/history.journal"
	sys, err := New(WithDevice(fabric.XCV50), WithJournal(path))
	if err != nil {
		return crashPoint{}, err
	}
	slot := func(i int) fabric.Rect { return fabric.Rect{Row: 2 + 7*(i/4), Col: 3 + 5*(i%4), H: 3, W: 3} }
	names := make([]string, 4)
	for i := range names {
		style := itc99.GatedClock
		if i%2 == 1 {
			style = itc99.FreeRunning
		}
		nl := itc99.Generate(itc99.GenConfig{
			Name: fmt.Sprintf("d%d", i), Inputs: 2, Outputs: 2, FFs: 5, LUTs: 10,
			Seed: uint64(100 + i), Style: style, CEFraction: 0.75,
		})
		names[i] = nl.Name
		if _, err := sys.Load(nl, slot(i)); err != nil {
			return crashPoint{}, err
		}
	}
	away := make([]bool, 4)
	for move := 0; move < 64; move++ {
		i := move % 4
		to := slot(i + 4)
		if away[i] {
			to = slot(i)
		}
		if err := sys.Move(names[i], to); err != nil {
			return crashPoint{}, err
		}
		away[i] = !away[i]
	}
	if err := sys.Close(); err != nil {
		return crashPoint{}, err
	}
	img, err := os.ReadFile(path)
	if err != nil {
		return crashPoint{}, err
	}
	log, err := journal.ScanBytes(img)
	if err != nil {
		return crashPoint{}, err
	}
	last := log.Records[len(log.Records)-1]
	if last.Type != journal.RecCommit {
		return crashPoint{}, fmt.Errorf("history ends on a %v record, want commit", last.Type)
	}
	const header = 9 // a record's type byte, payload length and CRC
	return crashPoint{jdata: img[:len(img)-header-len(last.Payload)], frames: dumpFrames(sys.Device())}, nil
})

// BenchmarkRecoverLongHistory recovers the longHistory crash: 64 moves of
// history before the unsealed one. Recover reads a journal in one pass and
// keeps only the records it decodes, so its B/op must stay near
// BenchmarkRecoverFromJournal's and must not grow with the history.
func BenchmarkRecoverLongHistory(b *testing.B) {
	crash, err := longHistory()
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/crash.journal"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(path, crash.jdata, 0o644); err != nil {
			b.Fatal(err)
		}
		dev := fabric.NewDevice(fabric.XCV50)
		for addr, words := range crash.frames {
			if err := dev.WriteFrame(addr.Major, addr.Minor, words); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		sys, rep, err := Recover(dev, path)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rep.Action != "rolled-forward" || len(rep.Designs) != 4 {
			b.Fatalf("recovered %s with %v, want rolled-forward with four designs", rep.Action, rep.Designs)
		}
		sys.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(crash.jdata)), "journal_bytes")
}
