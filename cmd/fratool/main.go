// Command fratool is the "FPGA Rearrangement and Programming tool" of the
// paper's §4 as a CLI: it loads designs, generates the partial configuration
// files that implement relocations (from source/destination CLB coordinates,
// exactly as the paper describes), applies them through a simulated
// Boundary-Scan interface, and reports frame counts and reconfiguration
// times. A full shadow copy of the configuration is kept for recovery.
//
// Usage:
//
//	fratool -device XCV200 -design b03 -from R3C4 -to R10C12
//	fratool -device XCV50  -design b02 -move-region 8,8
//	fratool -device XCV50  -design b02 -move-region 8,8 -port selectmap -width 32 -compress
//	fratool -list-benchmarks
//
// The trace subcommand batch-ingests recorded schedsim task traces
// (see schedsim -record): it validates each input, prints a summary, and
// with -o merges them into one arrival-ordered trace for replay:
//
//	fratool trace night1.trace night2.trace
//	fratool trace -o merged.trace night1.trace night2.trace
//
// The journal subcommand maintains operation journals written by
// rlm.WithJournal: compact collapses a sealed journal's history into its
// Init record plus one state snapshot (refusing torn or unsealed files —
// those belong to rlm.Recover):
//
//	fratool journal compact ops.journal more.journal
//
// The health subcommand prints the per-column health ledger the journal's
// last committed state carries (the self-healing layer's column states,
// error rates and probe history), plus the number of quarantined columns:
//
//	fratool health ops.journal
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	rlm "repro"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/journal"
	"repro/internal/jtag"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "journal" {
		journalCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "health" {
		healthCmd(os.Args[2:])
		return
	}
	var (
		deviceName = flag.String("device", "XCV200", "device preset: TEST12x8, XCV50, XCV200, XCV800")
		designName = flag.String("design", "", "ITC'99 benchmark to load (b01..b14)")
		fromCLB    = flag.String("from", "", "source CLB coordinate, e.g. R3C4")
		toCLB      = flag.String("to", "", "destination CLB coordinate, e.g. R10C12")
		moveRegion = flag.String("move-region", "", "move the whole design region to ROW,COL")
		planFile   = flag.String("plan", "", "placement-plan file: lines of 'RnCm -> RnCm' CLB moves")
		maxStep    = flag.Int("max-step", 0, "stage long moves into hops of at most this many CLBs (0 = direct)")
		tck        = flag.Float64("tck", jtag.DefaultTCKHz, "Boundary-Scan test clock frequency (Hz)")
		portName   = flag.String("port", "boundary-scan", "configuration port: boundary-scan | selectmap")
		portWidth  = flag.Int("width", 0, "SelectMAP data-port width in bits: 8, 16 or 32 (0 = 8; -port selectmap only)")
		compress   = flag.Bool("compress", false, "ship delta/MFWR-compressed configuration streams")
		verify     = flag.Bool("verify", true, "run the design in lock-step against its golden model during the relocation")
		list       = flag.Bool("list-benchmarks", false, "list available benchmark circuits")
		showMap    = flag.Bool("map", false, "print the occupancy map after the operation")
		progress   = flag.Bool("progress", true, "print the system's event stream while the tool works")
	)
	flag.Parse()

	if *list {
		for _, s := range itc99.Suite {
			fmt.Printf("%-4s %-34s in=%2d out=%2d ff=%3d lut=%4d style=%s\n",
				s.Name, s.Desc, s.Inputs, s.Outputs, s.FFs, s.LUTs, s.Style)
		}
		return
	}
	if *designName == "" {
		fmt.Fprintln(os.Stderr, "fratool: -design is required (see -list-benchmarks)")
		os.Exit(2)
	}

	preset, ok := fabric.PresetByName(*deviceName)
	if !ok {
		fail(fmt.Errorf("unknown device %q", *deviceName))
	}
	portKind := rlm.BoundaryScan
	switch *portName {
	case "boundary-scan":
	case "selectmap":
		portKind = rlm.SelectMAP
	default:
		fail(fmt.Errorf("unknown port %q (want boundary-scan or selectmap)", *portName))
	}
	opts := []rlm.Option{rlm.WithDevice(preset), rlm.WithPort(portKind), rlm.WithClock(*tck)}
	if *portWidth > 0 {
		opts = append(opts, rlm.WithPortWidth(*portWidth))
	}
	if *compress {
		opts = append(opts, rlm.WithCompression())
	}
	sys, err := rlm.New(opts...)
	fail(err)

	// Typed event stream: every load, CLB relocation and rearrangement the
	// system performs is reported as it happens.
	var evDone chan struct{}
	var evCancel func()
	if *progress {
		var ch <-chan rlm.Event
		ch, evCancel = sys.Subscribe(1024)
		evDone = make(chan struct{})
		go func() {
			defer close(evDone)
			for e := range ch {
				fmt.Println("  |", e)
			}
		}()
	}

	nl, err := itc99.Get(*designName)
	fail(err)
	design, err := sys.Load(nl, fabric.Rect{})
	fail(err)
	fmt.Printf("loaded %s into %v on %s (%d CLBs, %d nets)\n",
		design.Name, design.Region, preset.Name, design.Region.Area(), len(design.Nets))

	// Optional lock-step verification while the tool works.
	var ls *sim.LockStep
	rng := uint64(0xF00D)
	if *verify {
		ls, err = sim.NewLockStep(design)
		fail(err)
		step := func(n int) error {
			for i := 0; i < n; i++ {
				in := make([]bool, len(nl.Inputs()))
				for k := range in {
					rng = rng*6364136223846793005 + 1442695040888963407
					in[k] = rng>>40&1 == 1
				}
				if err := ls.Step(in); err != nil {
					return err
				}
			}
			return nil
		}
		fail(step(20))
		sys.Engine().Clock = step
	}

	switch {
	case *planFile != "":
		plan, err := readPlan(*planFile)
		fail(err)
		for _, mv := range plan {
			moves, err := sys.Engine().RelocateCLB(mv[0], mv[1])
			fail(err)
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				design.Rebind(fabric.CellRef{Coord: mv[0], Cell: cell}, fabric.CellRef{Coord: mv[1], Cell: cell})
			}
			for _, m := range moves {
				fmt.Printf("plan: %v -> %v  frames=%d time=%.2f ms\n", m.From, m.To, m.Frames, m.Seconds*1e3)
			}
		}
	case *fromCLB != "" && *toCLB != "":
		from, err := parseCoord(*fromCLB)
		fail(err)
		to, err := parseCoord(*toCLB)
		fail(err)
		moves, err := sys.Engine().RelocateCLB(from, to)
		fail(err)
		for cell := 0; cell < fabric.CellsPerCLB; cell++ {
			design.Rebind(fabric.CellRef{Coord: from, Cell: cell}, fabric.CellRef{Coord: to, Cell: cell})
		}
		for _, mv := range moves {
			aux := "-"
			if mv.UsedAux {
				aux = mv.Aux.String()
			}
			fmt.Printf("relocated %v -> %v  frames=%-4d time=%6.2f ms  aux=%s  parallel-delay=%.2f ns\n",
				mv.From, mv.To, mv.Frames, mv.Seconds*1e3, aux, mv.MaxParallelDelayNs)
		}
	case *moveRegion != "":
		var row, col int
		if _, err := fmt.Sscanf(*moveRegion, "%d,%d", &row, &col); err != nil {
			fail(fmt.Errorf("bad -move-region %q: %v", *moveRegion, err))
		}
		to := design.Region
		to.Row, to.Col = row, col
		before := sys.Port().Elapsed()
		if *maxStep > 0 {
			fail(sys.MoveStaged(design.Name, to, *maxStep))
		} else {
			fail(sys.Move(design.Name, to))
		}
		fmt.Printf("moved %s to %v: %d cells, %.2f ms of %s traffic\n",
			design.Name, to, sys.Stats().CellsRelocated, (sys.Port().Elapsed()-before)*1e3, sys.Port().Name())
	default:
		fmt.Println("nothing to do: pass -from/-to or -move-region")
	}

	if *verify && ls != nil {
		fail(ls.CheckState())
		fmt.Println("lock-step verification: no output glitches, no state loss")
	}
	if evCancel != nil {
		evCancel()
		<-evDone
	}
	st := sys.Stats()
	fmt.Printf("totals: cells=%d aux-circuits=%d frames=%d port-time=%.2f ms (%s)\n",
		st.CellsRelocated, st.AuxCircuits, st.FramesWritten, st.PortSeconds*1e3, sys.Port().Name())
	tr := sys.Traffic()
	fmt.Printf("traffic: %d words shifted (%d uncompressed, %.2fx), %d frame deliveries\n",
		tr.WordsShifted, tr.FullWords, tr.CompressionRatio(), tr.FramesDelivered)
	if *showMap {
		fmt.Print(sys.Map())
	}
}

// readPlan parses a placement-plan file: one "RnCm -> RnCm" move per line,
// '#' comments and blank lines ignored. This is the paper's "complete
// configuration file ... with a new placement" input path.
func readPlan(path string) ([][2]fabric.Coord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var plan [][2]fabric.Coord
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "->")
		if len(parts) != 2 {
			return nil, fmt.Errorf("plan line %d: want 'RnCm -> RnCm', got %q", ln+1, line)
		}
		from, err := parseCoord(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("plan line %d: %v", ln+1, err)
		}
		to, err := parseCoord(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("plan line %d: %v", ln+1, err)
		}
		plan = append(plan, [2]fabric.Coord{from, to})
	}
	return plan, nil
}

func parseCoord(s string) (fabric.Coord, error) {
	var c fabric.Coord
	if _, err := fmt.Sscanf(strings.ToUpper(s), "R%dC%d", &c.Row, &c.Col); err != nil {
		return c, fmt.Errorf("bad coordinate %q (want RnCm): %v", s, err)
	}
	return c, nil
}

// traceCmd is the batch-ingest path for recorded workload traces: validate
// and summarise every input, and with -o merge them (arrival-ordered,
// re-numbered) into a single trace schedsim -replay can consume. The merge
// semantics live in internal/workload (MergeTraces); this is only the CLI.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("fratool trace", flag.ExitOnError)
	out := fs.String("o", "", "write the merged trace to this file (omit to only validate and summarise)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "fratool trace: no input traces (usage: fratool trace [-o merged.trace] FILE...)")
		os.Exit(2)
	}
	var traces []*workload.Trace
	for _, path := range fs.Args() {
		tr, err := workload.LoadTrace(path)
		fail(err)
		last := 0.0
		if n := len(tr.Tasks); n > 0 {
			last = tr.Tasks[n-1].Arrival
		}
		fmt.Printf("%-30s v%d %-12q %5d tasks over %8.1f s\n", path, tr.Version, tr.Label, len(tr.Tasks), last)
		traces = append(traces, tr)
	}
	if *out == "" {
		return
	}
	merged, err := workload.MergeTraces(traces...)
	fail(err)
	fail(workload.SaveTrace(*out, merged))
	fmt.Printf("merged %d traces -> %s (%d tasks)\n", len(traces), *out, len(merged.Tasks))
}

func journalCmd(args []string) {
	if len(args) == 0 || args[0] != "compact" {
		fmt.Fprintln(os.Stderr, "fratool journal: usage: fratool journal compact FILE...")
		os.Exit(2)
	}
	files := args[1:]
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "fratool journal compact: no journal files given")
		os.Exit(2)
	}
	for _, path := range files {
		st, err := os.Stat(path)
		fail(err)
		before := st.Size()
		after, err := journal.Compact(path)
		fail(err)
		fmt.Printf("%-30s %8d -> %8d bytes (%.0f%%)\n",
			path, before, after, 100*float64(after)/float64(before))
	}
}

// healthCmd prints the health ledger of a journal's last committed state:
// one row per column that ever produced evidence, plus the count of
// quarantined columns. Works on live and compacted journals; an unsealed
// tail is reported but not reconciled (that is rlm.Recover's job).
func healthCmd(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "fratool health: usage: fratool health JOURNAL")
		os.Exit(2)
	}
	p, err := journal.PrepareFile(args[0])
	fail(err)
	rs, err := p.Decode()
	fail(err)
	st := &rs.State
	quarantined := 0
	for _, h := range st.Health {
		if h.State == uint8(rlm.ColumnQuarantined) {
			quarantined++
		}
	}
	fmt.Printf("%s: state seq %d, %d design(s), %d quarantined column(s)\n",
		args[0], st.Seq, len(st.Designs), quarantined)
	if rs.Tail != nil {
		fmt.Printf("  note: unsealed tail op %d (%s); the ledger below is the last committed state\n",
			rs.Tail.Begin.Seq, rs.Tail.Begin.Op)
	}
	if len(st.Health) == 0 {
		fmt.Println("  no health ledger: no column ever produced evidence")
		return
	}
	stateNames := []string{"healthy", "suspect", "quarantined", "probation"}
	fmt.Println("  column  state        rate    probes  fails  repairs  clean-probes  clean-checks")
	for _, h := range st.Health {
		name := fmt.Sprintf("state(%d)", h.State)
		if int(h.State) < len(stateNames) {
			name = stateNames[h.State]
		}
		fmt.Printf("  F%-5d  %-11s %6.4f  %6d  %5d  %7d  %12d  %12d\n",
			h.Major, name, h.Rate, h.Probes, h.ProbeFails, h.Repairs, h.CleanProbes, h.CleanChecks)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fratool:", err)
		os.Exit(1)
	}
}
