package relocate

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/place"
)

// TestViewMatchesRescanUnderRandomOps is the O(change) contract's property
// test: after ANY sequence of loads (designer-path writes), relocations,
// tree releases, cell/pad clears, raw PIP pokes and checkpoint rollbacks, the
// incrementally maintained view must be bit-identical to a fresh rescan of
// the configuration memory.
func TestViewMatchesRescanUnderRandomOps(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	ctrl := bitstream.NewController(dev)
	port := bitstream.NewParallelPort(ctrl, 50e6)
	eng, err := NewEngine(dev, port)
	if err != nil {
		t.Fatal(err)
	}
	eng.MaxCyclesPerWait = 0
	rng := rand.New(rand.NewSource(20260726))

	reserved := map[fabric.PadRef]bool{}
	var cells []fabric.CellRef  // cells believed occupied (may go stale)
	var sources []fabric.NodeID // net sources of loaded designs
	var pads []fabric.PadRef    // pads bound by loaded designs

	check := func(ctx string) {
		t.Helper()
		eng.view.refresh()
		fresh := newView(dev)
		if !slices.Equal(eng.view.used, fresh.used) {
			for n, used := range fresh.used {
				if used && !eng.view.used[n] {
					t.Errorf("%s: node %d used on device, missing from view", ctx, n)
				}
				if !used && eng.view.used[n] {
					t.Errorf("%s: node %d in view, free on device", ctx, n)
				}
			}
			t.Fatalf("%s: used sets diverged", ctx)
		}
		if !slices.Equal(eng.view.freeCLB, fresh.freeCLB) {
			t.Fatalf("%s: freeCLB sets diverged", ctx)
		}
		// The router reads the view in place: it blocks exactly the nodes
		// the configuration memory shows in use.
		r := eng.FreeRouter()
		for n, used := range fresh.used {
			if r.Blocked(fabric.NodeID(n)) != used {
				t.Fatalf("%s: FreeRouter blocks node %d: %t, configuration memory uses it: %t", ctx, n, !used, used)
			}
		}
	}

	load := func(i int) {
		nl := itc99.Generate(itc99.GenConfig{
			Name: "rnd", Inputs: 2, Outputs: 1, FFs: 2, LUTs: 3,
			Seed: uint64(i + 1), Style: itc99.FreeRunning,
		})
		row, col := rng.Intn(dev.Rows-3), rng.Intn(dev.Cols-3)
		region, err := place.AutoRegion(dev, nl, row, col, 0.35)
		if err != nil {
			return
		}
		d, err := place.Place(dev, nl, place.Options{Region: region, ReservePads: reserved})
		if err != nil {
			return
		}
		cells = append(cells, d.OccupiedCells()...)
		for _, src := range d.SourceOf {
			sources = append(sources, src)
		}
		for _, p := range d.PadOf {
			pads = append(pads, p)
		}
		// Half the loads reconcile through the tool (the facade's path, each
		// adopted frame's bit diff); the other half leave the designer writes
		// for the view's own undeclared-generation fallback to discover.
		if rng.Intn(2) == 0 {
			if err := eng.Tool.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}

	op := func(i int) string {
		switch k := rng.Intn(11); k {
		case 0, 1:
			load(i)
			return "load"
		case 2, 3, 4:
			if len(cells) == 0 {
				return "noop"
			}
			ci := rng.Intn(len(cells))
			from := cells[ci]
			near := fabric.Coord{Row: rng.Intn(dev.Rows), Col: rng.Intn(dev.Cols)}
			dst, err := eng.view.findFreeCLB(near, from.Coord)
			if err != nil {
				return "relocate-nofree"
			}
			to := fabric.CellRef{Coord: dst, Cell: from.Cell}
			if _, err := eng.RelocateCell(from, to); err == nil {
				cells[ci] = to
			}
			return "relocate"
		case 5:
			if len(sources) == 0 {
				return "noop"
			}
			_ = eng.ReleaseTree(sources[rng.Intn(len(sources))])
			return "release-tree"
		case 6:
			if len(cells) == 0 {
				return "noop"
			}
			ci := rng.Intn(len(cells))
			if err := eng.ClearCell(cells[ci]); err != nil {
				t.Fatal(err)
			}
			cells = append(cells[:ci], cells[ci+1:]...)
			return "clear-cell"
		case 7:
			if len(pads) == 0 {
				return "noop"
			}
			pi := rng.Intn(len(pads))
			if err := eng.ClearPad(pads[pi]); err != nil {
				t.Fatal(err)
			}
			delete(reserved, pads[pi])
			pads = append(pads[:pi], pads[pi+1:]...)
			return "clear-pad"
		case 8:
			// Reroute a random routed pin (duplicate-then-drop, Fig. 5).
			if len(cells) == 0 {
				return "noop"
			}
			ref := cells[rng.Intn(len(cells))]
			for k := 0; k < fabric.LUTInputs; k++ {
				l := fabric.LocalPinI(ref.Cell, k)
				if dev.PIPMask(ref.Coord, l) != 0 {
					_, _ = eng.RerouteSink(ref.Coord, l)
					return "reroute"
				}
			}
			return "noop"
		case 9:
			// Raw designer-path poke: toggle one valid PIP bit directly on
			// the device, bypassing the tool entirely.
			c := fabric.Coord{Row: rng.Intn(dev.Rows), Col: rng.Intn(dev.Cols)}
			local := rng.Intn(fabric.LocalHex(3, fabric.HexesPerDir-1) + 1)
			if !fabric.IsLocalSink(local) {
				return "noop"
			}
			mask := dev.PIPMask(c, local)
			bit := rng.Intn(len(fabric.SinkSources(local)))
			dev.SetPIPMask(c, local, mask^(1<<bit))
			return "raw-pip"
		default:
			// Checkpoint a few ops, roll them back through the recovery
			// stream, and verify the view is restored from the dirty set.
			if err := eng.Tool.Arm(); err != nil {
				t.Fatal(err)
			}
			for n := rng.Intn(3); n >= 0; n-- {
				if len(cells) > 0 {
					_ = eng.ClearCell(cells[rng.Intn(len(cells))])
				}
				if len(sources) > 0 && rng.Intn(2) == 0 {
					_ = eng.ReleaseTree(sources[rng.Intn(len(sources))])
				}
			}
			words, err := eng.Tool.RecoveryWords()
			if err != nil {
				t.Fatal(err)
			}
			if len(words) > 0 {
				if err := ctrl.Feed(words...); err != nil {
					t.Fatal(err)
				}
			}
			eng.Tool.CompleteRestore()
			eng.Tool.Disarm()
			return "rollback"
		}
	}

	check("initial")
	for i := 0; i < 220; i++ {
		name := op(i)
		check(name)
		if t.Failed() {
			t.Fatalf("diverged after op %d (%s)", i, name)
		}
	}
}

// TestAuditViewNamesEachDisagreement pins the audit itself: an exact view
// passes, and a view wrong in any one of its four parts, or behind a
// configuration change that was never declared, is reported.
func TestAuditViewNamesEachDisagreement(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	eng, err := NewEngine(dev, bitstream.NewParallelPort(bitstream.NewController(dev), 50e6))
	if err != nil {
		t.Fatal(err)
	}
	nl := itc99.Generate(itc99.GenConfig{Name: "a", Inputs: 2, Outputs: 1, FFs: 2, LUTs: 3, Style: itc99.FreeRunning})
	d, err := place.Place(dev, nl, place.Options{Region: fabric.Rect{Row: 1, Col: 1, H: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Tool.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := eng.AuditView(); err != nil {
		t.Fatalf("exact view: %v", err)
	}
	node := d.SourceOf[0] // an input's pad node
	free, err := eng.view.findFreeCLB(fabric.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	tile := dev.TileIndex(free)
	for _, tc := range []struct {
		part  string
		spoil func(v *view)
		mend  func(v *view)
	}{
		{"node", func(v *view) { v.used[node] = false }, func(v *view) { v.used[node] = true }},
		{"CLB", func(v *view) { v.freeCLB[tile] = false }, func(v *view) { v.freeCLB[tile] = true }},
		{"row", func(v *view) { v.freePerRow[free.Row]++ }, func(v *view) { v.freePerRow[free.Row]-- }},
		{"free CLBs", func(v *view) { v.freeCount++ }, func(v *view) { v.freeCount-- }},
		// A raw write that bypasses the tool: a reader would rescan it away,
		// so the audit reports it before comparing.
		{"never declared", func(*view) { dev.WriteCell(fabric.CellRef{Coord: free}, fabric.CellConfig{Used: true}) }, func(*view) {
			if err := eng.Tool.Sync(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		tc.spoil(eng.view)
		err := eng.AuditView()
		if err == nil || !strings.Contains(err.Error(), tc.part) {
			t.Errorf("view wrong in its %s part: audit says %v", tc.part, err)
		}
		tc.mend(eng.view)
		if err := eng.AuditView(); err != nil {
			t.Fatalf("mended %s part: %v", tc.part, err)
		}
	}
}

// TestViewAfterFailedPartialRecovery runs a rollback whose partial recovery
// stream never reached the device. CompleteRestore rolls the shadow back and
// the view re-derives the rollback from a device that still holds the
// operation's writes; the full recovery stream then restores frames the
// shadow already holds, so adopting them declares nothing. Only the
// full-recovery rescan brings the view back.
func TestViewAfterFailedPartialRecovery(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	ctrl := bitstream.NewController(dev)
	eng, err := NewEngine(dev, bitstream.NewParallelPort(ctrl, 50e6))
	if err != nil {
		t.Fatal(err)
	}
	nl := itc99.Generate(itc99.GenConfig{Name: "a", Inputs: 2, Outputs: 1, FFs: 2, LUTs: 3, Style: itc99.FreeRunning})
	d, err := place.Place(dev, nl, place.Options{Region: fabric.Rect{Row: 1, Col: 1, H: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Tool.Arm(); err != nil {
		t.Fatal(err)
	}
	for _, ref := range d.OccupiedCells() {
		if err := eng.ClearCell(ref); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Tool.RecoveryWords(); err != nil { // built, never fed
		t.Fatal(err)
	}
	eng.Tool.CompleteRestore()
	if err := ctrl.Feed(eng.Tool.Shadow().RecoveryBitstream()...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tool.Sync(); err != nil {
		t.Fatal(err)
	}
	if eng.AuditView() == nil {
		t.Fatal("the view agrees before the rescan: the sequence no longer exercises the failed partial recovery")
	}
	eng.RescanView()
	if err := eng.AuditView(); err != nil {
		t.Fatal(err)
	}
}

// TestViewAfterPadOutMaskClear releases a border wire in two staged frames:
// first its own PIP, then the OutMask of the output pad it drives. Between
// the two the wire stays used, fed to the pad; the pad's configuration bits
// must re-derive every wire the pad's OutMask can select, not only the pad
// node.
func TestViewAfterPadOutMaskClear(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	eng, err := NewEngine(dev, bitstream.NewParallelPort(bitstream.NewController(dev), 50e6))
	if err != nil {
		t.Fatal(err)
	}
	pad := fabric.PadRef{Side: fabric.East, Pos: 3}
	wire := dev.PadOutSourceNode(pad, 0)
	tile, local, _ := dev.SplitNode(wire)
	src := dev.PIPSource(tile, local, 0)
	if err := eng.Tool.SetPIP(src, wire, true); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tool.WritePadConfig(pad, fabric.PadConfig{Output: true, OutMask: 1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tool.SetPIP(src, wire, false); err != nil {
		t.Fatal(err)
	}
	if !eng.view.used[wire] {
		t.Fatal("the wire is free while the pad still selects it: the test no longer stages the two writes apart")
	}
	if err := eng.AuditView(); err != nil {
		t.Fatalf("after the wire's PIP: %v", err)
	}
	if err := eng.Tool.WritePadConfig(pad, fabric.PadConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AuditView(); err != nil {
		t.Fatalf("after the pad's OutMask: %v", err)
	}
}
