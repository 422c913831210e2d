package relocate_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/relocate"
)

// TestRandomisedRelocationScenarios is a property test over the whole
// relocation engine: random small circuits (all three design styles), random
// sequences of cell moves to random free destinations, with full lock-step
// verification and the no-dangling-wire invariant after every move.
func TestRandomisedRelocationScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised scenario sweep")
	}
	scenarios := []struct {
		seed  uint64
		style itc99.Style
		ffs   int
		luts  int
	}{
		{101, itc99.FreeRunning, 5, 12},
		{102, itc99.GatedClock, 6, 14},
		{103, itc99.FreeRunning, 8, 18},
		{104, itc99.GatedClock, 4, 10},
		{105, itc99.FreeRunning, 3, 8},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.style.String(), func(t *testing.T) {
			dev := fabric.NewDevice(fabric.XCV50)
			nl := itc99.Generate(itc99.GenConfig{
				Name: "rand", Inputs: 3, Outputs: 3,
				FFs: sc.ffs, LUTs: sc.luts,
				Seed: sc.seed, Style: sc.style, CEFraction: 0.6,
			})
			region, err := place.AutoRegion(dev, nl, 2, 2, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			d, err := place.Place(dev, nl, place.Options{Region: region})
			if err != nil {
				t.Fatal(err)
			}
			h := newHarness(t, dev, d, directPort(dev))
			rng := sc.seed * 0x9E3779B97F4A7C15
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int(rng>>33) % n
			}
			// Perform 4 random moves of random occupied cells.
			for move := 0; move < 4; move++ {
				cells := d.OccupiedCells()
				from := cells[next(len(cells))]
				// Random free destination outside the region.
				var to fabric.CellRef
				for tries := 0; ; tries++ {
					if tries > 50 {
						t.Fatal("no free destination found")
					}
					to = fabric.CellRef{
						Coord: fabric.Coord{Row: 8 + next(7), Col: 8 + next(14)},
						Cell:  from.Cell,
					}
					if !dev.ReadCell(to).InUse() {
						break
					}
				}
				mv, err := h.eng.RelocateCell(from, to)
				if err != nil {
					// Routing exhaustion is a legal outcome for a random
					// destination; anything else is a bug.
					if isRoutingError(err) {
						continue
					}
					t.Fatalf("move %d (%v->%v): %v", move, from, to, err)
				}
				if dev.ReadCell(from).InUse() {
					t.Fatalf("move %d: original still configured", move)
				}
				if mv.Frames == 0 {
					t.Fatalf("move %d: no frames written", move)
				}
				d.Rebind(from, to)
				h.run(12)
				if leaks := scanDangling(dev); len(leaks) != 0 {
					t.Fatalf("move %d leaked wires: %v", move, leaks)
				}
			}
			h.run(30)
		})
	}
}

func isRoutingError(err error) bool {
	for e := err; e != nil; {
		type unwrapper interface{ Unwrap() error }
		if u, ok := e.(unwrapper); ok {
			e = u.Unwrap()
			continue
		}
		break
	}
	// String check is fine here: route errors are wrapped fmt errors.
	return err != nil && (contains(err.Error(), "no path to sink") ||
		contains(err.Error(), "congestion unresolved") ||
		contains(err.Error(), "no free CLB"))
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// flakyPort wraps a SelectMAP port and injects a mid-stream failure: once
// its frame budget is exhausted, a burst ships only a prefix of its frames
// and the stream reports an error at the next AwaitStream — the
// partial-delivery case a real configuration port can produce.
type flakyPort struct {
	*bitstream.ParallelPort
	budget int   // frames still deliverable; < 0 = unlimited
	err    error // sticky until the next AwaitStream
}

func (f *flakyPort) StreamUpdates(updates []bitstream.FrameUpdate) {
	if f.budget >= 0 {
		if len(updates) > f.budget {
			f.err = fmt.Errorf("flaky port: injected failure after %d frames", f.budget)
			updates = updates[:f.budget]
		}
		f.budget -= len(updates)
	}
	f.ParallelPort.StreamUpdates(updates)
}

func (f *flakyPort) AwaitStream() error {
	err := f.ParallelPort.AwaitStream()
	if err == nil {
		err = f.err
	}
	f.err = nil
	return err
}

// TestPartialCheckpointBitIdentical is the checkpoint-correctness property:
// after a relocation aborted by a mid-stream write failure (plus a
// designer-path scribble the tool only sees at the next sync), restoring the
// frame-granular copy-on-write checkpoint must leave every configuration
// frame bit-identical to the full-shadow clone taken at the same instant —
// which is exactly what the old full-restore path streamed back.
func TestPartialCheckpointBitIdentical(t *testing.T) {
	styles := []itc99.Style{itc99.FreeRunning, itc99.GatedClock}
	budgets := []int{0, 1, 3, 7, 15}
	for _, style := range styles {
		for _, budget := range budgets {
			dev := fabric.NewDevice(fabric.XCV50)
			nl := itc99.Generate(itc99.GenConfig{
				Name: "ckpt", Inputs: 3, Outputs: 2, FFs: 5, LUTs: 10,
				Seed: 42 + uint64(budget), Style: style, CEFraction: 0.7,
			})
			region, err := place.AutoRegion(dev, nl, 2, 2, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			d, err := place.Place(dev, nl, place.Options{Region: region})
			if err != nil {
				t.Fatal(err)
			}
			ctrl := bitstream.NewController(dev)
			port := &flakyPort{ParallelPort: bitstream.NewParallelPort(ctrl, 50e6), budget: -1}
			eng, err := relocate.NewEngine(dev, port)
			if err != nil {
				t.Fatal(err)
			}
			eng.MaxCyclesPerWait = 0
			// Each flush harvests its own burst, so the relocation aborts at
			// the flush that crossed the budget.
			eng.Tool.Serial = true

			// Checkpoint both ways at the same instant: the full shadow
			// copy is the reference, the tool's checkpoint is the system
			// under test.
			full := copyShadow(dev, eng.Tool.Shadow())
			if err := eng.Tool.Arm(); err != nil {
				t.Fatal(err)
			}

			// A designer-path write the tool has not synced yet: partial
			// restore must roll it back too.
			scribble := fabric.Coord{Row: 14, Col: 20}
			dev.SetPIPMask(scribble, 0, 1)

			var from fabric.CellRef
			found := false
			for id, nd := range nl.Nodes {
				if nd.Kind != netlist.KindFF {
					continue
				}
				if ref, ok := d.CellOf[netlist.ID(id)]; ok {
					from, found = ref, true
					break
				}
			}
			if !found {
				t.Fatal("no FF cell placed")
			}
			to := fabric.CellRef{Coord: fabric.Coord{Row: 12, Col: 18}, Cell: from.Cell}
			port.budget = budget
			_, err = eng.RelocateCell(from, to)
			if err == nil {
				t.Fatalf("style=%v budget=%d: relocation survived the flaky port", style, budget)
			}

			// Frame-granular restore: replay only the dirty pre-images.
			port.budget = -1
			words, err := eng.Tool.RecoveryWords()
			if err != nil {
				t.Fatal(err)
			}
			if len(words) > 0 {
				if err := ctrl.Feed(words...); err != nil {
					t.Fatalf("recovery stream rejected: %v", err)
				}
			}
			eng.Tool.CompleteRestore()
			eng.Tool.Disarm()

			// Bit-identity against the full-shadow checkpoint, every frame
			// of the device.
			for _, col := range dev.Columns() {
				for m := 0; m < col.Frames; m++ {
					addr := fabric.FrameAddr{Major: col.Major, Minor: m}
					got, err := dev.ReadFrame(addr.Major, addr.Minor)
					if err != nil {
						t.Fatal(err)
					}
					want, ok := full[addr]
					if !ok {
						t.Fatalf("full shadow misses frame %v", addr)
					}
					for w := range got {
						if got[w] != want[w] {
							t.Fatalf("style=%v budget=%d: frame %v word %d: got %#x want %#x",
								style, budget, addr, w, got[w], want[w])
						}
					}
					// The tool's live shadow must agree as well.
					sh, ok := eng.Tool.Shadow().Frame(addr)
					if !ok {
						t.Fatalf("live shadow misses frame %v", addr)
					}
					for w := range got {
						if sh[w] != got[w] {
							t.Fatalf("shadow diverges at %v word %d", addr, w)
						}
					}
				}
			}

			// The restored system keeps working: the same move succeeds.
			if _, err := eng.RelocateCell(from, to); err != nil {
				t.Fatalf("style=%v budget=%d: post-restore relocation: %v", style, budget, err)
			}
		}
	}
}

// copyShadow deep-copies every frame of a shadow: the full O(device)
// checkpoint the frame tool's frame-granular one is checked against.
func copyShadow(dev *fabric.Device, sh *bitstream.Shadow) map[fabric.FrameAddr][]uint32 {
	full := map[fabric.FrameAddr][]uint32{}
	for _, col := range dev.Columns() {
		for m := 0; m < col.Frames; m++ {
			addr := fabric.FrameAddr{Major: col.Major, Minor: m}
			if f, ok := sh.Frame(addr); ok {
				full[addr] = slices.Clone(f)
			}
		}
	}
	return full
}

// TestBatchFlushReconcilesDesignerWrites covers the batched-commit hazard:
// designer-path writes landing between two tool writes of one batch (a
// Load placing directly onto the device mid-plan) must (a) survive the
// flush even when they share a frame with a pending tool write — one frame
// carries bits of every row of its column — and (b) stay visible to the
// rollback machinery, so restoring the checkpoint reverts them.
func TestBatchFlushReconcilesDesignerWrites(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	ctrl := bitstream.NewController(dev)
	eng, err := relocate.NewEngine(dev, bitstream.NewParallelPort(ctrl, 50e6))
	if err != nil {
		t.Fatal(err)
	}
	ft := eng.Tool
	if err := ft.Arm(); err != nil {
		t.Fatal(err)
	}

	// Tool write through a batch: cell 0 of R0C2 (stays pending).
	toolRef := fabric.CellRef{Coord: fabric.Coord{Row: 0, Col: 2}, Cell: 0}
	toolCfg := fabric.CellConfig{Used: true, LUT: fabric.LUTConst1}
	ft.BeginBatch()
	if err := ft.WriteCell(toolRef, toolCfg); err != nil {
		t.Fatal(err)
	}
	// Designer write into the SAME column, different row: shares frames
	// with the pending tool write.
	sameColRef := fabric.CellRef{Coord: fabric.Coord{Row: 3, Col: 2}, Cell: 1}
	dev.WriteCell(sameColRef, fabric.CellConfig{Used: true, LUT: fabric.LUTConst0, FF: true})
	// And one in an unrelated column.
	otherRef := fabric.CellRef{Coord: fabric.Coord{Row: 5, Col: 7}, Cell: 2}
	dev.WriteCell(otherRef, fabric.CellConfig{Used: true, LUT: fabric.LUTConst1})
	if err := ft.EndBatch(); err != nil {
		t.Fatal(err)
	}

	// (a) Nothing got clobbered by the flush.
	if got := dev.ReadCell(toolRef); !got.Used {
		t.Fatal("tool write lost")
	}
	if got := dev.ReadCell(sameColRef); !got.Used || !got.FF {
		t.Fatalf("designer write sharing a frame clobbered by flush: %+v", got)
	}
	if got := dev.ReadCell(otherRef); !got.Used {
		t.Fatal("designer write in other column lost")
	}

	// (b) Rollback reverts tool AND designer writes: the flush must not
	// advance the sync cursor past generations it did not produce.
	words, err := ft.RecoveryWords()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Feed(words...); err != nil {
		t.Fatal(err)
	}
	ft.CompleteRestore()
	ft.Disarm()
	for _, ref := range []fabric.CellRef{toolRef, sameColRef, otherRef} {
		if got := dev.ReadCell(ref); got.Used {
			t.Fatalf("cell %v survived rollback: %+v", ref, got)
		}
	}
}

// TestRelocationAtomicityOnPlanFailure: a failed plan (busy destination,
// RAM conflict, routing exhaustion) must leave the configuration untouched.
func TestRelocationAtomicityOnPlanFailure(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b02")
	eng, err := relocate.NewEngine(dev, directPort(dev))
	if err != nil {
		t.Fatal(err)
	}
	before := countPIPs(dev)
	gen := dev.Generation()
	var from fabric.CellRef
	for _, ref := range d.OccupiedCells() {
		from = ref
		break
	}
	// Busy destination: plan fails before any frame write.
	if _, err := eng.RelocateCell(from, from); err == nil {
		t.Fatal("relocation onto itself accepted")
	}
	if dev.Generation() != gen {
		t.Error("failed plan wrote configuration")
	}
	if countPIPs(dev) != before {
		t.Error("failed plan changed PIP population")
	}
	_ = netlist.None
}
