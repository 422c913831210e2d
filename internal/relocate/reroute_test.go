package relocate_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
)

func TestRerouteSinkKeepsCircuitAlive(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b01")
	h := newHarness(t, dev, d, directPort(dev))
	// Pick a LUT input pin with routing.
	var tile fabric.Coord
	local := -1
	for _, ref := range d.OccupiedCells() {
		for k := 0; k < fabric.LUTInputs; k++ {
			l := fabric.LocalPinI(ref.Cell, k)
			if dev.PIPMask(ref.Coord, l) != 0 {
				tile, local = ref.Coord, l
				break
			}
		}
		if local >= 0 {
			break
		}
	}
	if local < 0 {
		t.Fatal("no routed pin found")
	}
	mv, err := h.eng.RerouteSink(tile, local)
	if err != nil {
		t.Fatalf("reroute: %v", err)
	}
	if mv.OldDelayNs <= 0 || mv.NewDelayNs <= 0 {
		t.Errorf("delays: %+v", mv)
	}
	if mv.ParallelDelayNs() < mv.OldDelayNs || mv.ParallelDelayNs() < mv.NewDelayNs {
		t.Error("parallel delay must be the longer of the two paths")
	}
	if mv.Frames == 0 {
		t.Error("reroute wrote no frames")
	}
	h.run(50)
	// Exactly one driver remains on the sink.
	if n := len(dev.EnabledSourceNodes(tile, local)); n != 1 {
		t.Errorf("sink has %d drivers after reroute, want 1", n)
	}
}

func TestRerouteFuzzinessReported(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, dev, "b02")
	h := newHarness(t, dev, d, directPort(dev))
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
		t.Fatal("no routed pin")
	}
	mv, err := h.eng.RerouteSink(tile, local)
	if err != nil {
		t.Fatal(err)
	}
	// Fuzziness = |d_new - d_old| by definition; just confirm consistency.
	want := mv.NewDelayNs - mv.OldDelayNs
	if want < 0 {
		want = -want
	}
	if mv.FuzzinessNs() != want {
		t.Errorf("fuzziness = %v, want %v", mv.FuzzinessNs(), want)
	}
	h.run(30)
}

func TestRerouteViaDetourAvoidsRegion(t *testing.T) {
	// Force the replica path around a forbidden corridor and verify the
	// detour is longer (and the circuit unaffected).
	dev := fabric.NewDevice(fabric.XCV50)
	nl := netlist.New("wire")
	in := nl.Input("a")
	lut := nl.LUT("buf", fabric.LUTBuf, in)
	nl.Output("y", lut)
	d, err := place.Place(dev, nl, place.Options{Region: fabric.Rect{Row: 7, Col: 7, H: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, dev, d, directPort(dev))
	ref := d.CellOf[lut]
	local := fabric.LocalPinI(ref.Cell, 0)
	var avoid []fabric.Coord
	for r := 0; r < dev.Rows; r++ {
		avoid = append(avoid, fabric.Coord{Row: r, Col: 5})
	}
	mv, err := h.eng.RerouteSink(ref.Coord, local, avoid...)
	if err != nil {
		t.Fatalf("detour reroute: %v", err)
	}
	if mv.NewDelayNs <= mv.OldDelayNs {
		t.Logf("note: detour not longer (old %.2f new %.2f) — acceptable if another corridor existed", mv.OldDelayNs, mv.NewDelayNs)
	}
	h.run(20)
	// The new path must not touch column 5 wires.
	for _, c := range avoid {
		for local := 0; local < fabric.NodeSlots; local++ {
			kind, _, _ := fabric.DecodeLocal(local)
			if kind != fabric.KindSingle && kind != fabric.KindHex {
				continue
			}
			if fabric.IsLocalSink(local) && dev.PIPMask(c, local) != 0 {
				t.Fatalf("avoided tile %v has configured wire %d", c, local)
			}
		}
	}
}
