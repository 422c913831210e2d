package place_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sim"
)

func TestPlaceStructure(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	nl, err := itc99.Get("b02")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.Place(dev, nl, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every state element and LUT has a cell inside the region.
	for id, nd := range nl.Nodes {
		switch nd.Kind {
		case netlist.KindLUT, netlist.KindFF, netlist.KindLatch, netlist.KindConst, netlist.KindRAM:
			ref, ok := d.CellOf[netlist.ID(id)]
			if !ok {
				t.Fatalf("node %s has no cell", nd.Name)
			}
			if !d.Region.Contains(ref.Coord) {
				t.Errorf("node %s placed at %v outside region %v", nd.Name, ref, d.Region)
			}
		case netlist.KindInput, netlist.KindOutput:
			if _, ok := d.PadOf[netlist.ID(id)]; !ok {
				t.Fatalf("port %s has no pad", nd.Name)
			}
		}
	}
	// No two packed groups share a cell unless they are a LUT+FF pair.
	type occ struct{ lut, st int }
	cellUse := map[fabric.CellRef]*occ{}
	for id, ref := range d.CellOf {
		o := cellUse[ref]
		if o == nil {
			o = &occ{}
			cellUse[ref] = o
		}
		switch nl.Nodes[id].Kind {
		case netlist.KindLUT, netlist.KindConst, netlist.KindRAM:
			o.lut++
		default:
			o.st++
		}
	}
	for ref, o := range cellUse {
		if o.lut > 1 || o.st > 1 {
			t.Errorf("cell %v overcommitted: %d LUT users, %d state users", ref, o.lut, o.st)
		}
	}
}

func TestPlacedDesignMatchesGolden(t *testing.T) {
	for _, name := range []string{"b01", "b02", "b06"} {
		t.Run(name, func(t *testing.T) {
			dev := fabric.NewDevice(fabric.XCV50)
			nl, err := itc99.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := place.Place(dev, nl, place.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ls, err := sim.NewLockStep(d)
			if err != nil {
				t.Fatal(err)
			}
			rng := uint64(12345)
			nin := len(nl.Inputs())
			for cycle := 0; cycle < 120; cycle++ {
				in := make([]bool, nin)
				for i := range in {
					rng = rng*6364136223846793005 + 1442695040888963407
					in[i] = rng>>40&1 == 1
				}
				if err := ls.Step(in); err != nil {
					t.Fatalf("lockstep diverged: %v", err)
				}
			}
			if err := ls.CheckState(); err != nil {
				t.Fatalf("state mismatch after run: %v", err)
			}
		})
	}
}

func TestPlaceGatedClockDesign(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	nl, err := itc99.Get("b03") // gated-clock style, 30 FFs
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.Place(dev, nl, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(99)
	nin := len(nl.Inputs())
	for cycle := 0; cycle < 80; cycle++ {
		in := make([]bool, nin)
		for i := range in {
			rng = rng*6364136223846793005 + 1442695040888963407
			in[i] = rng>>33&1 == 1
		}
		if err := ls.Step(in); err != nil {
			t.Fatalf("gated-clock lockstep diverged: %v", err)
		}
	}
	if err := ls.CheckState(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceAsyncLatchDesign(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	nl := itc99.Generate(itc99.GenConfig{
		Name: "async_place", Inputs: 3, Outputs: 3, FFs: 6, LUTs: 18,
		Seed: 11, Style: itc99.Async,
	})
	d, err := place.Place(dev, nl, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	// Drive with non-overlapping phases using Settle (no clock).
	ins := nl.Inputs()
	idx1, idx2 := -1, -1
	for i, id := range ins {
		switch nl.Nodes[id].Name {
		case "phi1":
			idx1 = i
		case "phi2":
			idx2 = i
		}
	}
	rng := uint64(7)
	for cycle := 0; cycle < 60; cycle++ {
		in := make([]bool, len(ins))
		for i := range in {
			rng = rng*6364136223846793005 + 1442695040888963407
			in[i] = rng>>35&1 == 1
		}
		in[idx1], in[idx2] = false, false
		if cycle%2 == 0 {
			in[idx1] = true
		} else {
			in[idx2] = true
		}
		if err := ls.Settle(in); err != nil {
			t.Fatalf("async lockstep diverged: %v", err)
		}
	}
}

func TestPlaceRejectsOversizedDesign(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	nl, err := itc99.Get("b12") // 121 FFs + 358 LUTs >> 12x8 device at 50%
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(dev, nl, place.Options{}); err == nil {
		t.Error("oversized design accepted")
	}
}

func TestPlaceIntoExplicitRegion(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	nl, err := itc99.Get("b02")
	if err != nil {
		t.Fatal(err)
	}
	region := fabric.Rect{Row: 4, Col: 6, H: 4, W: 4}
	d, err := place.Place(dev, nl, place.Options{Region: region})
	if err != nil {
		t.Fatal(err)
	}
	if d.Region != region {
		t.Errorf("region = %v, want %v", d.Region, region)
	}
	for _, ref := range d.OccupiedCells() {
		if !region.Contains(ref.Coord) {
			t.Errorf("cell %v outside requested region", ref)
		}
	}
}

func TestTwoDesignsCoexist(t *testing.T) {
	// Two independent designs on one device must not interfere — the
	// multi-application sharing scenario of the paper's Fig. 1.
	dev := fabric.NewDevice(fabric.XCV50)
	nlA, _ := itc99.Get("b01")
	nlB, _ := itc99.Get("b02")
	dA, err := place.Place(dev, nlA, place.Options{Region: fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	reserve := map[fabric.PadRef]bool{}
	for _, p := range dA.PadOf {
		reserve[p] = true
	}
	// Share occupancy: block A's routing in B's router.
	rB := route.NewRouter(dev)
	for _, rn := range dA.Nets {
		rB.Block(rn.Tree...)
	}
	dB, err := place.Place(dev, nlB, place.Options{
		Region:      fabric.Rect{Row: 8, Col: 8, H: 4, W: 4},
		ReservePads: reserve,
		Router:      rB,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewGroup(dev)
	if _, err := g.Add(dA); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(dB); err != nil {
		t.Fatal(err)
	}
	rng := uint64(3)
	for cycle := 0; cycle < 60; cycle++ {
		inA := make([]bool, len(nlA.Inputs()))
		inB := make([]bool, len(nlB.Inputs()))
		for i := range inA {
			rng = rng*6364136223846793005 + 1442695040888963407
			inA[i] = rng>>41&1 == 1
		}
		for i := range inB {
			rng = rng*6364136223846793005 + 1442695040888963407
			inB[i] = rng>>41&1 == 1
		}
		if err := g.Step([][]bool{inA, inB}); err != nil {
			t.Fatalf("coexisting designs diverged: %v", err)
		}
	}
	if err := g.CheckState(); err != nil {
		t.Fatal(err)
	}
}
