package template

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
)

// capture places a region-contained design and captures its template, or
// fails the test: the capture contract (interior routing stays inside the
// region) is exactly what place.Options.Contain delivers.
func capture(t *testing.T, cfg itc99.GenConfig, region fabric.Rect) (*fabric.Device, *place.Design, netlist.Canon, *Template) {
	t.Helper()
	dev := fabric.NewDevice(fabric.XCV50)
	nl := itc99.Generate(cfg)
	d, err := place.Place(dev, nl, place.Options{
		Region: region, Router: route.NewRouter(dev), Contain: true,
	})
	if err != nil {
		t.Fatalf("contained place: %v", err)
	}
	canon := nl.Canonical()
	tpl, ok := Capture(dev, d, canon)
	if !ok {
		t.Fatal("capture refused a region-contained design")
	}
	return dev, d, canon, tpl
}

func genCfg(seed uint64) itc99.GenConfig {
	cfg := itc99.GenConfig{Name: "gen", Inputs: 4, Outputs: 3, Seed: seed, Style: itc99.FreeRunning}
	return cfg.SizedTo(4*4*fabric.CellsPerCLB, 0.3)
}

func TestCaptureShape(t *testing.T) {
	region := fabric.Rect{Row: 4, Col: 6, H: 4, W: 4}
	dev, d, canon, tpl := capture(t, genCfg(11), region)
	if got := KeyFor(dev, region, canon.Digest); tpl.Key != got {
		t.Fatalf("key mismatch: %v vs %v", tpl.Key, got)
	}
	if s := tpl.Key.String(); s == "" {
		t.Fatal("empty key string")
	}
	distinct := map[fabric.CellRef]bool{}
	for _, ref := range d.CellOf {
		distinct[ref] = true
	}
	if len(tpl.Cells) != len(distinct) {
		t.Fatalf("image has %d cells, design occupies %d", len(tpl.Cells), len(distinct))
	}
	if len(tpl.Inputs) != len(d.NL.Inputs()) || len(tpl.Outputs) != len(d.NL.Outputs()) {
		t.Fatalf("boundary manifest %d in / %d out", len(tpl.Inputs), len(tpl.Outputs))
	}
	if tpl.HasRAM() {
		t.Fatal("FF/LUT design reports RAM")
	}
	// Every image coordinate is region-relative and in range.
	for _, ci := range tpl.Cells {
		if ci.At.DRow < 0 || ci.At.DRow >= region.H || ci.At.DCol < 0 || ci.At.DCol >= region.W {
			t.Fatalf("cell offset %+v outside a %dx%d shape", ci.At, region.H, region.W)
		}
	}
}

func TestUsedAtTranslates(t *testing.T) {
	region := fabric.Rect{Row: 4, Col: 6, H: 4, W: 4}
	dev, _, _, tpl := capture(t, genCfg(11), region)
	there := fabric.Rect{Row: 10, Col: 14, H: 4, W: 4}
	home := tpl.UsedAt(dev, region)
	moved := tpl.UsedAt(dev, there)
	if len(home) == 0 || len(home) != len(moved) {
		t.Fatalf("used sets: %d at home, %d translated", len(home), len(moved))
	}
	for _, n := range moved {
		c, _, ok := dev.SplitNode(n)
		if !ok || !there.Contains(c) {
			t.Fatalf("translated used node %d escapes the target region", n)
		}
	}
}

func TestInteriorNetsTranslate(t *testing.T) {
	region := fabric.Rect{Row: 4, Col: 6, H: 4, W: 4}
	dev, _, _, tpl := capture(t, genCfg(17), region)
	there := fabric.Rect{Row: 1, Col: 2, H: 4, W: 4}
	paths := tpl.InteriorPaths(dev, there)
	want := 0
	for i := range tpl.Nets {
		want += len(tpl.Nets[i].Paths)
	}
	if len(paths) == 0 || len(paths) != want {
		t.Fatalf("%d translated paths from %d image paths", len(paths), want)
	}
	for k, path := range paths {
		if len(path) < 2 {
			t.Fatalf("path %d: degenerate path", k)
		}
		for _, n := range path {
			c, _, ok := dev.SplitNode(n)
			if !ok || !there.Contains(c) {
				t.Fatalf("path %d: translated path escapes the target region", k)
			}
		}
	}
	// The translated image must apply cleanly to a fresh device: every PIP
	// of every path exists at the target columns (translation invariance of
	// the column-relative interconnect).
	for _, ci := range tpl.Cells {
		dev.WriteCell(ci.At.At(there), ci.Cfg)
	}
	for k, path := range paths {
		for i := 1; i < len(path); i++ {
			if err := route.EnablePathPIP(dev, path[i-1], path[i]); err != nil {
				t.Fatalf("translated interior path %d did not apply: %v", k, err)
			}
		}
	}
}

func TestCaptureRAMDesign(t *testing.T) {
	cfg := genCfg(23)
	cfg.RAMs = 1
	cfg = cfg.SizedTo(4*4*fabric.CellsPerCLB, 0.3)
	region := fabric.Rect{Row: 2, Col: 3, H: 4, W: 4}
	_, _, _, tpl := capture(t, cfg, region)
	if !tpl.HasRAM() {
		t.Fatal("RAM design not flagged: translation must know to fall back")
	}
}
