package rlm

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/sim"
	"repro/internal/template"
)

// The template-cache test suite: warm loads, and a cache that changes
// nothing when it is off. TestMoveKeepsLiveState runs every move with the
// cache on.

func newCachedSys(t *testing.T, cap int) *System {
	t.Helper()
	s, err := New(WithDevice(fabric.XCV50), WithPort(SelectMAP),
		WithTemplateCache(&template.Policy{Capacity: cap}))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// deviceFrames reads every configuration frame of the device.
func deviceFrames(t *testing.T, dev *fabric.Device) [][]uint32 {
	t.Helper()
	var out [][]uint32
	for _, col := range dev.Columns() {
		for minor := 0; minor < col.Frames; minor++ {
			f, err := dev.ReadFrame(col.Major, minor)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	return out
}

func tmplFramesEqual(a, b [][]uint32) (int, int, bool) {
	if len(a) != len(b) {
		return -1, -1, false
	}
	for i := range a {
		for w := range a[i] {
			if a[i][w] != b[i][w] {
				return i, w, false
			}
		}
	}
	return 0, 0, true
}

func stepDesign(t *testing.T, s *System, name string, cycles int, seed uint64) {
	t.Helper()
	d, ok := s.Design(name)
	if !ok {
		t.Fatalf("design %q not loaded", name)
	}
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := seed
	for i := 0; i < cycles; i++ {
		in := make([]bool, len(d.NL.Inputs()))
		for k := range in {
			rng = rng*6364136223846793005 + 1442695040888963407
			in[k] = rng>>40&1 == 1
		}
		if err := ls.Step(in); err != nil {
			t.Fatalf("%s cycle %d: %v", name, i, err)
		}
	}
}

func genCfg(name string, seed uint64, style itc99.Style) itc99.GenConfig {
	cfg := itc99.GenConfig{
		Name: name, Inputs: 4, Outputs: 3, Seed: seed, Style: style,
	}
	if style == itc99.GatedClock {
		cfg.CEFraction = 0.5
	}
	// Sized for a 4x4 region at moderate fill, so interior routing is very
	// likely to stay region-contained.
	return cfg.SizedTo(4*4*fabric.CellsPerCLB, 0.3)
}

// TestWarmLoadHit: a cold load captures a template; re-loading a
// structurally identical netlist (different names) at a same-shape region
// takes the warm path, and the warm design is functionally correct.
func TestWarmLoadHit(t *testing.T) {
	s := newCachedSys(t, 8)
	events, cancel := s.Subscribe(64)
	defer cancel()

	r := fabric.Rect{Row: 2, Col: 3, H: 4, W: 4}
	if _, err := s.Load(itc99.Generate(genCfg("a", 11, itc99.FreeRunning)), r); err != nil {
		t.Fatal(err)
	}
	st, ok := s.TemplateStats()
	if !ok {
		t.Fatal("cache reported disabled")
	}
	if st.Misses != 1 || st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("after cold load: %+v", st)
	}
	stepDesign(t, s, "a", 30, 1)
	if err := s.Unload("a"); err != nil {
		t.Fatal(err)
	}
	// Same circuit, different task name (as a scheduler would name it).
	if _, err := s.Load(itc99.Generate(genCfg("b", 11, itc99.FreeRunning)), r); err != nil {
		t.Fatal(err)
	}
	st, _ = s.TemplateStats()
	if st.Hits != 1 {
		t.Fatalf("warm load not served from cache: %+v", st)
	}
	stepDesign(t, s, "b", 30, 2)

	var sawStored, sawMiss, sawHit bool
	for {
		select {
		case e := <-events:
			switch e.Kind {
			case TemplateStored:
				sawStored = true
			case TemplateMiss:
				sawMiss = true
			case TemplateHit:
				sawHit = true
			}
			_ = e.String()
			continue
		default:
		}
		break
	}
	if !sawStored || !sawMiss || !sawHit {
		t.Fatalf("events stored=%v miss=%v hit=%v", sawStored, sawMiss, sawHit)
	}
}

// TestWarmLoadDifferentRegionSameShape: the image is translation-invariant,
// so a warm load lands at any region of the cached shape.
func TestWarmLoadDifferentRegionSameShape(t *testing.T) {
	s := newCachedSys(t, 8)
	rA := fabric.Rect{Row: 1, Col: 2, H: 4, W: 4}
	rB := fabric.Rect{Row: 9, Col: 15, H: 4, W: 4}
	if _, err := s.Load(itc99.Generate(genCfg("a", 23, itc99.GatedClock)), rA); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(itc99.Generate(genCfg("b", 23, itc99.GatedClock)), rB); err != nil {
		t.Fatal(err)
	}
	st, _ := s.TemplateStats()
	if st.Hits != 1 {
		t.Fatalf("second load should hit: %+v", st)
	}
	stepDesign(t, s, "a", 25, 3)
	stepDesign(t, s, "b", 25, 4)
	if err := s.Unload("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unload("b"); err != nil {
		t.Fatal(err)
	}
}

// TestCacheOffUnchanged: WithTemplateCache(nil) is bit-identical to a
// system built without the option, across load/move/unload.
func TestCacheOffUnchanged(t *testing.T) {
	run := func(opts ...Option) ([][]uint32, int, *System) {
		s, err := New(append([]Option{WithDevice(fabric.XCV50), WithPort(SelectMAP)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		cfg := genCfg("u", 31, itc99.GatedClock)
		rA := fabric.Rect{Row: 1, Col: 1, H: 4, W: 4}
		rB := fabric.Rect{Row: 8, Col: 14, H: 4, W: 4}
		if _, err := s.Load(itc99.Generate(cfg), rA); err != nil {
			t.Fatal(err)
		}
		if err := s.Move("u", rB); err != nil {
			t.Fatal(err)
		}
		return deviceFrames(t, s.Device()), s.Stats().ClockCycles, s
	}
	fa, ca, sa := run()
	fb, cb, sb := run(WithTemplateCache(nil))
	if _, ok := sa.TemplateStats(); ok {
		t.Fatal("plain system reports a cache")
	}
	if _, ok := sb.TemplateStats(); ok {
		t.Fatal("WithTemplateCache(nil) reports a cache")
	}
	if fi, w, eq := tmplFramesEqual(fa, fb); !eq {
		t.Fatalf("frames differ at %d word %d", fi, w)
	}
	if ca != cb {
		t.Fatalf("cycles differ: %d vs %d", ca, cb)
	}
}
