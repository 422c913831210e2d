package rlm

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/relocate"
	"repro/internal/sim"
	"repro/internal/template"
)

// mkCounter builds a tiny free-running sequential design.
func mkCounter(name string) *netlist.Netlist {
	nl := netlist.New(name)
	a := nl.Input("a")
	x := nl.LUT("x", fabric.LUTXor2, a, a)
	ff := nl.FF("r", x, netlist.None, false)
	nl.Output("q", ff)
	return nl
}

func TestSentinelErrors(t *testing.T) {
	s := newSys(t)
	nl, _ := itc99.Get("b02")
	if _, err := s.Load(nl, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); err != nil {
		t.Fatal(err)
	}

	t.Run("duplicate", func(t *testing.T) {
		nl2, _ := itc99.Get("b02")
		_, err := s.Load(nl2, fabric.Rect{Row: 8, Col: 8, H: 4, W: 4})
		if !errors.Is(err, ErrDuplicateDesign) {
			t.Errorf("want ErrDuplicateDesign, got %v", err)
		}
	})
	t.Run("unknown-unload", func(t *testing.T) {
		if err := s.Unload("ghost"); !errors.Is(err, ErrUnknownDesign) {
			t.Errorf("want ErrUnknownDesign, got %v", err)
		}
	})
	t.Run("unknown-move", func(t *testing.T) {
		err := s.Move("ghost", fabric.Rect{Row: 8, Col: 8, H: 4, W: 4})
		if !errors.Is(err, ErrUnknownDesign) {
			t.Errorf("want ErrUnknownDesign, got %v", err)
		}
	})
	t.Run("region-mismatch", func(t *testing.T) {
		err := s.Move("b02", fabric.Rect{Row: 8, Col: 8, H: 3, W: 4})
		if !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("want ErrRegionMismatch, got %v", err)
		}
	})
	t.Run("region-busy-load", func(t *testing.T) {
		_, err := s.Load(mkCounter("clash"), fabric.Rect{Row: 2, Col: 2, H: 4, W: 4})
		if !errors.Is(err, ErrRegionBusy) {
			t.Errorf("want ErrRegionBusy, got %v", err)
		}
	})
	t.Run("region-busy-move", func(t *testing.T) {
		if _, err := s.Load(mkCounter("bump"), fabric.Rect{Row: 10, Col: 10, H: 1, W: 1}); err != nil {
			t.Fatal(err)
		}
		err := s.Move("bump", fabric.Rect{Row: 1, Col: 1, H: 1, W: 1})
		if !errors.Is(err, ErrRegionBusy) {
			t.Errorf("want ErrRegionBusy, got %v", err)
		}
	})
	t.Run("no-space", func(t *testing.T) {
		huge := itc99.Generate(itc99.GenConfig{
			Name: "huge", Inputs: 4, Outputs: 4, FFs: 400, LUTs: 1200,
			Seed: 7, Style: itc99.FreeRunning,
		})
		_, err := s.Load(huge, fabric.Rect{})
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("want ErrNoSpace, got %v", err)
		}
	})
	t.Run("no-space-defrag", func(t *testing.T) {
		_, err := s.Defragment(DefragPolicy{NeedH: 200, NeedW: 200})
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("want ErrNoSpace, got %v", err)
		}
	})
	t.Run("plan-invalid", func(t *testing.T) {
		err := s.Plan().Move("ghost", fabric.Rect{Row: 8, Col: 8, H: 4, W: 4}).Commit()
		if !errors.Is(err, ErrPlanInvalid) || !errors.Is(err, ErrUnknownDesign) {
			t.Errorf("want ErrPlanInvalid wrapping ErrUnknownDesign, got %v", err)
		}
	})
}

func TestMoveStagedRejectsOccupiedCorridor(t *testing.T) {
	s := newSys(t)
	d, err := s.Load(mkCounter("walker"), fabric.Rect{Row: 0, Col: 0, H: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A block sits right on the single-step corridor.
	if _, err := s.Load(mkCounter("block"), fabric.Rect{Row: 1, Col: 1, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	frames0 := s.Stats().FramesWritten
	err = s.MoveStaged("walker", fabric.Rect{Row: 4, Col: 4, H: 1, W: 1}, 1)
	if !errors.Is(err, ErrRegionBusy) {
		t.Fatalf("want ErrRegionBusy, got %v", err)
	}
	// Rejected before any frame streamed; nothing moved.
	if got := s.Stats().FramesWritten; got != frames0 {
		t.Errorf("frames streamed for a rejected staged move: %d -> %d", frames0, got)
	}
	if d.Region != (fabric.Rect{Row: 0, Col: 0, H: 1, W: 1}) {
		t.Errorf("walker moved: %v", d.Region)
	}
	// A detour with larger hops (skipping the blocked corridor) works.
	if err := s.MoveStaged("walker", fabric.Rect{Row: 4, Col: 4, H: 1, W: 1}, 4); err != nil {
		t.Fatalf("detour staged move: %v", err)
	}
	if d.Region != (fabric.Rect{Row: 4, Col: 4, H: 1, W: 1}) {
		t.Errorf("walker region = %v", d.Region)
	}
}

// TestConcurrentReadsDuringMove runs observers against the facade while a
// relocation streams; run with -race.
func TestConcurrentReadsDuringMove(t *testing.T) {
	s := newSys(t)
	nl := mkCounter("mover")
	d, err := s.Load(nl, fabric.Rect{Row: 2, Col: 2, H: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(17)
	s.Engine().Clock = func(cycles int) error {
		for i := 0; i < cycles; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			if err := ls.Step([]bool{rng>>40&1 == 1}); err != nil {
				return err
			}
		}
		return nil
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = s.Fragmentation()
				_ = s.Stats()
				_ = s.Designs()
				_, _ = s.Region("mover")
				_ = s.Utilisation()
			}
		}()
	}
	err = s.Move("mover", fabric.Rect{Row: 9, Col: 9, H: 1, W: 1})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if got, _ := s.Region("mover"); got != (fabric.Rect{Row: 9, Col: 9, H: 1, W: 1}) {
		t.Errorf("region = %v", got)
	}
}

// TestLoadRollbackOnFailure is the regression test for the Load resource
// leak: a placement that fails midway (here: pad exhaustion after some of
// the design's input pads were already configured) must leave no pads
// reserved, no cells configured, no area booked — and a subsequent load
// must succeed.
func TestLoadRollbackOnFailure(t *testing.T) {
	s, err := New(WithDevice(fabric.TestDevice), WithPort(SelectMAP))
	if err != nil {
		t.Fatal(err)
	}
	// TestDevice is 8x12: 16 pads per west/east edge. Fill most of the
	// west edge so the next design exhausts it partway through binding.
	wide := itc99.Generate(itc99.GenConfig{
		Name: "wide", Inputs: 12, Outputs: 2, FFs: 2, LUTs: 14,
		Seed: 3, Style: itc99.FreeRunning,
	})
	if _, err := s.Load(wide, fabric.Rect{Row: 0, Col: 0, H: 4, W: 8}); err != nil {
		t.Fatal(err)
	}
	freeCLBs := s.Area().FreeCLBs()
	padCount := func() int {
		n := 0
		for pos := 0; pos < s.Device().Rows; pos++ {
			for k := 0; k < fabric.PadsPerEdgeTile; k++ {
				p := fabric.PadRef{Side: fabric.West, Pos: pos, K: k}
				if s.Device().ReadPad(p).Input {
					n++
				}
			}
		}
		return n
	}
	padsBefore := padCount()
	if padsBefore != 12 {
		t.Fatalf("setup: %d west input pads, want 12", padsBefore)
	}

	// 6 inputs > 4 remaining west pads: bindPads fails after configuring
	// some of them.
	greedy := itc99.Generate(itc99.GenConfig{
		Name: "greedy", Inputs: 6, Outputs: 1, FFs: 1, LUTs: 7,
		Seed: 4, Style: itc99.FreeRunning,
	})
	if _, err := s.Load(greedy, fabric.Rect{Row: 5, Col: 0, H: 3, W: 6}); err == nil {
		t.Fatal("greedy load unexpectedly succeeded")
	}

	if got := padCount(); got != padsBefore {
		t.Errorf("leaked pads: %d configured west inputs, want %d", got, padsBefore)
	}
	if got := s.Area().FreeCLBs(); got != freeCLBs {
		t.Errorf("leaked area: %d free CLBs, want %d", got, freeCLBs)
	}
	if got := len(s.Designs()); got != 1 {
		t.Errorf("designs = %v", s.Designs())
	}
	// The failed region must be completely clean on the fabric.
	for _, c := range (fabric.Rect{Row: 5, Col: 0, H: 3, W: 6}).Coords() {
		for cell := 0; cell < fabric.CellsPerCLB; cell++ {
			if s.Device().ReadCell(fabric.CellRef{Coord: c, Cell: cell}).InUse() {
				t.Fatalf("cell %v/%d configured after failed load", c, cell)
			}
		}
	}
	// A design that fits the remaining pads loads fine afterwards.
	ok := itc99.Generate(itc99.GenConfig{
		Name: "modest", Inputs: 3, Outputs: 1, FFs: 1, LUTs: 4,
		Seed: 5, Style: itc99.FreeRunning,
	})
	d, err := s.Load(ok, fabric.Rect{Row: 5, Col: 0, H: 3, W: 6})
	if err != nil {
		t.Fatalf("post-rollback load: %v", err)
	}
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := ls.Step([]bool{i%2 == 0, i%3 == 0, true}); err != nil {
			t.Fatalf("post-rollback design broken at cycle %d: %v", i, err)
		}
	}
}

func TestPlanCommit(t *testing.T) {
	s := newSys(t)
	nlA := itc99.Generate(itc99.GenConfig{
		Name: "alpha", Inputs: 3, Outputs: 2, FFs: 8, LUTs: 16,
		Seed: 99, Style: itc99.FreeRunning,
	})
	nlB, _ := itc99.Get("b02")
	err := s.Plan().
		Load(nlA, fabric.Rect{Row: 2, Col: 2, H: 4, W: 4}).
		Load(nlB, fabric.Rect{Row: 0, Col: 8, H: 4, W: 4}).
		Move("alpha", fabric.Rect{Row: 9, Col: 9, H: 4, W: 4}).
		Unload("b02").
		Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Designs(); len(got) != 1 || got[0] != "alpha" {
		t.Errorf("designs = %v", got)
	}
	if r, _ := s.Region("alpha"); r != (fabric.Rect{Row: 9, Col: 9, H: 4, W: 4}) {
		t.Errorf("alpha region = %v", r)
	}
}

// TestPlanValidateLeavesSystemUntouched validates plans on a system that
// holds a resident design: an overlapping plan is refused with
// ErrPlanInvalid wrapping ErrRegionBusy, a valid one returns nil, and
// neither call changes the designs, their regions, the area map, the
// engine's or the template cache's statistics, or any device frame.
// Committing the overlapping plan is refused the same way and streams
// nothing.
func TestPlanValidateLeavesSystemUntouched(t *testing.T) {
	s := newSys(t)
	nlA, _ := itc99.Get("b01")
	nlB, _ := itc99.Get("b02")
	nlC, _ := itc99.Get("b03")
	if _, err := s.Load(nlA, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); err != nil {
		t.Fatal(err)
	}
	type view struct {
		designs []string
		regions map[string]fabric.Rect
		areaMap string
		stats   relocate.Stats
		tmpl    template.Stats
		frames  map[fabric.FrameAddr][]uint32
	}
	look := func() view {
		v := view{designs: s.Designs(), regions: map[string]fabric.Rect{}, areaMap: s.Map(), stats: s.Stats(), frames: dumpFrames(s.Device())}
		for _, name := range v.designs {
			v.regions[name], _ = s.Region(name)
		}
		v.tmpl, _ = s.TemplateStats()
		return v
	}
	before := look()
	unchanged := func(what string) {
		t.Helper()
		after := look()
		switch {
		case !slices.Equal(after.designs, before.designs):
			t.Errorf("%s: designs %v, want %v", what, after.designs, before.designs)
		case !maps.Equal(after.regions, before.regions):
			t.Errorf("%s: regions %v, want %v", what, after.regions, before.regions)
		case after.areaMap != before.areaMap:
			t.Errorf("%s: area map\n%s\nwant\n%s", what, after.areaMap, before.areaMap)
		case after.stats != before.stats:
			t.Errorf("%s: stats %+v, want %+v", what, after.stats, before.stats)
		case after.tmpl != before.tmpl:
			t.Errorf("%s: template stats %+v, want %+v", what, after.tmpl, before.tmpl)
		case !maps.EqualFunc(after.frames, before.frames, frameWordsEqual):
			t.Errorf("%s: device frames changed", what)
		}
	}
	overlapping := s.Plan().
		Load(nlB, fabric.Rect{Row: 6, Col: 6, H: 4, W: 4}).
		Load(nlC, fabric.Rect{Row: 8, Col: 8, H: 4, W: 4}) // overlaps the first
	err := overlapping.Validate()
	if !errors.Is(err, ErrPlanInvalid) || !errors.Is(err, ErrRegionBusy) {
		t.Fatalf("Validate: want ErrPlanInvalid wrapping ErrRegionBusy, got %v", err)
	}
	unchanged("Validate of an overlapping plan")
	valid := s.Plan().
		Load(nlB, fabric.Rect{Row: 0, Col: 6, H: 4, W: 4}).
		Move("b01", fabric.Rect{Row: 8, Col: 8, H: 4, W: 4})
	if err := valid.Validate(); err != nil {
		t.Fatalf("Validate of a valid plan: %v", err)
	}
	unchanged("Validate of a valid plan")
	frames0 := s.Stats().FramesWritten
	err = overlapping.Commit()
	if !errors.Is(err, ErrPlanInvalid) || !errors.Is(err, ErrRegionBusy) {
		t.Fatalf("Commit: want ErrPlanInvalid wrapping ErrRegionBusy, got %v", err)
	}
	if got := s.Stats().FramesWritten; got != frames0 {
		t.Errorf("invalid plan streamed %d frames", got-frames0)
	}
	unchanged("Commit of an overlapping plan")
}

// TestPlanRollbackMidPlan forces a physical failure that the dry-run
// cannot see (a squatter cell configured outside the area book-keeping)
// and checks the whole transaction rolls back.
func TestPlanRollbackMidPlan(t *testing.T) {
	s := newSys(t)
	nlA, _ := itc99.Get("b01")
	if _, err := s.Load(nlA, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); err != nil {
		t.Fatal(err)
	}
	// Squat on the move target behind the book-keeping's back.
	squat := fabric.CellRef{Coord: fabric.Coord{Row: 9, Col: 9}, Cell: 0}
	s.Device().WriteCell(squat, fabric.CellConfig{Used: true, LUT: fabric.LUTConst1})

	nlB, _ := itc99.Get("b02")
	err := s.Plan().
		Load(nlB, fabric.Rect{Row: 0, Col: 6, H: 4, W: 4}).
		Move("b01", fabric.Rect{Row: 8, Col: 8, H: 4, W: 4}). // lands on the squatter
		Commit()
	if err == nil {
		t.Fatal("plan unexpectedly committed")
	}
	// All-or-nothing: the already-executed load is rolled back too.
	if got := s.Designs(); len(got) != 1 || got[0] != "b01" {
		t.Errorf("designs after rollback = %v", got)
	}
	if r, _ := s.Region("b01"); r != (fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}) {
		t.Errorf("b01 region after rollback = %v", r)
	}
	if !s.Device().ReadCell(squat).InUse() {
		t.Error("squatter cell lost in rollback")
	}
	// b01 still works: load-free smoke run.
	d, _ := s.Design("b01")
	ls, err := sim.NewLockStep(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		in := make([]bool, len(nlA.Inputs()))
		if err := ls.Step(in); err != nil {
			t.Fatalf("b01 broken after rollback: %v", err)
		}
	}
}

func TestEventStream(t *testing.T) {
	s := newSys(t)
	ch, cancel := s.Subscribe(128)
	nl := mkCounter("evt")
	if _, err := s.Load(nl, fabric.Rect{Row: 2, Col: 2, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("evt", fabric.Rect{Row: 5, Col: 5, H: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Unload("evt"); err != nil {
		t.Fatal(err)
	}
	cancel()
	var kinds []EventKind
	for e := range ch {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{DesignLoaded, CLBRelocated, DesignMoved, DesignUnloaded}
	got := fmt.Sprint(kinds)
	if got != fmt.Sprint(want) {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
}

// TestStatsPortSecondsTracksPort: Stats().PortSeconds is the port's
// foreground transport time after every kind of operation, not a snapshot
// the engine last took inside a cell relocation (which a Load, an Unload or
// a translated move would leave stale).
func TestStatsPortSecondsTracksPort(t *testing.T) {
	s, err := New(WithDevice(fabric.TestDevice))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		op   func() error
	}{
		{"load", func() error { _, err := s.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}); return err }},
		{"move", func() error { return s.Move("c1", fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}) }},
		{"unload", func() error { return s.Unload("c1") }},
	}
	for _, step := range steps {
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got, want := s.Stats().PortSeconds, s.Port().Elapsed(); got != want || got <= 0 {
			t.Fatalf("after %s: Stats().PortSeconds = %v, Port().Elapsed() = %v", step.name, got, want)
		}
	}
}

// TestStatsFramesWrittenTracksTool: Stats().FramesWritten is the frame
// tool's count after every kind of operation, not a snapshot the engine last
// took inside a cell relocation (which an Unload, a translated move or a
// defrag slide would leave stale).
func TestStatsFramesWrittenTracksTool(t *testing.T) {
	s := newSys(t)
	steps := []struct {
		name string
		op   func() error
	}{
		{"load", func() error { _, err := s.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}); return err }},
		{"move", func() error { return s.Move("c1", fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}) }},
		{"unload", func() error { return s.Unload("c1") }},
	}
	for _, step := range steps {
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got, want := s.Stats().FramesWritten, s.Engine().Tool.FramesWritten(); got != want {
			t.Fatalf("after %s: Stats().FramesWritten = %d, Engine().Tool.FramesWritten() = %d", step.name, got, want)
		}
	}
	if s.Stats().FramesWritten == 0 {
		t.Fatal("no frames counted")
	}
}

// TestOneOpPlanMatchesCall: every facade operation has one check and one
// runner, so a one-op Plan does exactly what the single call of the same
// name does. Each row runs the call on one system and the same op as a
// one-op Plan on a twin, validated first; both must leave equal frames,
// design tables, area maps and template statistics, with the template cache
// off and on.
func TestOneOpPlanMatchesCall(t *testing.T) {
	rA := fabric.Rect{Row: 2, Col: 2, H: 4, W: 4}
	rB := fabric.Rect{Row: 10, Col: 16, H: 4, W: 4}
	circuit := func(name string) *netlist.Netlist {
		return itc99.Generate(genCfg(name, 101, itc99.FreeRunning))
	}
	load := func(name string) func(*System) error {
		return func(s *System) error { _, err := s.Load(circuit(name), rA); return err }
	}
	unload := func(name string) func(*System) error {
		return func(s *System) error { return s.Unload(name) }
	}
	for _, tc := range []struct {
		name  string
		cache bool
		setup []func(*System) error
		call  func(*System) error
		plan  func(*Plan) *Plan
		// served names the cache path the call must take: "hit" for a warm
		// load, "translation" for a translated move.
		served string
	}{
		{name: "cold-load", call: load("p"),
			plan: func(p *Plan) *Plan { return p.Load(circuit("p"), rA) }},
		{name: "cold-load", cache: true, call: load("p"),
			plan: func(p *Plan) *Plan { return p.Load(circuit("p"), rA) }},
		{name: "warm-load", cache: true, setup: []func(*System) error{load("a"), unload("a")}, call: load("p"),
			plan: func(p *Plan) *Plan { return p.Load(circuit("p"), rA) }, served: "hit"},
		{name: "unload", setup: []func(*System) error{load("p")}, call: unload("p"),
			plan: func(p *Plan) *Plan { return p.Unload("p") }},
		{name: "unload", cache: true, setup: []func(*System) error{load("p")}, call: unload("p"),
			plan: func(p *Plan) *Plan { return p.Unload("p") }},
		{name: "replica-move", setup: []func(*System) error{load("p")},
			call: func(s *System) error { return s.Move("p", rB) },
			plan: func(p *Plan) *Plan { return p.Move("p", rB) }},
		{name: "translated-move", cache: true, setup: []func(*System) error{load("p")},
			call:   func(s *System) error { return s.Move("p", rB) },
			plan:   func(p *Plan) *Plan { return p.Move("p", rB) },
			served: "translation"},
		{name: "move-staged", setup: []func(*System) error{load("p")},
			call: func(s *System) error { return s.MoveStaged("p", rB, 4) },
			plan: func(p *Plan) *Plan { return p.MoveStaged("p", rB, 4) }},
		{name: "move-staged", cache: true, setup: []func(*System) error{load("p")},
			call:   func(s *System) error { return s.MoveStaged("p", rB, 4) },
			plan:   func(p *Plan) *Plan { return p.MoveStaged("p", rB, 4) },
			served: "translation"},
	} {
		t.Run(fmt.Sprintf("%s/cache=%v", tc.name, tc.cache), func(t *testing.T) {
			build := func() *System {
				var s *System
				if tc.cache {
					s = newCachedSys(t, 8)
				} else {
					s = newSys(t)
				}
				for i, step := range tc.setup {
					if err := step(s); err != nil {
						t.Fatalf("setup step %d: %v", i, err)
					}
				}
				return s
			}
			called, planned := build(), build()
			if err := tc.call(called); err != nil {
				t.Fatalf("call: %v", err)
			}
			// Validate dry-runs the same check on the live book-keeping and
			// must leave the twin untouched before it commits.
			plan, before := tc.plan(planned.Plan()), opState(planned)
			if err := plan.Validate(); err != nil {
				t.Fatalf("validating the one-op plan: %v", err)
			}
			if diffs := diffStates(opState(planned), before); len(diffs) > 0 {
				t.Fatalf("Validate changed the system, first: %s", diffs[0])
			}
			if err := plan.Commit(); err != nil {
				t.Fatalf("one-op plan: %v", err)
			}
			got, _ := planned.TemplateStats()
			want, _ := called.TemplateStats()
			switch {
			case tc.served == "hit" && want.Hits == 0, tc.served == "translation" && want.Translations == 0:
				t.Fatalf("the call did not take the %s path: %+v", tc.served, want)
			case got != want:
				t.Fatalf("TemplateStats: plan %+v, call %+v", got, want)
			}
			if diffs := diffStates(opState(planned), opState(called)); len(diffs) > 0 {
				t.Fatalf("plan diverges from the call (%d diffs), first: %s", len(diffs), diffs[0])
			}
		})
	}
}

// opState is what a facade operation leaves behind: configuration frames,
// design tables and the area book-keeping. Port timing and engine counters
// are left out, since a plan streams its ops in one batch.
func opState(s *System) hostState {
	st := captureState(s)
	st.stats, st.cycles, st.traffic, st.lastTick = relocate.Stats{}, 0, bitstream.Traffic{}, 0
	return st
}
