package rlm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/relocate"
	"repro/internal/sim"
	"repro/internal/template"
)

// mkToggle builds a one-flip-flop design that toggles on its input,
// r' = a XOR r, so a few random cycles take its state away from Init.
func mkToggle(name string) *netlist.Netlist {
	nl := netlist.New(name)
	a := nl.Input("a")
	r := nl.FF("r", netlist.None, netlist.None, false)
	nl.SetD(r, nl.LUT("x", fabric.LUTXor2, a, r))
	nl.Output("q", r)
	return nl
}

// offInit reports whether every design of the group has a flip-flop that
// holds a value other than its Init.
func offInit(g *sim.Group) bool {
	for _, m := range g.Members {
		off := false
		for id, nd := range m.Design.NL.Nodes {
			if nd.Kind == netlist.KindFF && m.Golden.State(netlist.ID(id)) != nd.Init {
				off = true
				break
			}
		}
		if !off {
			return false
		}
	}
	return true
}

// TestMoveKeepsLiveState: every relocation of a running design is the
// paper's two-phase replica procedure, which carries each flip-flop's state
// into its new cell, with the template cache off and on. One table over the
// cache and every operation that moves a design: Move, MoveStaged, a
// one-op Plan move, a compaction slide and an evacuation off condemned
// columns. A lock-step group stepped by the engine's clock runs the resident
// designs through the operation. Before it, each of them must have a
// flip-flop that holds a value other than its Init, so a move that restarted
// a design from Init would show; after it, the state must match the golden
// models and 30 more cycles must stay golden. A design with distributed RAM
// is refused the same way with the cache off and on.
func TestMoveKeepsLiveState(t *testing.T) {
	home := fabric.Rect{Row: 2, Col: 2, H: 4, W: 4}
	away := fabric.Rect{Row: 10, Col: 16, H: 4, W: 4}
	type load struct {
		nl     *netlist.Netlist
		region fabric.Rect
		// idle keeps the design out of the lock-step group: the operation
		// fails on it, and what a failed move leaves of its own design's
		// state is not this test's subject.
		idle bool
	}
	mover := func() []load {
		return []load{{nl: itc99.Generate(genCfg("p", 101, itc99.FreeRunning)), region: home}}
	}
	rows := []struct {
		name  string
		loads func() []load
		// condemn, when set, builds the system on TestDevice over a
		// fault-injecting port with the retry ladder armed, instead of XCV50
		// over SelectMAP, and makes every frame of these array columns fail
		// to write once the designs are loaded.
		condemn []int
		op      func(s *System) error
		// wantErr is what the operation returns; moved names the designs it
		// leaves in a new region.
		wantErr error
		moved   []string
	}{
		{name: "Move", loads: mover, moved: []string{"p"},
			op: func(s *System) error { return s.Move("p", away) }},
		{name: "MoveStaged", loads: mover, moved: []string{"p"},
			op: func(s *System) error { return s.MoveStaged("p", away, 4) }},
		{name: "Plan", loads: mover, moved: []string{"p"},
			op: func(s *System) error { return s.Plan().Move("p", away).Commit() }},
		{name: "compaction", moved: []string{"b"},
			loads: func() []load {
				return []load{
					{nl: itc99.Generate(genCfg("a", 40, itc99.FreeRunning)), region: fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}},
					{nl: itc99.Generate(genCfg("b", 42, itc99.GatedClock)), region: fabric.Rect{Row: 0, Col: 9, H: 4, W: 4}},
				}
			},
			op: func(s *System) error {
				_, err := s.Defragment(DefragPolicy{})
				return err
			}},
		// The move of vic rewrites its home columns, whose frames never
		// write, so it exhausts its retries and rolls back, and both designs
		// resident on the condemned columns are evacuated.
		{name: "evacuation", condemn: []int{0, 1}, wantErr: ErrRetriesExhausted, moved: []string{"vic", "by"},
			loads: func() []load {
				return []load{
					{nl: mkCounter("vic"), region: fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}, idle: true},
					{nl: mkToggle("by"), region: fabric.Rect{Row: 4, Col: 0, H: 2, W: 2}},
				}
			},
			op: func(s *System) error { return s.Move("vic", fabric.Rect{Row: 0, Col: 6, H: 2, W: 2}) }},
		{name: "RAM-refused", wantErr: relocate.ErrRAMRelocation,
			loads: func() []load {
				cfg := genCfg("r", 77, itc99.FreeRunning)
				cfg.RAMs = 1
				return []load{
					{nl: itc99.Generate(cfg.SizedTo(4*4*fabric.CellsPerCLB, 0.3)), region: home, idle: true},
					{nl: mkToggle("by"), region: fabric.Rect{Row: 10, Col: 2, H: 2, W: 2}},
				}
			},
			op: func(s *System) error { return s.Move("r", fabric.Rect{Row: 10, Col: 12, H: 4, W: 4}) }},
	}
	for _, tc := range rows {
		for _, cache := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", tc.name, cache), func(t *testing.T) {
				var opts []Option
				if cache {
					opts = append(opts, WithTemplateCache(&template.Policy{Capacity: 8}))
				}
				var s *System
				var flaky *faultport.Port
				if tc.condemn != nil {
					s, flaky = faultSystem(t, 11, append(opts, WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 1}))...)
				} else {
					var err error
					if s, err = New(append([]Option{WithDevice(fabric.XCV50), WithPort(SelectMAP)}, opts...)...); err != nil {
						t.Fatal(err)
					}
				}
				defer s.Close()
				h := &defragHarness{sys: s, group: sim.NewGroup(s.Device()), rng: 77}
				s.Engine().Clock = h.step
				from := map[string]fabric.Rect{}
				for _, l := range tc.loads() {
					d, err := s.Load(l.nl, l.region)
					if err != nil {
						t.Fatalf("loading %s: %v", l.nl.Name, err)
					}
					from[d.Name] = d.Region
					if l.idle {
						continue
					}
					if _, err := h.group.Add(d); err != nil {
						t.Fatal(err)
					}
				}
				if st, ok := s.TemplateStats(); cache && (!ok || st.Stores == 0) {
					t.Fatalf("the cache captured no design: %+v", st)
				}
				for i := 0; !offInit(h.group); i++ {
					if i == 64 {
						t.Fatal("some design kept every flip-flop at Init for 64 cycles")
					}
					if err := h.step(1); err != nil {
						t.Fatal(err)
					}
				}
				if tc.condemn != nil {
					condemnColumns(t, s.Device(), flaky, tc.condemn...)
				}
				if err := tc.op(s); !errors.Is(err, tc.wantErr) {
					t.Fatalf("operation: %v, want %v", err, tc.wantErr)
				}
				for _, name := range tc.moved {
					if r, _ := s.Region(name); r == from[name] {
						t.Errorf("%s still at %v", name, r)
					}
				}
				if err := h.group.CheckState(); err != nil {
					t.Fatalf("state after the operation: %v", err)
				}
				if err := h.step(30); err != nil {
					t.Fatalf("golden cycles after the operation: %v", err)
				}
			})
		}
	}
}
