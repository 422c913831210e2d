package rearrange

import (
	"testing"
	"testing/quick"

	"repro/internal/area"
	"repro/internal/fabric"
)

// fragmentedManager builds the motivating scenario: total free space is
// ample but no contiguous 4x4 region exists.
func fragmentedManager() *area.Manager {
	m := area.NewManager(8, 8)
	// Scatter 2x2 tasks on a diagonal-ish pattern.
	m.AllocateAt(fabric.Rect{Row: 0, Col: 3, H: 2, W: 2})
	m.AllocateAt(fabric.Rect{Row: 3, Col: 0, H: 2, W: 2})
	m.AllocateAt(fabric.Rect{Row: 3, Col: 6, H: 2, W: 2})
	m.AllocateAt(fabric.Rect{Row: 6, Col: 3, H: 2, W: 2})
	m.AllocateAt(fabric.Rect{Row: 3, Col: 3, H: 2, W: 2})
	return m
}

func TestNonePlannerOnlyWhenFits(t *testing.T) {
	m := fragmentedManager()
	if m.CanFit(5, 5) {
		t.Fatal("setup: 5x5 should not fit")
	}
	if _, ok := (None{}).Plan(m, 5, 5); ok {
		t.Error("None planner invented space")
	}
	if plan, ok := (None{}).Plan(m, 2, 2); !ok || len(plan.Steps) != 0 {
		t.Error("None planner failed a trivially fitting request")
	}
}

func verifyPlan(t *testing.T, m *area.Manager, plan *Plan, h, w int) {
	t.Helper()
	clone := m.Clone()
	if err := Execute(clone, plan); err != nil {
		t.Fatalf("plan not executable in order: %v", err)
	}
	// The target must now be allocatable.
	if _, err := clone.AllocateAt(plan.Target); err != nil {
		t.Fatalf("target %v not free after plan: %v", plan.Target, err)
	}
	if plan.Target.H != h || plan.Target.W != w {
		t.Fatalf("target %v is not %dx%d", plan.Target, h, w)
	}
}

func TestOrderedCompactionOpensSpace(t *testing.T) {
	m := fragmentedManager()
	if m.CanFit(5, 5) {
		t.Fatal("setup broken")
	}
	// Westward compaction preserves rows, so it can open wide regions in
	// the emptied east: request 3x5.
	if m.CanFit(3, 5) {
		t.Fatal("setup: 3x5 should not fit before compaction")
	}
	plan, ok := (OrderedCompaction{}).Plan(m, 3, 5)
	if !ok {
		t.Fatal("compaction found no plan")
	}
	if len(plan.Steps) == 0 {
		t.Fatal("compaction plan has no moves but request did not fit")
	}
	verifyPlan(t, m, plan, 3, 5)
	if plan.CostCLBs <= 0 {
		t.Error("plan cost not accounted")
	}
	// The manager itself must be untouched by planning.
	if m.CanFit(3, 5) {
		t.Error("planning mutated the manager")
	}
}

func TestLocalRepackingOpensSpace(t *testing.T) {
	m := fragmentedManager()
	plan, ok := (LocalRepacking{}).Plan(m, 5, 5)
	if !ok {
		t.Fatal("local repacking found no plan")
	}
	verifyPlan(t, m, plan, 5, 5)
}

func TestLocalRepackingMinimisesCost(t *testing.T) {
	// One small task blocks an otherwise free corner; repacking should
	// move just that one.
	m := area.NewManager(8, 8)
	m.AllocateAt(fabric.Rect{Row: 1, Col: 1, H: 1, W: 1})
	m.AllocateAt(fabric.Rect{Row: 4, Col: 4, H: 4, W: 4}) // big anchor
	plan, ok := (LocalRepacking{}).Plan(m, 4, 4)
	if !ok {
		t.Fatal("no plan")
	}
	if len(plan.Steps) > 1 {
		t.Errorf("moved %d tasks, expected at most 1", len(plan.Steps))
	}
	if plan.CostCLBs > 1 {
		t.Errorf("cost = %d, expected 1", plan.CostCLBs)
	}
	verifyPlan(t, m, plan, 4, 4)
}

func TestPlannersOnImpossibleRequest(t *testing.T) {
	m := area.NewManager(4, 4)
	m.AllocateAt(fabric.Rect{Row: 0, Col: 0, H: 4, W: 3})
	for _, p := range []Planner{None{}, OrderedCompaction{}, LocalRepacking{}} {
		if _, ok := p.Plan(m, 4, 4); ok {
			t.Errorf("%s invented space for an impossible request", p.Name())
		}
	}
}

func TestCompactionPreservesAllTasks(t *testing.T) {
	m := fragmentedManager()
	before := len(m.Allocations())
	plan, ok := (OrderedCompaction{}).Plan(m, 3, 5)
	if !ok {
		t.Fatal("no plan")
	}
	clone := m.Clone()
	if err := Execute(clone, plan); err != nil {
		t.Fatal(err)
	}
	if len(clone.Allocations()) != before {
		t.Error("tasks lost during compaction")
	}
	if clone.FreeCLBs() != m.FreeCLBs() {
		t.Error("free area changed by moving tasks")
	}
}

func TestPlansAreExecutableProperty(t *testing.T) {
	// Property: for random layouts, any returned plan executes in order
	// and frees the target.
	f := func(seed uint32) bool {
		m := area.NewManager(8, 8)
		s := uint64(seed)*0x9E3779B97F4A7C15 + 1
		for i := 0; i < 7; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			h := 1 + int(s>>40)%3
			w := 1 + int(s>>50)%3
			m.Allocate(h, w, area.Policy(int(s>>60)%3))
		}
		for _, p := range []Planner{OrderedCompaction{}, LocalRepacking{}} {
			plan, ok := p.Plan(m, 3, 3)
			if !ok {
				continue
			}
			clone := m.Clone()
			if Execute(clone, plan) != nil {
				return false
			}
			if _, err := clone.AllocateAt(plan.Target); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRearrangementBeatsNone(t *testing.T) {
	// The paper's pitch: rearrangement increases the rate at which waiting
	// functions are allocated. Measure success over a series of tight
	// requests.
	served := func(p Planner) int {
		m := fragmentedManager()
		count := 0
		for _, req := range [][2]int{{4, 4}, {2, 6}, {5, 2}} {
			plan, ok := p.Plan(m, req[0], req[1])
			if !ok {
				continue
			}
			if Execute(m, plan) != nil {
				continue
			}
			if _, err := m.AllocateAt(plan.Target); err == nil {
				count++
			}
		}
		return count
	}
	none := served(None{})
	comp := served(OrderedCompaction{})
	if comp <= none {
		t.Errorf("compaction served %d, none served %d — rearrangement should win", comp, none)
	}
}

// quarantinedLayouts returns grids with quarantined blocks: an 8x12 layout
// whose only unoccupied 4x4 window lies mostly on condemned columns, then
// seeded layouts whose blocks land on free space and on tasks alike.
func quarantinedLayouts() []*area.Manager {
	probe := area.NewManager(8, 12)
	probe.AllocateAt(fabric.Rect{Row: 0, Col: 0, H: 4, W: 3})
	probe.AllocateAt(fabric.Rect{Row: 0, Col: 4, H: 4, W: 3})
	probe.AllocateAt(fabric.Rect{Row: 4, Col: 0, H: 4, W: 12})
	probe.Quarantine(fabric.Rect{Row: 0, Col: 8, H: 4, W: 4})
	ms := []*area.Manager{probe}
	for seed := uint64(1); seed <= 40; seed++ {
		m := area.NewManager(10, 12)
		s := seed*0x9E3779B97F4A7C15 + 1
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int(s>>33) % n
		}
		for i := 0; i < 9; i++ {
			m.Allocate(1+next(3), 1+next(3), area.Policy(next(3)))
		}
		for i := 0; i < 1+next(2); i++ {
			m.Quarantine(fabric.Rect{Row: next(10), Col: next(12), H: 1 + next(4), W: 1 + next(4)})
		}
		ms = append(ms, m)
	}
	return ms
}

// TestPlannersAvoidQuarantine runs every planner over layouts with
// quarantined blocks: no plan may target condemned space or move a task
// onto it, and every plan must execute in order.
func TestPlannersAvoidQuarantine(t *testing.T) {
	planners := map[string]func(m *area.Manager, h, w int) []*Plan{
		"OrderedCompaction": func(m *area.Manager, h, w int) []*Plan {
			p, ok := OrderedCompaction{}.Plan(m, h, w)
			if !ok {
				return nil
			}
			return []*Plan{p}
		},
		"LocalRepacking.Plan": func(m *area.Manager, h, w int) []*Plan {
			p, ok := LocalRepacking{}.Plan(m, h, w)
			if !ok {
				return nil
			}
			return []*Plan{p}
		},
		"LocalRepacking.Plans": LocalRepacking{}.Plans,
		"Compact":              func(m *area.Manager, _, _ int) []*Plan { return []*Plan{Compact(m)} },
	}
	for name, plan := range planners {
		t.Run(name, func(t *testing.T) {
			planned := 0
			for i, m := range quarantinedLayouts() {
				for _, req := range [][2]int{{4, 4}, {3, 3}, {2, 5}} {
					for _, p := range plan(m, req[0], req[1]) {
						planned++
						if m.QuarantineOverlaps(p.Target) {
							t.Fatalf("layout %d, %dx%d: target %v overlaps quarantine\n%s", i, req[0], req[1], p.Target, m)
						}
						for _, s := range p.Steps {
							if m.QuarantineOverlaps(s.To) {
								t.Fatalf("layout %d, %dx%d: step %+v moves onto quarantine\n%s", i, req[0], req[1], s, m)
							}
						}
						if err := Execute(m.Clone(), p); err != nil {
							t.Fatalf("layout %d, %dx%d: plan does not execute: %v", i, req[0], req[1], err)
						}
					}
				}
			}
			if planned == 0 {
				t.Fatal("no layout yielded a plan")
			}
		})
	}
}

// TestLocalRepackingAllocatesPerPlan pins the repacking scans on an
// XCV800-sized grid: a band of 2x2 tasks under rows of giants leaves
// hundreds of candidate windows, each tested against thousands of targets,
// yet Plans allocates a few times per plan it returns, not per window or
// target it tests.
func TestLocalRepackingAllocatesPerPlan(t *testing.T) {
	m := area.NewManager(56, 84)
	for r := 0; r+12 <= 48; r += 12 {
		for c := 0; c+12 <= 84; c += 12 {
			m.AllocateAt(fabric.Rect{Row: r, Col: c, H: 12, W: 12})
		}
	}
	for c := 3; c+2 <= 84; c += 5 {
		m.AllocateAt(fabric.Rect{Row: 51, Col: c, H: 2, W: 2})
	}
	if m.CanFit(5, 5) {
		t.Fatal("setup: 5x5 should not fit")
	}
	plans := LocalRepacking{}.Plans(m, 5, 5)
	if len(plans) < 2 {
		t.Fatalf("setup: %d plans, want alternatives", len(plans))
	}
	bound := 64 + 4*len(plans)
	if allocs := testing.AllocsPerRun(2, func() { LocalRepacking{}.Plans(m, 5, 5) }); allocs > float64(bound) {
		t.Errorf("Plans allocated %.0f times for %d plans, bound %d", allocs, len(plans), bound)
	}
}
