// Package rearrange plans partial rearrangements of running tasks to open a
// contiguous region for an incoming function. The planners follow the
// methods of Diessel et al. (the paper's reference [5]) — local repacking
// and ordered compaction — whose physical execution is exactly what the
// relocation engine provides without halting the moved tasks.
package rearrange

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/area"
	"repro/internal/fabric"
)

// Step moves one running task to a new rectangle.
type Step struct {
	ID   int
	From fabric.Rect
	To   fabric.Rect
}

// Plan is an ordered, feasible sequence of task moves after which an H x W
// region is free.
type Plan struct {
	Steps []Step
	// Target is the rectangle freed for the incoming task.
	Target fabric.Rect
	// CostCLBs is the total CLB count relocated (the paper's relocation
	// cost unit: each CLB move costs ~tens of ms of reconfiguration).
	CostCLBs int
}

// Planner proposes rearrangement plans.
type Planner interface {
	Name() string
	// Plan returns a feasible plan freeing an h x w region, or ok=false.
	// The manager is not modified.
	Plan(m *area.Manager, h, w int) (*Plan, bool)
}

// None is the no-rearrangement baseline.
type None struct{}

// Name implements Planner.
func (None) Name() string { return "none" }

// Plan implements Planner: it only succeeds if the region already fits.
func (None) Plan(m *area.Manager, h, w int) (*Plan, bool) {
	if rect, ok := m.FindPlacement(h, w, area.FirstFit); ok {
		return &Plan{Target: rect}, true
	}
	return nil, false
}

// OrderedCompaction slides every task as far west as it can go, in
// left-edge order, then checks whether the request fits. Task order along
// the horizontal axis is preserved (Diessel's ordered compaction).
type OrderedCompaction struct{}

// Name implements Planner.
func (OrderedCompaction) Name() string { return "ordered-compaction" }

// Plan implements Planner.
func (OrderedCompaction) Plan(m *area.Manager, h, w int) (*Plan, bool) {
	if rect, ok := m.FindPlacement(h, w, area.FirstFit); ok {
		return &Plan{Target: rect}, true
	}
	clone := m.Clone()
	ids := clone.Allocations()
	sort.Slice(ids, func(a, b int) bool {
		ra, _ := clone.Rect(ids[a])
		rb, _ := clone.Rect(ids[b])
		if ra.Col != rb.Col {
			return ra.Col < rb.Col
		}
		return ra.Row < rb.Row
	})
	plan := &Plan{}
	for _, id := range ids {
		rect, _ := clone.Rect(id)
		best := rect
		for c := 0; c < rect.Col; c++ {
			// Sliding left may overlap the task's own cells, which CanMove
			// counts as free.
			cand := fabric.Rect{Row: rect.Row, Col: c, H: rect.H, W: rect.W}
			if clone.CanMove(id, cand) {
				best = cand
				break
			}
		}
		if best != rect {
			if err := clone.Move(id, best); err != nil {
				continue
			}
			plan.Steps = append(plan.Steps, Step{ID: id, From: rect, To: best})
			plan.CostCLBs += rect.Area()
		}
	}
	rect, ok := clone.FindPlacement(h, w, area.FirstFit)
	if !ok {
		return nil, false
	}
	plan.Target = rect
	return plan, true
}

// LocalRepacking frees a candidate window by moving only the tasks that
// overlap it, choosing the window whose eviction cost is minimal (Diessel's
// local repacking).
type LocalRepacking struct{}

// Name implements Planner.
func (LocalRepacking) Name() string { return "local-repacking" }

// Plan implements Planner.
func (LocalRepacking) Plan(m *area.Manager, h, w int) (*Plan, bool) {
	plans := repackPlans(m, h, w, 1, findOutside)
	if len(plans) == 0 {
		return nil, false
	}
	return plans[0], true
}

// Plans returns feasible repacking plans in eviction-cost order, at most
// one per distinct evicted-task set. A run-time manager executing plans on
// a real fabric uses the alternatives as fallbacks: a plan that is sound in
// the book-keeping can still fail physically (routing congestion at the
// chosen targets), and the next candidate evicts different tasks.
func (LocalRepacking) Plans(m *area.Manager, h, w int) []*Plan {
	return repackPlans(m, h, w, 0, findOutside)
}

// repackPlans scores every h x w window by the area of the tasks that
// overlap it, then evicts them window by window in (cost, row, col) order,
// keeping one plan per distinct evicted set. A window on condemned
// (quarantined) space is skipped: no eviction can ever free it. The scans
// reuse one owner set and one scratch copy of the manager, so they allocate
// per plan, not per candidate window. find picks each evicted task's target.
func repackPlans(m *area.Manager, h, w, limit int, find finder) []*Plan {
	if rect, ok := m.FindPlacement(h, w, area.FirstFit); ok {
		return []*Plan{{Target: rect}}
	}
	type cand struct {
		window fabric.Rect
		cost   int
	}
	var (
		cands  []cand
		owners ownerSet
	)
	for r := 0; r+h <= m.Rows; r++ {
		for c := 0; c+w <= m.Cols; c++ {
			window := fabric.Rect{Row: r, Col: c, H: h, W: w}
			if m.QuarantineOverlaps(window) {
				continue
			}
			cost := 0
			feasiblySmall := true
			for _, id := range owners.collect(m, window) {
				rect, _ := m.Rect(id)
				cost += rect.Area()
				if rect.Area() >= h*w*2 {
					feasiblySmall = false // evicting giants is hopeless
				}
			}
			if feasiblySmall {
				cands = append(cands, cand{window, cost})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		if cands[a].window.Row != cands[b].window.Row {
			return cands[a].window.Row < cands[b].window.Row
		}
		return cands[a].window.Col < cands[b].window.Col
	})
	var (
		plans    []*Plan
		seenSets = map[string]bool{}
		scratch  = m.Clone()
		steps    []Step
		key      []byte
	)
	for _, cd := range cands {
		mk := scratch.Mark()
		var ok bool
		steps, ok = tryEvict(scratch, cd.window, &owners, steps[:0], find)
		scratch.Rewind(mk)
		scratch.Release(mk)
		if !ok {
			continue
		}
		// tryEvict moved exactly the window's owners, which the set holds.
		key = owners.key(key[:0])
		if seenSets[string(key)] {
			continue
		}
		seenSets[string(key)] = true
		plan := &Plan{Steps: slices.Clone(steps), Target: cd.window}
		for _, s := range steps {
			plan.CostCLBs += s.From.Area()
		}
		plans = append(plans, plan)
		if limit > 0 && len(plans) >= limit {
			break
		}
	}
	return plans
}

// ownerSet collects the distinct allocation ids under a rectangle. A scan
// reuses one set for every rectangle it tests.
type ownerSet struct {
	ids   []int // the ids collected, in row-major order of first appearance
	stamp []int // stamp[id] == epoch: id is in ids
	epoch int
}

// collect returns the distinct allocation ids covering rect. The result
// aliases the set and holds until the next collect.
func (s *ownerSet) collect(m *area.Manager, rect fabric.Rect) []int {
	s.ids = s.ids[:0]
	s.epoch++
	for r := rect.Row; r < rect.Row+rect.H; r++ {
		for c := rect.Col; c < rect.Col+rect.W; c++ {
			id := m.OwnerAt(fabric.Coord{Row: r, Col: c})
			if id == 0 {
				continue
			}
			if id >= len(s.stamp) {
				s.stamp = append(s.stamp, make([]int, id+1-len(s.stamp))...)
			}
			if s.stamp[id] != s.epoch {
				s.stamp[id] = s.epoch
				s.ids = append(s.ids, id)
			}
		}
	}
	return s.ids
}

// key appends the collected ids to dst in ascending order, naming the set.
// It reorders the ids.
func (s *ownerSet) key(dst []byte) []byte {
	slices.Sort(s.ids)
	for _, id := range s.ids {
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ',')
	}
	return dst
}

// tryEvict appends to steps the moves of every task overlapping the window
// to somewhere outside it, biggest task first (hardest to re-place). It
// carries the moves out on m IN EXECUTION ORDER, so the plan is feasible
// step by step on the live device; the caller rewinds m.
func tryEvict(m *area.Manager, window fabric.Rect, owners *ownerSet, steps []Step, find finder) ([]Step, bool) {
	ids := owners.collect(m, window)
	slices.SortFunc(ids, func(a, b int) int {
		ra, _ := m.Rect(a)
		rb, _ := m.Rect(b)
		if ra.Area() != rb.Area() {
			return rb.Area() - ra.Area()
		}
		return a - b
	})
	for _, id := range ids {
		old, _ := m.Rect(id)
		to, ok := find(m, id, old.H, old.W, window)
		if !ok {
			return steps, false
		}
		if err := m.Move(id, to); err != nil {
			return steps, false
		}
		steps = append(steps, Step{ID: id, From: old, To: to})
	}
	// After the ordered moves the window must be completely free.
	return steps, m.Fits(window)
}

// finder picks the target an evicted task moves to: findOutside, or a
// reference it is checked against.
type finder func(m *area.Manager, id, h, w int, window fabric.Rect) (fabric.Rect, bool)

// findOutside finds the H x W target nearest the task's current rectangle
// that does not overlap the window and Fits: in bounds, clear of
// quarantine, and free of every task, the moving one included (a target
// overlapping the task's old cells is rejected to keep the physical staged
// move simple).
//
// Nearest is the smallest displacement of the origin: the smallest
// path-delay increase during the relocation interval (the paper's reason
// for staging long moves) and the best odds that the live engine can
// re-route the task's nets at the target. The search walks rings of growing
// Manhattan distance from the task's origin, each ring in row-major order,
// and returns the first fit: the argmin of a full grid scan, with the same
// row-major tie-break, without testing the positions beyond it.
func findOutside(m *area.Manager, id, h, w int, window fabric.Rect) (fabric.Rect, bool) {
	old, _ := m.Rect(id)
	maxRow, maxCol := m.Rows-h, m.Cols-w
	far := max(old.Row, maxRow-old.Row) + max(old.Col, maxCol-old.Col)
	for d := 0; d <= far; d++ {
		for r := max(0, old.Row-d); r <= min(maxRow, old.Row+d); r++ {
			dc := d - abs(r-old.Row)
			for _, c := range [2]int{old.Col - dc, old.Col + dc} {
				rect := fabric.Rect{Row: r, Col: c, H: h, W: w}
				if c >= 0 && c <= maxCol && !rect.Overlaps(window) && m.Fits(rect) {
					return rect, true
				}
				if dc == 0 {
					break
				}
			}
		}
	}
	return fabric.Rect{}, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Compact plans a full defragmentation: every task slides as far west, then
// as far north, as the space allows, in repeated passes until the layout is
// stable. Unlike the Planner methods, Compact is not driven by a single
// incoming request — it consolidates ALL free space, which is what the
// run-time manager's periodic defragmentation wants. The returned plan's
// Target is the largest free rectangle after compaction.
func Compact(m *area.Manager) *Plan {
	clone := m.Clone()
	plan := &Plan{}
	slide := func(id int, westFirst bool) bool {
		rect, _ := clone.Rect(id)
		best := rect
		if westFirst {
			for c := 0; c < rect.Col; c++ {
				cand := fabric.Rect{Row: rect.Row, Col: c, H: rect.H, W: rect.W}
				if clone.CanMove(id, cand) {
					best = cand
					break
				}
			}
		} else {
			for r := 0; r < rect.Row; r++ {
				cand := fabric.Rect{Row: r, Col: rect.Col, H: rect.H, W: rect.W}
				if clone.CanMove(id, cand) {
					best = cand
					break
				}
			}
		}
		if best == rect {
			return false
		}
		if err := clone.Move(id, best); err != nil {
			return false
		}
		plan.Steps = append(plan.Steps, Step{ID: id, From: rect, To: best})
		plan.CostCLBs += rect.Area()
		return true
	}
	sortedIDs := func(byCol bool) []int {
		ids := clone.Allocations()
		sort.Slice(ids, func(a, b int) bool {
			ra, _ := clone.Rect(ids[a])
			rb, _ := clone.Rect(ids[b])
			if byCol {
				if ra.Col != rb.Col {
					return ra.Col < rb.Col
				}
				return ra.Row < rb.Row
			}
			if ra.Row != rb.Row {
				return ra.Row < rb.Row
			}
			return ra.Col < rb.Col
		})
		return ids
	}
	for pass := 0; pass < 4; pass++ {
		moved := false
		for _, id := range sortedIDs(true) {
			moved = slide(id, true) || moved
		}
		for _, id := range sortedIDs(false) {
			moved = slide(id, false) || moved
		}
		if !moved {
			break
		}
	}
	plan.Target = clone.MaxFreeRect()
	return plan
}

// Execute applies a plan's moves to a manager (book-keeping only; physical
// execution is the relocation engine's job).
func Execute(m *area.Manager, p *Plan) error {
	for _, s := range p.Steps {
		if err := m.Move(s.ID, s.To); err != nil {
			return err
		}
	}
	return nil
}
