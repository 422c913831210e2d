package rlm

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/fabric"
	"repro/internal/rearrange"
)

// DefragPolicy parameterises an on-line defragmentation pass.
type DefragPolicy struct {
	// Planner proposes the rearrangement when a target region is
	// requested (NeedH/NeedW set); nil defaults to local repacking
	// (Diessel's method, the paper's reference [5]).
	Planner rearrange.Planner
	// NeedH/NeedW ask for a specific free H x W region. Both zero means
	// full compaction: every design slides west/north as far as it can,
	// consolidating all free space.
	NeedH, NeedW int
	// MaxStep, when positive, bounds each design's per-stage displacement
	// to MaxStep CLBs (Chebyshev), hopping through free intermediate
	// regions where possible (the paper's staged relocation). Steps whose
	// corridor is blocked fall back to a direct move.
	MaxStep int
}

// DesignMove records one design relocation performed by Defragment.
type DesignMove struct {
	Design   string
	From, To fabric.Rect
}

// DefragReport summarises a defragmentation pass.
type DefragReport struct {
	// Moves are the design relocations, in execution order.
	Moves []DesignMove
	// Freed is the contiguous region opened (the request for Need mode,
	// the largest free rectangle for full compaction).
	Freed fabric.Rect
	// CLBsMoved is the total booked CLB area relocated (the paper's
	// relocation cost unit); CellsRelocated counts the live logic cells
	// the engine actually streamed.
	CLBsMoved      int
	CellsRelocated int
	// FragBefore/FragAfter are the fragmentation measures around the pass.
	FragBefore, FragAfter float64
	// Attempts counts the candidate plans tried (rolled-back physical
	// failures included) before one succeeded.
	Attempts int
}

// Defragment consolidates free logic space by relocating live designs —
// while they keep running — according to the policy. This is the paper's
// closed loop: the rearrangement planner's book-keeping moves are executed
// for real by the relocation engine through the configuration port,
// transparently to the running functions.
//
// With Need set the pass is transactional: candidate plans are tried in
// order, each executed all-or-nothing (a physical mid-plan failure rolls
// the device and book-keeping back to the pre-pass checkpoint before the
// next candidate is tried); ErrNoSpace (wrapped) is returned when no plan
// frees the requested region. Without Need the pass is a best-effort full
// compaction: every design slides west/north as far as the space and the
// live routing allow, a slide that fails physically is rolled back on its
// own and skipped. A pass that needs no moves returns an empty report and
// touches nothing.
func (s *System) Defragment(pol DefragPolicy) (*DefragReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pol.Planner == nil {
		pol.Planner = rearrange.LocalRepacking{}
	}
	if pol.NeedH > 0 && pol.NeedW > 0 {
		return s.defragNeedLocked(pol)
	}
	return s.defragCompactLocked(pol)
}

// defragNeedLocked frees a requested region transactionally, retrying
// alternative plans. A plan that is sound in the book-keeping can still
// fail physically (routing congestion at the chosen targets), so planners
// that can propose alternatives are asked for all of them.
func (s *System) defragNeedLocked(pol DefragPolicy) (*DefragReport, error) {
	rep := &DefragReport{FragBefore: s.area.Fragmentation()}
	var candidates []*rearrange.Plan
	if mp, ok := pol.Planner.(multiPlanner); ok {
		candidates = mp.Plans(s.area, pol.NeedH, pol.NeedW)
	} else if pl, ok := pol.Planner.Plan(s.area, pol.NeedH, pol.NeedW); ok {
		candidates = []*rearrange.Plan{pl}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: planner %s frees no %dx%d region",
			ErrNoSpace, pol.Planner.Name(), pol.NeedH, pol.NeedW)
	}
	if len(candidates[0].Steps) == 0 {
		// The request already fits; nothing to move.
		rep.Freed = candidates[0].Target
		rep.FragAfter = rep.FragBefore
		return rep, nil
	}
	byID := s.namesByAllocationLocked()
	// One transaction spans every candidate: a rolled-back candidate's undo
	// records stay valid (its rollback restores the checkpoint state the
	// pre-images were taken against), so a crash anywhere in the retry loop
	// rolls back to the pre-pass configuration. Each candidate is harvested
	// before it is accepted; a failed one rolls back before the next is
	// tried, and the last one's rollback is the transaction's.
	err := s.txLocked("defrag-need", "", fabric.Rect{H: pol.NeedH, W: pol.NeedW},
		fmt.Sprintf("planner=%s", pol.Planner.Name()), func(cp *checkpoint) error {
			var err error
			for _, plan := range candidates {
				if err != nil {
					s.restoreLocked(cp, err)
				}
				rep.Attempts++
				s.publish(Event{Kind: RearrangeStarted, Steps: len(plan.Steps)})
				cells0 := s.engine.Stats.CellsRelocated
				rep.Moves = rep.Moves[:0]
				rep.CLBsMoved = 0
				if err = s.executeDefragPlanLocked(plan, byID, pol.MaxStep, rep); err == nil {
					err = s.finishOpLocked()
				}
				if err == nil {
					rep.Freed = plan.Target
					rep.CellsRelocated = s.engine.Stats.CellsRelocated - cells0
					rep.FragAfter = s.area.Fragmentation()
					s.publish(Event{Kind: RearrangeFinished, Steps: len(plan.Steps), CLBs: rep.CellsRelocated})
					return nil
				}
			}
			return err
		})
	switch {
	case err == nil:
		return rep, nil
	case rep.Attempts > 0:
		return nil, fmt.Errorf("rlm: all %d rearrangement plans failed physically, last: %w", rep.Attempts, err)
	}
	return nil, err
}

// defragCompactLocked slides every design west/north best-effort. Each
// slide is bracketed by a frame-granular snapshot: one that fails physically
// (the west columns double as the pad-entry routing corridor, so they
// congest first) is rolled back by replaying only the frames it dirtied and
// skipped while the rest of the pass continues. The snapshot is released the
// moment its slide completes, so exactly one checkpoint is alive at any
// point of the pass, its configuration side proportional to the slide's
// touched frames and its host side to the one design being slid — the
// checkpoint journals the slid design's tables first-touch and marks the
// area manager's undo log instead of cloning either.
//
// A slide that completed must NOT be rolled back later (no pass-level
// rollback-and-replay): relocation moves live state, and rewinding the
// configuration of a finished move would reset the restored cells to their
// power-up Init values while the running application holds live data.
// Rollback is therefore scoped to the failing slide, where the original
// cells still hold the state.
func (s *System) defragCompactLocked(pol DefragPolicy) (*DefragReport, error) {
	rep := &DefragReport{FragBefore: s.area.Fragmentation(), Attempts: 1}
	plan := rearrange.Compact(s.area)
	if len(plan.Steps) == 0 {
		rep.Freed = plan.Target
		rep.FragAfter = rep.FragBefore
		return rep, nil
	}
	byID := s.namesByAllocationLocked()
	s.publish(Event{Kind: RearrangeStarted, Steps: len(plan.Steps)})
	cells0 := s.engine.Stats.CellsRelocated
	for _, st := range plan.Steps {
		name, ok := byID[st.ID]
		if !ok {
			continue
		}
		// Earlier skipped slides can leave this step's target occupied.
		if _, err := s.checkOpsLocked([]planOp{{kind: opMove, name: name, region: st.To}}); err != nil {
			continue
		}
		from := s.designs[name].Region
		// Each slide is its own transaction: a completed slide must never be
		// rolled back (see above), so it seals individually. The slide is
		// harvested in the body, so a harvest failure carries the slide in
		// its rollback cause too.
		ran := false
		err := s.txLocked("defrag-slide", name, st.To, "", func(*checkpoint) error {
			ran = true
			err := s.defragStepLocked(name, st.To, pol.MaxStep)
			if err == nil {
				err = s.finishOpLocked()
			}
			if err != nil {
				return fmt.Errorf("rlm: compaction slide %s -> %v: %w", name, st.To, err)
			}
			return nil
		})
		switch {
		case err == nil:
			rep.Moves = append(rep.Moves, DesignMove{Design: name, From: from, To: st.To})
			rep.CLBsMoved += from.Area()
		case ran:
			rep.Attempts++ // rolled back and skipped
		default:
			return nil, err
		}
	}
	rep.CellsRelocated = s.engine.Stats.CellsRelocated - cells0
	rep.Freed = s.area.MaxFreeRect()
	rep.FragAfter = s.area.Fragmentation()
	s.publish(Event{Kind: RearrangeFinished, Steps: len(rep.Moves), CLBs: rep.CellsRelocated})
	return rep, nil
}

func (s *System) namesByAllocationLocked() map[int]string {
	byID := make(map[int]string, len(s.regions))
	for name, id := range s.regions {
		byID[id] = name
	}
	return byID
}

// multiPlanner is implemented by planners that can propose fallback plans
// (rearrange.LocalRepacking).
type multiPlanner interface {
	Plans(m *area.Manager, h, w int) []*rearrange.Plan
}

// executeDefragPlanLocked runs one candidate plan's moves, accumulating
// into the report; the caller owns rollback.
func (s *System) executeDefragPlanLocked(plan *rearrange.Plan, byID map[int]string, maxStep int, rep *DefragReport) error {
	for _, st := range plan.Steps {
		name, ok := byID[st.ID]
		if !ok {
			return fmt.Errorf("%w: allocation %d backs no design", ErrUnknownDesign, st.ID)
		}
		if err := s.defragStepLocked(name, st.To, maxStep); err != nil {
			return fmt.Errorf("rlm: defragment step %s -> %v: %w", name, st.To, err)
		}
		rep.Moves = append(rep.Moves, DesignMove{Design: name, From: st.From, To: st.To})
		rep.CLBsMoved += st.From.Area()
	}
	return nil
}

// defragStepLocked executes one planned design move, staged when the
// policy asks for it and the hop corridor is free, direct otherwise.
func (s *System) defragStepLocked(name string, to fabric.Rect, maxStep int) error {
	if maxStep > 0 {
		ops := []planOp{{kind: opMoveStaged, name: name, region: to, maxStep: maxStep}}
		if _, err := s.checkOpsLocked(ops); err == nil {
			return s.runOpLocked(ops[0])
		}
	}
	ops := []planOp{{kind: opMove, name: name, region: to}}
	if _, err := s.checkOpsLocked(ops); err != nil {
		return err
	}
	return s.runOpLocked(ops[0])
}
