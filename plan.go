package rlm

import (
	"fmt"
	"strings"

	"repro/internal/area"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
)

// Plan is a transaction: an ordered sequence of load / unload / move
// operations that is dry-run against the area book-keeping as a whole
// before a single frame is streamed, and rolled back to the pre-commit
// configuration checkpoint if any step fails physically.
//
//	err := sys.Plan().
//		Unload("b02").
//		Move("dsp", fabric.Rect{Row: 0, Col: 19, H: 5, W: 5}).
//		Load(nl, fabric.Rect{Row: 5, Col: 0, H: 11, W: 20}).
//		Commit()
//
// A Plan is not safe for concurrent use and should be committed once.
type Plan struct {
	sys *System
	ops []planOp
}

type planOpKind uint8

const (
	opLoad planOpKind = iota
	opUnload
	opMove
	opMoveStaged
)

type planOp struct {
	kind    planOpKind
	nl      *netlist.Netlist
	name    string
	region  fabric.Rect
	maxStep int
}

func (op planOp) String() string {
	switch op.kind {
	case opLoad:
		return fmt.Sprintf("load %s %v", op.name, op.region)
	case opUnload:
		return fmt.Sprintf("unload %s", op.name)
	case opMove:
		return fmt.Sprintf("move %s -> %v", op.name, op.region)
	case opMoveStaged:
		return fmt.Sprintf("move-staged %s -> %v step<=%d", op.name, op.region, op.maxStep)
	}
	return "op?"
}

// Plan starts an empty transaction on the system.
func (s *System) Plan() *Plan { return &Plan{sys: s} }

// Load schedules placing a netlist (auto-sized region when zero).
func (p *Plan) Load(nl *netlist.Netlist, region fabric.Rect) *Plan {
	p.ops = append(p.ops, planOp{kind: opLoad, nl: nl, name: nl.Name, region: region})
	return p
}

// Unload schedules decommissioning a design.
func (p *Plan) Unload(name string) *Plan {
	p.ops = append(p.ops, planOp{kind: opUnload, name: name})
	return p
}

// Move schedules relocating a design to a new region of identical shape.
func (p *Plan) Move(name string, to fabric.Rect) *Plan {
	p.ops = append(p.ops, planOp{kind: opMove, name: name, region: to})
	return p
}

// MoveStaged schedules a staged relocation bounding each hop to maxStep.
func (p *Plan) MoveStaged(name string, to fabric.Rect, maxStep int) *Plan {
	p.ops = append(p.ops, planOp{kind: opMoveStaged, name: name, region: to, maxStep: maxStep})
	return p
}

// Ops returns the number of scheduled operations.
func (p *Plan) Ops() int { return len(p.ops) }

// Validate dry-runs the whole transaction against the current area
// book-keeping without touching the fabric. The returned error wraps
// ErrPlanInvalid plus the underlying sentinel for the failing operation.
func (p *Plan) Validate() error {
	p.sys.mu.RLock()
	defer p.sys.mu.RUnlock()
	return p.sys.validatePlanLocked(p.ops)
}

// Commit validates and then executes the transaction under the system
// lock. The whole plan is validated first (dry-run against the area
// book-keeping), then executed under a single frame-granular checkpoint
// covering the union of frames the ops touch, with the ops' frame writes
// coalesced: independent operations stream as one batched, sync/CRC-
// bracketed configuration between relocation wait points instead of one
// stream per frame. A validation failure leaves the system untouched; a
// physical mid-plan failure streams the pre-commit recovery frames and
// restores the book-keeping, so the commit is all-or-nothing either way.
func (p *Plan) Commit() error {
	s := p.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validatePlanLocked(p.ops); err != nil {
		return err
	}
	// Ops overlap their planning with earlier ops' streams; the
	// transaction's harvest makes a transport failure anywhere in the plan
	// fail the whole of it, unless the retry ladder re-delivers it.
	return s.txLocked("plan", "", fabric.Rect{}, p.describe(), func(*checkpoint) error {
		return s.engine.Tool.InBatch(func() error {
			for i, op := range p.ops {
				if err := s.executeOpLocked(op); err != nil {
					return fmt.Errorf("rlm: plan op %d (%s): %w", i, op, err)
				}
			}
			return nil
		})
	})
}

// describe renders the op list for the journal's intent record.
func (p *Plan) describe() string {
	parts := make([]string, len(p.ops))
	for i, op := range p.ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, "; ")
}

func (s *System) executeOpLocked(op planOp) error {
	switch op.kind {
	case opLoad:
		region, err := s.checkLoadLocked(op.nl, op.region)
		if err != nil {
			return err
		}
		_, err = s.loadRaw(op.nl, region)
		return err
	case opUnload:
		if _, ok := s.designs[op.name]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownDesign, op.name)
		}
		return s.unloadRaw(op.name)
	case opMove:
		if err := s.checkMoveLocked(op.name, op.region); err != nil {
			return err
		}
		return s.moveRaw(op.name, op.region)
	case opMoveStaged:
		d, ok := s.designs[op.name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownDesign, op.name)
		}
		hops, err := s.stagedHopsLocked(op.name, d.Region, op.region, op.maxStep)
		if err != nil {
			return err
		}
		for _, next := range hops {
			if err := s.moveRaw(op.name, next); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("rlm: unknown plan op")
}

// validatePlanLocked simulates the whole op sequence on a clone of the
// area manager plus shadow name/shape tables.
func (s *System) validatePlanLocked(ops []planOp) error {
	clone := s.area.Clone()
	ids := make(map[string]int, len(s.regions))
	shapes := make(map[string]fabric.Rect, len(s.designs))
	for name, id := range s.regions {
		ids[name] = id
	}
	for name, d := range s.designs {
		shapes[name] = d.Region
	}
	invalid := func(i int, op planOp, cause error) error {
		return fmt.Errorf("%w: op %d (%s): %w", ErrPlanInvalid, i, op, cause)
	}
	for i, op := range ops {
		switch op.kind {
		case opLoad:
			if op.nl == nil {
				return invalid(i, op, fmt.Errorf("nil netlist"))
			}
			if _, dup := shapes[op.name]; dup {
				return invalid(i, op, ErrDuplicateDesign)
			}
			// Degraded-mode admission: a plan that adds load is refused
			// outright while healthy capacity is below the watermark.
			if err := s.admitLocked(); err != nil {
				return invalid(i, op, err)
			}
			region := op.region
			if region.Area() == 0 {
				proto, err := place.AutoRegion(s.dev, op.nl, 0, 0, 0.4)
				if err != nil {
					return invalid(i, op, fmt.Errorf("%w: %v", ErrNoSpace, err))
				}
				var ok bool
				region, ok = clone.FindPlacement(proto.H, proto.W, area.BestFit)
				if !ok {
					return invalid(i, op, ErrNoSpace)
				}
			} else if !clone.Fits(region) {
				return invalid(i, op, ErrRegionBusy)
			}
			id, err := clone.AllocateAt(region)
			if err != nil {
				return invalid(i, op, ErrRegionBusy)
			}
			ids[op.name], shapes[op.name] = id, region
		case opUnload:
			id, ok := ids[op.name]
			if !ok {
				return invalid(i, op, ErrUnknownDesign)
			}
			if err := clone.Free(id); err != nil {
				return invalid(i, op, err)
			}
			delete(ids, op.name)
			delete(shapes, op.name)
		case opMove, opMoveStaged:
			id, ok := ids[op.name]
			if !ok {
				return invalid(i, op, ErrUnknownDesign)
			}
			cur := shapes[op.name]
			if op.region.H != cur.H || op.region.W != cur.W {
				return invalid(i, op, ErrRegionMismatch)
			}
			maxStep := op.maxStep
			if op.kind == opMove {
				// A direct move is a single unbounded hop.
				maxStep = 1 << 30
			} else if maxStep < 1 {
				maxStep = 1
			}
			for cur != op.region {
				dr := clampStep(op.region.Row-cur.Row, maxStep)
				dc := clampStep(op.region.Col-cur.Col, maxStep)
				next := fabric.Rect{Row: cur.Row + dr, Col: cur.Col + dc, H: cur.H, W: cur.W}
				if err := clone.Move(id, next); err != nil {
					return invalid(i, op, fmt.Errorf("%w: hop %v", ErrRegionBusy, next))
				}
				cur = next
			}
			shapes[op.name] = op.region
		}
	}
	return nil
}
