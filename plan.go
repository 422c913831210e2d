package rlm

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/area"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
)

// Plan is a transaction: an ordered sequence of load / unload / move
// operations that is dry-run against the area book-keeping as a whole
// before a single frame is streamed, and rolled back to the pre-commit
// configuration checkpoint if any step fails physically. Each op is checked
// and run exactly as the single call of the same name: a load takes the
// template cache's warm path and is captured, and a target on condemned
// logic space is refused with ErrQuarantined.
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

// planOp is one facade operation. The single calls, Plan and Defragment all
// build planOps, dry-run them with checkOpsLocked (which resolves an
// auto-sized load's region and a move's hops) and execute them with
// runOpLocked.
type planOp struct {
	kind    planOpKind
	nl      *netlist.Netlist
	name    string
	region  fabric.Rect
	maxStep int
	hops    []fabric.Rect
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

// Validate dry-runs the whole transaction without touching the fabric: the
// same check Commit runs first. The dry run applies the ops to the live area
// book-keeping and rewinds them, so Validate takes the system's write lock.
// The returned error wraps ErrPlanInvalid plus the underlying sentinel for
// the failing operation.
func (p *Plan) Validate() error {
	p.sys.mu.Lock()
	defer p.sys.mu.Unlock()
	_, err := p.checkLocked()
	return err
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
	ops, err := p.checkLocked()
	if err != nil {
		return err
	}
	// Ops overlap their planning with earlier ops' streams; the
	// transaction's harvest makes a transport failure anywhere in the plan
	// fail the whole of it, unless the retry ladder re-delivers it.
	return s.txLocked("plan", "", fabric.Rect{}, p.describe(), func() error {
		return s.engine.Tool.InBatch(func() error {
			for i, op := range ops {
				if err := s.runOpLocked(op); err != nil {
					return fmt.Errorf("rlm: plan op %d (%s): %w", i, op, err)
				}
			}
			return nil
		})
	})
}

// checkLocked dry-runs a copy of the plan's ops and returns the checked
// copy; the plan keeps its zero (auto-sized) regions, so a Validate leaves a
// later Commit to resolve them afresh.
func (p *Plan) checkLocked() ([]planOp, error) {
	ops := slices.Clone(p.ops)
	if i, err := p.sys.checkOpsLocked(ops); err != nil {
		return nil, fmt.Errorf("%w: op %d (%s): %w", ErrPlanInvalid, i, p.ops[i], err)
	}
	return ops, nil
}

// describe renders the op list for the journal's intent record.
func (p *Plan) describe() string {
	parts := make([]string, len(p.ops))
	for i, op := range p.ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, "; ")
}

// checkOpsLocked is the facade's one validation: it dry-runs ops in order on
// the live area manager, under an undo-log mark it rewinds and releases
// before returning, so nothing is touched and nothing is cloned. It resolves
// each load's region (auto-sized when zero) and each move's hops in place: a
// direct move is one hop, even onto its own region, and a staged move steps
// at most maxStep CLBs per hop. On a refusal it returns the failing op's
// index and an error wrapping the sentinel.
func (s *System) checkOpsLocked(ops []planOp) (int, error) {
	mk := s.area.Mark()
	defer func() {
		s.area.Rewind(mk)
		s.area.Release(mk)
	}()
	// The ops' own effects on the design tables, over the resident ones.
	type entry struct {
		id     int
		region fabric.Rect
		gone   bool
	}
	shadow := map[string]entry{}
	lookup := func(name string) (entry, bool) {
		if e, ok := shadow[name]; ok {
			return e, !e.gone
		}
		d, ok := s.designs[name]
		if !ok {
			return entry{}, false
		}
		return entry{id: s.regions[name], region: d.Region}, true
	}
	for i := range ops {
		op := &ops[i]
		if op.kind == opLoad {
			if _, dup := lookup(op.name); dup {
				return i, fmt.Errorf("%w: %q", ErrDuplicateDesign, op.name)
			}
			// Degraded-mode admission: a load is refused outright while
			// healthy capacity is below the watermark.
			if err := s.admitLocked(); err != nil {
				return i, err
			}
			if op.region.Area() == 0 {
				proto, err := place.AutoRegion(s.dev, op.nl, 0, 0, 0.4)
				ok := err == nil
				if ok {
					op.region, ok = s.area.FindPlacement(proto.H, proto.W, area.BestFit)
				}
				if !ok {
					return i, fmt.Errorf("%w: auto-sizing %q", ErrNoSpace, op.name)
				}
			}
			id, err := s.area.AllocateAt(op.region)
			if err != nil {
				return i, fmt.Errorf("%w: %v for %q", s.refusalLocked(op.region), op.region, op.name)
			}
			shadow[op.name] = entry{id: id, region: op.region}
			continue
		}
		e, ok := lookup(op.name)
		if !ok {
			return i, fmt.Errorf("%w: %q", ErrUnknownDesign, op.name)
		}
		if op.kind == opUnload {
			if err := s.area.Free(e.id); err != nil {
				return i, err
			}
			shadow[op.name] = entry{gone: true}
			continue
		}
		if op.region.H != e.region.H || op.region.W != e.region.W {
			return i, fmt.Errorf("%w: target %v, design %v", ErrRegionMismatch, op.region, e.region)
		}
		op.hops = []fabric.Rect{op.region}
		if op.kind == opMoveStaged {
			op.hops = nil
			step := max(op.maxStep, 1)
			for cur := e.region; cur != op.region; {
				cur.Row += clampStep(op.region.Row-cur.Row, step)
				cur.Col += clampStep(op.region.Col-cur.Col, step)
				op.hops = append(op.hops, cur)
			}
		}
		for _, hop := range op.hops {
			if err := s.area.Move(e.id, hop); err != nil {
				return i, fmt.Errorf("%w: hop %v", s.refusalLocked(hop), hop)
			}
		}
		shadow[op.name] = entry{id: e.id, region: op.region}
	}
	return -1, nil
}

// refusalLocked names why a rectangle the dry run could not take is refused:
// condemned logic space is permanent, a busy region is not.
func (s *System) refusalLocked(rect fabric.Rect) error {
	if s.area.QuarantineOverlaps(rect) {
		return ErrQuarantined
	}
	return ErrRegionBusy
}

func clampStep(d, max int) int {
	if d > max {
		return max
	}
	if d < -max {
		return -max
	}
	return d
}

// runOpLocked executes one op checked by checkOpsLocked inside the caller's
// transaction, which owns rollback. A load takes the template cache's warm
// path when it can, and otherwise the cold path, whose result the cache
// captures; a move runs its checked hops.
func (s *System) runOpLocked(op planOp) error {
	switch op.kind {
	case opLoad:
		if s.tmpl != nil {
			if handled, err := s.tryWarmLoadLocked(op.nl, op.region); err != nil || handled {
				return err
			}
			// Cache miss (or clean pre-write fallback): cold path below.
		}
		d, err := s.loadRaw(op.nl, op.region)
		if err != nil {
			return err
		}
		if s.tmpl != nil {
			s.captureTemplateLocked(d)
		}
		return nil
	case opUnload:
		return s.unloadRaw(op.name)
	}
	for _, hop := range op.hops {
		if err := s.moveRaw(op.name, hop); err != nil {
			if op.kind == opMoveStaged {
				return fmt.Errorf("rlm: staged move via %v: %w", hop, err)
			}
			return err
		}
	}
	return nil
}
