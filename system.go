// Package rlm (run-time logic management) is the public facade of the
// reproduction of Gericota et al., "Run-Time Management of Logic Resources
// on Reconfigurable Systems" (DATE 2003): a complete software model of a
// Virtex-class partially reconfigurable FPGA together with the paper's
// contribution — dynamic relocation of active CLBs and routing, on-line
// defragmentation, and the rearrangement-and-programming tool built on a
// JBits-style bitstream API over a Boundary-Scan configuration port.
//
// A System owns the device, its configuration port, the relocation engine
// and the area book-keeping. Designs (technology-mapped netlists) are
// loaded into rectangular regions, run cycle-accurately, and can be moved
// — whole or CLB by CLB — while they keep running.
//
// The facade is transactional: every mutating operation validates against
// the area book-keeping before a single frame is streamed, and rolls the
// device back to a pre-operation configuration checkpoint (the tool's
// recovery shadow) if the frame stream fails midway. Multi-operation
// transactions are built with System.Plan, on-line defragmentation with
// System.Defragment, and progress is observable through System.Subscribe.
// A System is safe for concurrent use: readers (Fragmentation, Stats,
// Designs, ...) may run while a relocation streams.
package rlm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/jtag"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/relocate"
	"repro/internal/template"
)

// System is the live reconfigurable platform: device, configuration port,
// relocation engine, and area management.
type System struct {
	mu sync.RWMutex

	dev    *fabric.Device
	ctrl   *bitstream.Controller
	port   bitstream.Port
	engine *relocate.Engine
	area   *area.Manager

	designs map[string]*place.Design
	regions map[string]int // design name -> area allocation id

	// tmpl is the content-addressed template cache (nil = disabled): cold
	// loads capture pre-routed frame images and warm loads splice them back.
	// Moves do not read it: an image carries no flip-flop state.
	tmpl *template.Store

	// cp is the armed checkpoint, nil between operations; mutating
	// operations journal inverse host-book-keeping ops into it (first-touch,
	// so a checkpoint costs what the operation touches, not what is loaded).
	cp *checkpoint

	// jrnl is the durable operation journal (nil = journaling off); see
	// journal.go for the write-ahead protocol and recover.go for the crash
	// reconciliation path.
	jrnl *sysJournal

	// retry, when non-nil, arms the transport fault-tolerance ladder (see
	// fault.go): harvest faults re-deliver from the shadow instead of
	// immediately rolling the operation back.
	retry *RetryPolicy
	// health is the per-column health lifecycle tracker (see health.go) and
	// the one owner of column quarantine: the frame tool's delivery mask and
	// the area manager's logic-space mask both follow its transitions.
	// Always non-nil; the zero policy keeps every automatic transition off,
	// reproducing the legacy permanent-quarantine behaviour.
	health *health.Tracker
	// pendingBad holds frames the retry ladder's final verify condemned. The
	// ladder can condemn frames in an operation that still succeeds (a failed
	// Defragment candidate followed by a good one), so txLocked sweeps them on
	// every exit, once the operation is sealed.
	pendingBad []fabric.FrameAddr
	// evacuating is set for the length of an evacuation pass; its moves
	// leave what they condemn pending instead of sweeping, so a quarantine
	// cannot recurse.
	evacuating bool

	// The scrubber's state (see scrub.go): its round-robin cursor, a frame
	// index (Device.FrameIndex), and the background goroutine's lifecycle.
	scrubCursor int
	scrubStop   chan struct{}
	scrubDone   chan struct{}
	closeOnce   sync.Once
	// onDelivered observes every frame delivery (and rollback recovery
	// stream) — the crash-torture harness mirrors the fabric from it.
	onDelivered func([]bitstream.FrameUpdate)
	// crashHook, when set, fires at every journal/flush boundary with the
	// boundary's name; the harness snapshots journal prefix and mirror
	// there to simulate a crash.
	crashHook func(stage string)

	subMu   sync.Mutex
	subs    map[int]chan Event
	nextSub int
}

// New builds a system from functional options, e.g.
//
//	sys, err := rlm.New(rlm.WithDevice(fabric.XCV50), rlm.WithPort(rlm.BoundaryScan))
func New(opts ...Option) (*System, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.device.Rows == 0 {
		cfg.device = fabric.XCV200
	}
	dev := fabric.NewDevice(cfg.device)
	sys, err := newSystem(&cfg, dev)
	if err != nil {
		return nil, err
	}
	if cfg.journalPath != "" {
		j, err := journal.Create(cfg.journalPath)
		if err != nil {
			return nil, fmt.Errorf("rlm: opening journal: %w", err)
		}
		sys.attachJournal(j, 0)
		sys.jrnl.path = cfg.journalPath
		sys.jrnl.rotate = cfg.journalRot
		if err := sys.journalInit(&cfg); err != nil {
			j.Close()
			return nil, fmt.Errorf("rlm: initialising journal: %w", err)
		}
	}
	sys.startScrubber(cfg.scrubEvery, cfg.scrubBatch)
	return sys, nil
}

// newSystem builds a system over an existing device — New's body, shared
// with the journal-recovery constructor which brings its own device.
func newSystem(cfg *config, dev *fabric.Device) (*System, error) {
	ctrl := bitstream.NewController(dev)
	var port bitstream.Port
	switch {
	case cfg.portFactory != nil:
		port = cfg.portFactory(ctrl)
	case cfg.port == SelectMAP:
		hz := cfg.clockHz
		if hz == 0 {
			hz = 50e6
		}
		port = bitstream.NewParallelPort(ctrl, hz)
	default:
		hz := cfg.clockHz
		if hz == 0 {
			hz = jtag.DefaultTCKHz
		}
		port = jtag.NewPort(ctrl, hz)
	}
	if cfg.portWidth != 0 {
		switch cfg.portWidth {
		case 8, 16, 32:
		default:
			return nil, fmt.Errorf("rlm: WithPortWidth(%d): width must be 8, 16 or 32", cfg.portWidth)
		}
		pp, ok := port.(*bitstream.ParallelPort)
		if !ok {
			return nil, fmt.Errorf("rlm: WithPortWidth requires the SelectMAP port")
		}
		pp.WidthBits = cfg.portWidth
	}
	if cfg.compress {
		port.SetCompress(true)
	}
	eng, err := relocate.NewEngine(dev, port)
	if err != nil {
		return nil, err
	}
	eng.Tool.Serial = cfg.serialCommit
	var tmpl *template.Store
	if cfg.tmplPolicy != nil {
		tmpl = template.NewStore(*cfg.tmplPolicy)
	}
	sys := &System{
		dev:     dev,
		ctrl:    ctrl,
		port:    port,
		engine:  eng,
		area:    area.NewManagerFor(dev),
		designs: map[string]*place.Design{},
		regions: map[string]int{},
		tmpl:    tmpl,
		retry:   cfg.retry,
		subs:    map[int]chan Event{},
	}
	hpol := health.Policy{}
	if cfg.health != nil {
		hpol = *cfg.health
	}
	sys.health = health.NewTracker(hpol)
	eng.Tool.Masked = sys.masked
	sys.armRetryLadder()
	return sys, nil
}

// Device returns the simulated device. The returned object is shared with
// the engine and any running simulations; treat it as read-mostly.
func (s *System) Device() *fabric.Device { return s.dev }

// Controller returns the configuration controller behind the port.
func (s *System) Controller() *bitstream.Controller { return s.ctrl }

// Port returns the configuration port.
func (s *System) Port() bitstream.Port { return s.port }

// Engine returns the relocation engine — the designer-level escape hatch
// for cell-grain operations (RelocateCell, Clock hookup, ablation knobs).
// Engine calls bypass the System's locking and book-keeping; prefer the
// System methods for anything the facade covers.
func (s *System) Engine() *relocate.Engine { return s.engine }

// Area returns the area manager (logic-space book-keeping). It is not
// synchronised with concurrent System mutations; for a consistent reading
// use Fragmentation, Utilisation or Map.
func (s *System) Area() *area.Manager { return s.area }

// Designs lists loaded design names.
func (s *System) Designs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.designs))
	for name := range s.designs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Design returns a loaded design.
func (s *System) Design(name string) (*place.Design, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.designs[name]
	return d, ok
}

// Region returns the rectangle a design currently occupies.
func (s *System) Region(name string) (fabric.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.designs[name]
	if !ok {
		return fabric.Rect{}, false
	}
	return d.Region, true
}

// Allocation returns the area-manager allocation id backing a design's
// region (rearrangement plans are expressed in allocation ids).
func (s *System) Allocation(name string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.regions[name]
	return id, ok
}

// Fragmentation reports the current logic-space fragmentation.
func (s *System) Fragmentation() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.area.Fragmentation()
}

// Utilisation reports the fraction of CLBs allocated.
func (s *System) Utilisation() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.area.Utilisation()
}

// Map renders the occupancy grid ('.' free, letters by allocation).
func (s *System) Map() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.area.String()
}

// Stats returns the relocation engine statistics, with FramesWritten read
// from the frame tool and the transport seconds from the port: PortSeconds
// is its foreground time, and RetrySeconds, ScrubSeconds and ProbeSeconds
// are its meter's maintenance classes.
func (s *System) Stats() relocate.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.engine.Stats
	st.FramesWritten = s.engine.Tool.FramesWritten()
	st.PortSeconds = s.port.Elapsed()
	m := s.port.Meter()
	st.RetrySeconds = m.Seconds(bitstream.Retry)
	st.ScrubSeconds = m.Seconds(bitstream.Scrub)
	st.ProbeSeconds = m.Seconds(bitstream.Probe)
	return st
}

// Traffic returns the port meter's foreground write-traffic counters (words
// actually shifted vs the uncompressed equivalent).
func (s *System) Traffic() bitstream.Traffic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.port.Meter().Usage(bitstream.Foreground).Traffic
}

// Load places a netlist into a region (auto-sized when region is zero),
// registers it with the area manager and checkpoints the recovery shadow.
// On any failure the device configuration, pad bindings and book-keeping
// are restored to their pre-call state.
func (s *System) Load(nl *netlist.Netlist, region fabric.Rect) (*place.Design, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := []planOp{{kind: opLoad, nl: nl, name: nl.Name, region: region}}
	if _, err := s.checkOpsLocked(ops); err != nil {
		return nil, err
	}
	// The transaction's checkpoint keeps a partial placement (pads and cells
	// are written before routing can still fail) off the fabric.
	err := s.txLocked("load", nl.Name, ops[0].region, "", func() error { return s.runOpLocked(ops[0]) })
	if err != nil {
		return nil, err
	}
	return s.designs[nl.Name], nil
}

// loadRaw performs the placement and book-keeping; the caller has validated
// the load (region is concrete and free) and owns rollback. Any in-flight
// stream of an earlier operation drains first: placement shares the
// configuration path with the relocation streams (the development tool of
// the paper feeds the same port), and a pending transport failure must
// surface before new work piles on top of it.
func (s *System) loadRaw(nl *netlist.Netlist, region fabric.Rect) (*place.Design, error) {
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return nil, err
	}
	// With the template cache on, route region-contained first so the result
	// is capturable; containment is strictly harder, so a failure falls back
	// to the unconstrained placement (which simply won't be cached). The
	// failed attempt wrote the same cells and pads the retry rewrites
	// identically, and no PIPs: routing fails before route.Apply. Each
	// attempt routes on the engine's router, freshly blocked from the
	// configuration memory, and binds pads into a fresh reservation map.
	contain := s.tmpl != nil
	d, err := place.Place(s.dev, nl, place.Options{
		Region:      region,
		ReservePads: s.padsInUseLocked(),
		Router:      s.engine.FreeRouter(),
		Contain:     contain,
	})
	if err != nil && contain {
		// Adopt the failed attempt's writes, so the retry's view is declared
		// rather than rescanned.
		if err := s.engine.Tool.Sync(); err != nil {
			return nil, err
		}
		d, err = place.Place(s.dev, nl, place.Options{
			Region:      region,
			ReservePads: s.padsInUseLocked(),
			Router:      s.engine.FreeRouter(),
		})
	}
	if err != nil {
		return nil, err
	}
	// Journal the inverse before anything else can fail: the design may be
	// half-registered.
	name := nl.Name
	s.noteUndoLocked(func(s *System) {
		delete(s.designs, name)
		delete(s.regions, name)
	})
	id, err := s.area.AllocateAt(region)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRegionBusy, err)
	}
	s.designs[nl.Name] = d
	s.regions[nl.Name] = id
	// Adopt the placement into the recovery shadow (the armed checkpoint
	// covers it): the tool now holds a complete copy of the configuration
	// including the new design, and the view re-derives what it changed.
	if err := s.engine.Tool.Sync(); err != nil {
		return nil, err
	}
	s.publish(Event{Kind: DesignLoaded, Design: nl.Name, Region: region})
	return d, nil
}

// padsInUseLocked returns a fresh reservation map holding every resident
// design's pads: the pads a load must not bind. The designs' PadOf tables
// are the one record of pad use, so a load that fails leaves nothing to
// release.
func (s *System) padsInUseLocked() map[fabric.PadRef]bool {
	used := map[fabric.PadRef]bool{}
	for _, d := range s.designs {
		for _, p := range d.PadOf {
			used[p] = true
		}
	}
	return used
}

// Unload decommissions a design: all its routing and cells are released
// through the configuration port, its pads disabled, its region freed. A
// mid-stream engine failure rolls the device and book-keeping back to the
// pre-call state.
func (s *System) Unload(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := []planOp{{kind: opUnload, name: name}}
	if _, err := s.checkOpsLocked(ops); err != nil {
		return err
	}
	err := s.txLocked("unload", name, s.designs[name].Region, "", func() error { return s.runOpLocked(ops[0]) })
	if err != nil {
		return fmt.Errorf("rlm: unloading %q: %w", name, err)
	}
	return nil
}

// unloadRaw performs the unload without checkpointing; the caller owns
// rollback. The area book-keeping is consistent on success, and the
// design's pads are free once it leaves s.designs. The engine writes run in
// one coalescing batch, so the whole decommission streams as a single
// partial bitstream instead of one per frame.
func (s *System) unloadRaw(name string) error {
	// The unload never rewrites the design's tables, so the inverse is just
	// re-registering the same object (the configuration side is the frame
	// tool's checkpoint's business).
	d, id := s.designs[name], s.regions[name]
	s.noteUndoLocked(func(s *System) {
		s.designs[name] = d
		s.regions[name] = id
	})
	if err := s.unloadFabricBatched(name); err != nil {
		return err
	}
	if err := s.area.Free(id); err != nil {
		return err
	}
	region := d.Region
	delete(s.designs, name)
	delete(s.regions, name)
	s.publish(Event{Kind: DesignUnloaded, Design: name, Region: region})
	return nil
}

// unloadFabricBatched releases a design's routing, cells and pads through
// the configuration port as one batched stream.
func (s *System) unloadFabricBatched(name string) error {
	d := s.designs[name]
	return s.engine.Tool.InBatch(func() error {
		// Release routing from every signal source (cell outputs, input
		// pads).
		srcs := make([]fabric.NodeID, 0, len(d.SourceOf))
		for _, src := range d.SourceOf {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, src := range srcs {
			if err := s.engine.ReleaseTree(src); err != nil {
				return err
			}
		}
		// Clear cells.
		for _, ref := range d.OccupiedCells() {
			if err := s.engine.ClearCell(ref); err != nil {
				return err
			}
		}
		// Disable pads.
		for _, p := range d.PadOf {
			if err := s.engine.ClearPad(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// Move relocates a whole design to a new region of identical shape, CLB by
// CLB, while it runs. Overlapping source/target regions are handled by
// ordering the moves along the displacement vector (the paper's staged
// relocation). The target must be free in the area book-keeping before any
// frame is streamed; a mid-stream failure rolls everything back.
func (s *System) Move(name string, to fabric.Rect) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := []planOp{{kind: opMove, name: name, region: to}}
	if _, err := s.checkOpsLocked(ops); err != nil {
		return err
	}
	return s.txLocked("move", name, to, "", func() error { return s.runOpLocked(ops[0]) })
}

// moveRaw performs the physical relocation and book-keeping; the caller has
// validated the move and owns rollback. It is the paper's cell-by-cell
// replication: each occupied CLB goes through the engine's two-phase
// relocation, which carries its flip-flops' live state into the new cells,
// so every completed step is a cell move.
func (s *System) moveRaw(name string, to fabric.Rect) error {
	d := s.designs[name]
	// First-touch clone of the tables the relocation rewrites (Region,
	// CellOf, SourceOf) into the armed checkpoint.
	s.noteDesignLocked(d)
	from := d.Region
	coords := from.Coords()
	// Order so that targets are vacated before they are needed.
	sort.Slice(coords, func(i, j int) bool {
		a, b := coords[i], coords[j]
		if to.Row != from.Row {
			if to.Row < from.Row { // moving up: top rows first
				if a.Row != b.Row {
					return a.Row < b.Row
				}
			} else {
				if a.Row != b.Row {
					return a.Row > b.Row
				}
			}
		}
		if to.Col < from.Col {
			return a.Col < b.Col
		}
		return a.Col > b.Col
	})
	dr, dc := to.Row-from.Row, to.Col-from.Col
	for _, c := range coords {
		occupied := false
		for cell := 0; cell < fabric.CellsPerCLB; cell++ {
			if s.dev.ReadCell(fabric.CellRef{Coord: c, Cell: cell}).InUse() {
				occupied = true
				break
			}
		}
		if !occupied {
			continue
		}
		dst := fabric.Coord{Row: c.Row + dr, Col: c.Col + dc}
		if _, err := s.engine.RelocateCLB(c, dst); err != nil {
			return fmt.Errorf("rlm: moving %s CLB %v: %w", name, c, err)
		}
		for cell := 0; cell < fabric.CellsPerCLB; cell++ {
			d.Rebind(fabric.CellRef{Coord: c, Cell: cell}, fabric.CellRef{Coord: dst, Cell: cell})
		}
		s.publish(Event{Kind: CLBRelocated, Design: name, CLBFrom: c, CLBTo: dst})
	}
	d.Region = to
	if err := s.area.Move(s.regions[name], to); err != nil {
		return err
	}
	s.publish(Event{Kind: DesignMoved, Design: name, From: from, Region: to})
	return nil
}

// MoveStaged relocates a design like Move, but bounds the displacement of
// each stage to maxStep CLBs (Chebyshev distance), hopping through
// intermediate regions. The paper: "the relocation of a complete function
// may take place in several stages, to avoid an excessive increase in path
// delays during the relocation interval". The whole hop corridor is
// dry-run against the area book-keeping, by the same check as every other
// operation, before any frame is streamed: every intermediate region must be
// free, and a hop is refused with ErrQuarantined when it overlaps condemned
// logic space, ErrRegionBusy otherwise. A hop that fails physically is
// reported as "staged move via" that hop.
func (s *System) MoveStaged(name string, to fabric.Rect, maxStep int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := []planOp{{kind: opMoveStaged, name: name, region: to, maxStep: maxStep}}
	if _, err := s.checkOpsLocked(ops); err != nil {
		return err
	}
	return s.txLocked("move-staged", name, to, fmt.Sprintf("maxStep=%d", maxStep),
		func() error { return s.runOpLocked(ops[0]) })
}

// Recover restores the device to the tool's shadow copy of the
// configuration by streaming a full recovery bitstream through the
// configuration controller — the paper's failure-recovery path ("the
// program always keeps a complete copy of the current configuration,
// enabling system recovery in case of failure").
func (s *System) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return err
	}
	if err := s.fullRecoveryLocked(); err != nil {
		return err
	}
	s.publish(Event{Kind: Recovered})
	return nil
}

// fullRecoveryLocked streams the full recovery bitstream, every frame of the
// shadow, straight to the controller, and reports the same frames to the
// delivered-configuration observer. The stream bypasses the port, so the
// caller has drained the port's stream first (Recover awaits it, a rollback
// drains it in RecoveryWords and CompleteRestore). The view then rescans:
// after a partial recovery that never reached the device, the shadow already
// holds the pre-operation content, so adopting the restored frames declares
// nothing, while the view re-derived a rollback the device did not take.
func (s *System) fullRecoveryLocked() error {
	tool := s.engine.Tool
	updates := tool.ShadowUpdates()
	err := s.ctrl.Feed(bitstream.Partial(s.dev, updates)...)
	if err == nil {
		err = tool.Sync()
		if s.onDelivered != nil {
			s.onDelivered(updates)
		}
	}
	s.engine.RescanView()
	return err
}

// txLocked runs body as one transaction on the complete configuration copy:
// it arms a checkpoint, journals the intent, runs body, then harvests the
// stream and seals the commit (finishOpLocked), or rolls the device and
// book-keeping back and seals an abort. Either way it releases the
// checkpoint and ends with the quarantine sweep of the frames the retry
// ladder condemned, once the operation is sealed and its checkpoint
// released, so the sweep's evacuations and its health mini-op each arm
// their own on a sealed journal; an evacuation pass never sweeps, so a
// quarantine cannot recurse. A checkpoint or intent failure returns before
// body runs. Every mutating facade operation is one checkOpsLocked dry run
// plus one txLocked call whose body runs the checked ops with runOpLocked.
func (s *System) txLocked(op, design string, region fabric.Rect, detail string, body func() error) error {
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	if err := s.journalBeginLocked(op, design, region, detail); err != nil {
		s.releaseCheckpointLocked()
		return err
	}
	err := body()
	if err == nil {
		err = s.finishOpLocked()
	}
	if err != nil {
		s.restoreLocked(err)
		s.journalAbortLocked()
	}
	s.releaseCheckpointLocked()
	if !s.evacuating {
		s.quarantineSweepLocked()
	}
	return err
}

// checkpoint captures everything a rollback needs, all of it copy-on-write:
// the frame tool's armed checkpoint of the pre-operation configuration (the
// tool saves a pre-image only for each frame the operation actually writes),
// an undo-log epoch on the area manager, and a journal of inverse
// host-book-keeping ops that mutations append first-touch — so opening a
// checkpoint copies nothing, and its eventual size is proportional to the
// designs the operation touches, not to every resident design. At most one
// checkpoint is armed (System.cp; the tool panics on a second Arm), and it
// must be released exactly once when its operation ends, whichever way it
// ends.
type checkpoint struct {
	mark area.Mark
	// undo holds inverse host ops, applied in reverse on restore. saved
	// tracks designs whose mutable state is already journalled, so repeated
	// relocations of one design cost one clone per checkpoint.
	undo  []func(*System)
	saved map[*place.Design]bool
}

// designState is the per-design mutable state a relocation rewrites.
type designState struct {
	region   fabric.Rect
	cellOf   map[netlist.ID]fabric.CellRef
	sourceOf map[netlist.ID]fabric.NodeID
}

func (s *System) checkpointLocked() error {
	// Arm syncs the shadow (it lags behind designer-path writes until then)
	// and opens the tool's checkpoint; nothing is copied yet.
	if err := s.engine.Tool.Arm(); err != nil {
		return err
	}
	s.cp = &checkpoint{mark: s.area.Mark(), saved: map[*place.Design]bool{}}
	return nil
}

// noteUndoLocked journals an inverse host-book-keeping op into the armed
// checkpoint. No-op when no checkpoint is armed (engine-level callers manage
// their own recovery).
func (s *System) noteUndoLocked(fn func(*System)) {
	if s.cp != nil {
		s.cp.undo = append(s.cp.undo, fn)
	}
}

// noteDesignLocked journals a design's mutable state (region, cell and
// source tables) into the armed checkpoint, unless it has saved it already.
// This is the host-side counterpart of the frame checkpoint's pre-images:
// the tables are cloned on first touch, driven by the operations that
// actually rewrite them.
func (s *System) noteDesignLocked(d *place.Design) {
	cp := s.cp
	if cp == nil || cp.saved[d] {
		return
	}
	cp.saved[d] = true
	st := designState{
		region:   d.Region,
		cellOf:   make(map[netlist.ID]fabric.CellRef, len(d.CellOf)),
		sourceOf: make(map[netlist.ID]fabric.NodeID, len(d.SourceOf)),
	}
	for id, ref := range d.CellOf {
		st.cellOf[id] = ref
	}
	for id, node := range d.SourceOf {
		st.sourceOf[id] = node
	}
	cp.undo = append(cp.undo, func(*System) {
		d.Region = st.region
		d.CellOf = st.cellOf
		d.SourceOf = st.sourceOf
	})
}

// restoreLocked rolls the device and all book-keeping back to the armed
// checkpoint after a failed operation: the pre-images of exactly the frames
// the operation dirtied are streamed through the controller (the paper's
// recovery path, proportional to the change instead of the device), the
// area manager rewinds its undo log to the checkpoint's mark, and the host
// journal replays its inverse ops in reverse. The checkpoint itself stays
// armed — journal and dirty set emptied, mark kept — so one checkpoint can
// back several rollbacks; Defragment retries alternative plans against the
// same one. cause is reported on the event stream.
//
// A rollback restores configuration, not live state. The cell whose
// relocation failed still holds its state in its original, but a cell the
// operation had already relocated carried its flip-flop state on into the
// replica, and the pre-images bring back the original with stale state.
// ROADMAP item 2 replaces that part of the rollback with compensating
// relocations.
func (s *System) restoreLocked(cause error) {
	cp, tool := s.cp, s.engine.Tool
	// RecoveryWords syncs first, so designer-path writes (a half-placed
	// design) are part of the dirty set and cannot survive the rollback.
	words, wordsErr := tool.RecoveryWords()
	// The recovery stream bypasses the frame tool (it feeds the controller
	// directly), so the delivered-configuration observer is notified here
	// with the pre-images about to be restored — before CompleteRestore
	// drops them.
	var restoredFrames []bitstream.FrameUpdate
	if s.onDelivered != nil && wordsErr == nil && len(words) > 0 {
		for _, addr := range tool.DirtyFrames() {
			pre, _ := tool.Preimage(addr)
			restoredFrames = append(restoredFrames, bitstream.FrameUpdate{Addr: addr, Data: pre})
		}
	}
	// Both recovery feeds below bypass the port. RecoveryWords drained its
	// stream completely, so the port's worker is idle and the controller is
	// free.
	var feedErr error
	if wordsErr == nil && len(words) > 0 {
		feedErr = s.ctrl.Feed(words...)
		if feedErr == nil && s.onDelivered != nil {
			s.onDelivered(restoredFrames)
		}
	}
	tool.CompleteRestore()
	if wordsErr != nil || feedErr != nil {
		// The partial recovery stream could not be built or delivered.
		// The shadow now holds the pre-operation state (CompleteRestore
		// rolled it back host-side), so stream the FULL recovery bitstream
		// — the paper's belt-and-braces path — and surface the failure on
		// the event alongside the original cause.
		recErr := wordsErr
		if recErr == nil {
			recErr = feedErr
		}
		_ = s.fullRecoveryLocked()
		cause = fmt.Errorf("%w (partial recovery failed, full recovery streamed: %v)", cause, recErr)
	}
	// Area and host book-keeping rewind in place: Area() callers (e.g. a
	// scheduler driving this system) keep a valid pointer across rollbacks.
	s.area.Rewind(cp.mark)
	for i := len(cp.undo) - 1; i >= 0; i-- {
		cp.undo[i](s)
	}
	cp.undo = cp.undo[:0]
	clear(cp.saved)
	s.publish(Event{Kind: Recovered, Err: cause})
}

// releaseCheckpointLocked retires the armed checkpoint at the end of its
// operation (success or final failure): the frame tool disarms and drops its
// pre-images, the area mark is released, and nothing is armed any more.
// Safe after a restore — the checkpoint survives rollbacks so retry loops
// can reuse it — but called exactly once per checkpoint:
// area.Manager.Release is not idempotent.
func (s *System) releaseCheckpointLocked() {
	s.engine.Tool.Disarm()
	s.area.Release(s.cp.mark)
	s.cp = nil
}
