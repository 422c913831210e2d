package relocate

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/route"
)

// Errors returned by the engine's pre-checks.
var (
	// ErrRAMRelocation: LUT/RAM cells cannot be relocated on-line (paper
	// §2: the system would have to be stopped to ensure data coherency).
	ErrRAMRelocation = errors.New("relocate: LUT/RAM cells cannot be relocated on-line")
	// ErrRAMInColumn: LUT/RAMs must not lie in any column affected by a
	// relocation (a frame write would race their run-time contents).
	ErrRAMInColumn = errors.New("relocate: a LUT/RAM lies in a column affected by the relocation")
	// ErrDestinationBusy: the destination cell or its routing is occupied.
	ErrDestinationBusy = errors.New("relocate: destination cell is not free")
	// ErrUnsupported marks configurations outside the procedure's scope.
	ErrUnsupported = errors.New("relocate: unsupported cell configuration")
)

// Aux CLB cell assignment. The control constants sit in cells whose LUT
// truth table maps into a single configuration frame, so activating or
// deactivating a control is one atomic frame write.
const (
	auxCellOr    = 0 // OR gate: replicaCE = CE | ceCtl
	auxCellCe    = 1 // clock-enable control constant (atomic LUT frame)
	auxCellMux   = 2 // transfer multiplexer
	auxCellReloc = 3 // relocation control constant (atomic LUT frame)
)

// auxMuxLUT: out = I3 ? (I2 ? I1 : I0) : I1
//
//	I0 = original XQ, I1 = replica D value, I2 = CE signal, I3 = reloc ctl.
func auxMuxLUT() uint16 {
	var lut uint16
	for v := 0; v < 16; v++ {
		i0 := v&1 == 1
		i1 := v>>1&1 == 1
		i2 := v>>2&1 == 1
		i3 := v>>3&1 == 1
		out := i1
		if i3 && !i2 {
			out = i0
		}
		if out {
			lut |= 1 << v
		}
	}
	return lut
}

// Stats accumulates engine activity.
type Stats struct {
	CellsRelocated int
	CLBsRelocated  int
	NetsRelocated  int
	AuxCircuits    int
	FramesWritten  int
	PortSeconds    float64
	ClockCycles    int
	// PlanSeconds is cumulative host wall-clock spent planning and routing
	// relocations (the work the commit pipeline overlaps with shift-out).
	PlanSeconds float64
	// OverlappedOps counts relocations whose planning ran while a previous
	// operation's bitstream was still shifting out — the two-stage
	// pipeline's win; SerialFallbacks counts relocations whose execution
	// drained the stream at least once, because a write hit the frame
	// tool's stage gate (it restaged a frame an in-flight burst carries),
	// whether the relocation then succeeded or failed. In serial-commit mode
	// both stay zero.
	OverlappedOps   int
	SerialFallbacks int
	// Fault-tolerance layer counters (the facade's retry/quarantine/scrub
	// ladder). RetrySeconds and ScrubSeconds are the transport time spent
	// on re-delivery and on scrubbing. The port's meter charges that
	// traffic to classes of its own, so the foreground accounting
	// (PortSeconds, Elapsed, Cycles) stays bit-identical to a fault-free
	// twin's; the run-time manager's Stats reads the seconds from the
	// meter and the engine never writes them.
	FaultsDetected    int
	FaultRetries      int
	RetriesExhausted  int
	FramesQuarantined int
	DesignsEvacuated  int
	ScrubChecked      int
	ScrubRepairs      int
	RetrySeconds      float64
	ScrubSeconds      float64
	// Health lifecycle counters (the facade's self-healing layer): columns
	// marked suspect by the error-rate tracker, quarantine probes issued and
	// failed, and columns released back into service. ProbeSeconds is the
	// transport time spent probing, read from the meter like
	// RetrySeconds/ScrubSeconds.
	ColumnsSuspected    int
	Probes              int
	ProbeFailures       int
	QuarantinesReleased int
	ProbeSeconds        float64
}

// CellMove reports one completed cell relocation.
type CellMove struct {
	From, To fabric.CellRef
	Aux      fabric.Coord
	UsedAux  bool
	Frames   int
	Seconds  float64
	// MaxParallelDelayNs is the worst path delay while original and
	// replica connections were paralleled (paper: "the propagation delay
	// associated to the parallel interconnections shall be the longer of
	// the two paths").
	MaxParallelDelayNs float64
}

// Engine performs dynamic relocation through a configuration port.
type Engine struct {
	Dev  *fabric.Device
	Tool *FrameTool
	// Clock advances the application clock n cycles. The harness typically
	// steps a lock-step simulation here, injecting fresh inputs, so state
	// coherency is checked under live traffic. Nil = no clock model.
	Clock func(cycles int) error
	// AppClockHz converts port transport time into application cycles for
	// the waits between procedure steps.
	AppClockHz float64
	// MaxCyclesPerWait caps simulated cycles per wait point (simulation
	// speed; the real elapsed cycles are still accounted in Stats).
	MaxCyclesPerWait int
	// ForcePlainProcedure applies the plain two-phase procedure even to
	// gated-clock cells — the paper's NEGATIVE case ("the previous method
	// does not ensure that the CLB replica captures the correct state
	// information"). Ablation/testing only.
	ForcePlainProcedure bool

	Stats Stats

	view *view
	// router is the only router: every route takes it from FreeRouter,
	// which builds it on first use, so an engine that never routes (the
	// one Recover builds) never allocates its per-node arrays.
	router   *route.Router
	lastTick float64
}

// NewEngine builds an engine over a device and configuration port.
func NewEngine(dev *fabric.Device, port bitstream.Port) (*Engine, error) {
	tool, err := NewFrameTool(dev, port)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Dev:              dev,
		Tool:             tool,
		AppClockHz:       1e6,
		MaxCyclesPerWait: 8,
		view:             newView(dev),
	}
	// The tool hands every frame it adopts to the view, which re-derives
	// the bits that changed instead of rescanning the device per operation.
	tool.SetViewSink(e.view)
	return e, nil
}

// FreeRouter returns the engine's router reset to a fresh session, with
// Greedy at its default and every node the configuration memory shows in use
// blocked: the free routing resources. The first call builds the router. The
// router reads the occupancy view in place, so a write staged after this call
// shows through; every caller routes before it writes. A caller may block
// more nodes and set Greedy before it routes; the next call discards all of
// it, so no route depends on an earlier operation's search or negotiation
// state.
func (e *Engine) FreeRouter() *route.Router {
	e.view.refresh()
	if e.router == nil {
		e.router = route.NewRouter(e.Dev)
	}
	r := e.router
	r.Reset(e.view.used)
	r.Greedy = 0
	return r
}

// tick advances the application clock to cover the port time consumed since
// the last tick, with a minimum cycle count (the "> 2 CLK" / "> 1 CLK"
// waits of the Fig. 4 flow). Pending batched frames flush first: a wait
// point is only meaningful once the configuration stream that precedes it
// has been delivered.
func (e *Engine) tick(minCycles int) error {
	if err := e.Tool.Flush(); err != nil {
		return err
	}
	now := e.Tool.Port().Elapsed()
	cycles := int((now - e.lastTick) * e.AppClockHz)
	e.lastTick = now
	if cycles < minCycles {
		cycles = minCycles
	}
	e.Stats.ClockCycles += cycles
	if e.MaxCyclesPerWait > 0 && cycles > e.MaxCyclesPerWait {
		cycles = e.MaxCyclesPerWait
	}
	if e.Clock != nil {
		return e.Clock(cycles)
	}
	return nil
}

// LastTick returns the port-time cursor of the wait-point accounting — part
// of the state the journal persists.
func (e *Engine) LastTick() float64 { return e.lastTick }

// RestoreAccounting overwrites the engine's cumulative statistics, the frame
// tool's frame count and the tick cursor. Journal recovery uses it (together
// with the port meter's Restore) to make a recovered system's accounting
// bit-identical to a never-crashed twin's: the physical reconciliation
// traffic is reported separately, not folded into the restored counters.
func (e *Engine) RestoreAccounting(st Stats, lastTick float64) {
	e.Stats = st
	e.Tool.frames = st.FramesWritten
	e.lastTick = lastTick
}

// inputPlan describes one original input pin to be paralleled.
type inputPlan struct {
	driver    fabric.NodeID   // terminal source of the net
	oldChain  []fabric.NodeID // driver -> original pin
	selfFeed  bool            // driver is the original cell's own output
	replicaIn fabric.NodeID   // replica pin node
	newPath   []fabric.NodeID
}

// cellPlan is the fully routed plan for one cell relocation.
type cellPlan struct {
	from, to fabric.CellRef
	cfg      fabric.CellConfig
	needsAux bool
	aux      fabric.Coord

	inputs []inputPlan

	// Output paralleling: per original output, the terminal sinks and the
	// new paths from the replica output.
	outSinks map[fabric.NodeID][]terminalSink // orig output node -> sinks
	outTree  map[fabric.NodeID][]fabric.NodeID
	newOut   map[fabric.NodeID][][]fabric.NodeID // replica output node -> paths

	// Aux wiring.
	auxPaths   [][]fabric.NodeID // enabled at step 1, freed at step 6
	ceNewPath  []fabric.NodeID   // CE net -> replica CE pin (enabled step 5)
	bxNewPath  []fabric.NodeID   // D net -> replica BX (DFromBX cells)
	orToCE     []fabric.NodeID   // OR output -> replica CE (step 1)
	muxToBX    []fabric.NodeID   // MUX output -> replica BX (step 1)
	ceDriver   fabric.NodeID
	ceOldChain []fabric.NodeID
	bxOldChain []fabric.NodeID
}

// RelocateCell relocates one active logic cell, choosing the procedure
// variant by the cell's design style (paper §2): combinational and
// free-running synchronous cells use the plain two-phase procedure;
// gated-clock and latch cells use the auxiliary relocation circuit.
//
// The call is the second stage of the commit pipeline (unless the frame
// tool is Serial, which harvests every burst at its Flush): the previous
// operation's partial bitstream may still be shifting out while this cell's
// relocation is planned and routed (pure host compute against the
// stage-time-current view), and execution overlaps the remaining shift. A
// write to a frame that an in-flight burst still carries drains the stream
// first, at the frame tool's stage gate, so configuration memory stays
// bit-identical to fully serial delivery. A transport error of a stream left
// in flight by this call surfaces at the next Tool.AwaitStream (the run-time
// manager harvests one before releasing each operation's checkpoint).
func (e *Engine) RelocateCell(from, to fabric.CellRef) (*CellMove, error) {
	if err := e.Tool.Flush(); err != nil {
		return nil, err
	}
	start := e.Tool.Port().Elapsed()
	frames0 := e.Tool.FramesWritten()

	overlapped := e.Tool.StreamInFlight() // planning overlaps that stream
	planStart := time.Now()
	plan, err := e.plan(from, to)
	if err != nil {
		return nil, err
	}
	if err := e.checkRAMColumns(plan); err != nil {
		return nil, err
	}
	e.Stats.PlanSeconds += time.Since(planStart).Seconds()
	if overlapped {
		e.Stats.OverlappedOps++
	}
	drains := e.Tool.gateDrains
	err = e.execute(plan)
	if e.Tool.gateDrains != drains {
		e.Stats.SerialFallbacks++
	}
	if err != nil {
		return nil, err
	}
	e.Stats.CellsRelocated++
	if plan.needsAux {
		e.Stats.AuxCircuits++
	}
	mv := &CellMove{
		From:    from,
		To:      to,
		Aux:     plan.aux,
		UsedAux: plan.needsAux,
		Frames:  e.Tool.FramesWritten() - frames0,
		Seconds: e.Tool.Port().Elapsed() - start,
	}
	mv.MaxParallelDelayNs = plan.maxParallelDelay(e.Dev)
	e.Stats.FramesWritten = e.Tool.FramesWritten()
	e.Stats.PortSeconds = e.Tool.Port().Elapsed()
	return mv, nil
}

func (p *cellPlan) maxParallelDelay(dev *fabric.Device) float64 {
	max := 0.0
	for _, paths := range p.newOut {
		for _, path := range paths {
			if d := route.PathDelayNs(dev, path); d > max {
				max = d
			}
		}
	}
	return max
}

// plan inspects the configuration and routes every new connection the
// procedure needs, using free resources only.
func (e *Engine) plan(from, to fabric.CellRef) (*cellPlan, error) {
	e.view.refresh()
	dev := e.Dev
	cfg := dev.ReadCell(from)
	if !cfg.InUse() {
		return nil, fmt.Errorf("%w: source cell %v is empty", ErrUnsupported, from)
	}
	if cfg.RAM {
		return nil, fmt.Errorf("%w (%v)", ErrRAMRelocation, from)
	}
	if cfg.CEInv {
		return nil, fmt.Errorf("%w: CE inversion (%v)", ErrUnsupported, from)
	}
	if err := e.destinationFree(to); err != nil {
		return nil, err
	}

	p := &cellPlan{
		from: from, to: to, cfg: cfg,
		needsAux: cfg.FF && cfg.CEUsed && !e.ForcePlainProcedure,
		outSinks: map[fabric.NodeID][]terminalSink{},
		outTree:  map[fabric.NodeID][]fabric.NodeID{},
		newOut:   map[fabric.NodeID][][]fabric.NodeID{},
	}

	// --- inputs ---------------------------------------------------------
	origOutX := dev.NodeIDAt(from.Coord, fabric.LocalOutX(from.Cell))
	origOutXQ := dev.NodeIDAt(from.Coord, fabric.LocalOutXQ(from.Cell))

	addInput := func(local int) error {
		if dev.PIPMask(from.Coord, local) == 0 {
			return nil
		}
		drv, chain, err := e.view.terminalDriver(from.Coord, local)
		if err != nil {
			return err
		}
		// Self-feedback inputs (the cell reading its own outputs) are
		// paralleled from the ORIGINAL's output in phase 1 — that is how
		// the replica acquires the same state — and handed over to the
		// replica's own output during phase-2 output paralleling.
		_, self := remapNode(drv, p, dev)
		replicaLocal := replicaPinLocal(local, to.Cell)
		p.inputs = append(p.inputs, inputPlan{
			driver:    drv,
			oldChain:  chain,
			selfFeed:  self,
			replicaIn: dev.NodeIDAt(to.Coord, replicaLocal),
		})
		return nil
	}
	for k := 0; k < fabric.LUTInputs; k++ {
		if err := addInput(fabric.LocalPinI(from.Cell, k)); err != nil {
			return nil, err
		}
	}

	// D (BX) and CE nets.
	if cfg.DFromBX {
		_, chain, err := e.view.terminalDriver(from.Coord, fabric.LocalPinBX(from.Cell))
		if err != nil {
			return nil, err
		}
		p.bxOldChain = chain
	}
	if cfg.CEUsed {
		drv, chain, err := e.view.terminalDriver(from.Coord, fabric.LocalPinCE(from.Cell))
		if err != nil {
			return nil, err
		}
		d, _ := remapNode(drv, p, dev)
		p.ceDriver = d
		p.ceOldChain = chain
	}

	// --- outputs ---------------------------------------------------------
	for _, out := range []fabric.NodeID{origOutX, origOutXQ} {
		sinks, tree := e.view.forwardCone(out)
		var kept []terminalSink
		for _, s := range sinks {
			// Self-feedback sinks (the cell's own pins) are handled by the
			// input remap, not by output paralleling.
			if c, local, ok := dev.SplitNode(s.node); ok && c == from.Coord {
				kind, _, idx := fabric.DecodeLocal(local)
				if (kind == fabric.KindPinI && idx/fabric.LUTInputs == from.Cell) ||
					(kind == fabric.KindPinBX && idx == from.Cell) ||
					(kind == fabric.KindPinCE && idx == from.Cell) {
					continue
				}
			}
			kept = append(kept, s)
		}
		p.outSinks[out] = kept
		p.outTree[out] = tree
	}

	// --- aux placement ----------------------------------------------------
	if p.needsAux {
		aux, err := e.view.findFreeCLB(to.Coord, from.Coord, to.Coord)
		if err != nil {
			return nil, err
		}
		p.aux = aux
	}

	// --- route everything with free resources only ------------------------
	if err := e.routePlan(p); err != nil {
		return nil, err
	}
	return p, nil
}

// replicaPinLocal maps a pin local id of the source cell to the equivalent
// pin of the destination cell.
func replicaPinLocal(local, toCell int) int {
	kind, _, idx := fabric.DecodeLocal(local)
	switch kind {
	case fabric.KindPinI:
		return fabric.LocalPinI(toCell, idx%fabric.LUTInputs)
	case fabric.KindPinBX:
		return fabric.LocalPinBX(toCell)
	case fabric.KindPinCE:
		return fabric.LocalPinCE(toCell)
	}
	return local
}

// destinationFree verifies the target cell, its pins and outputs are unused.
func (e *Engine) destinationFree(to fabric.CellRef) error {
	dev := e.Dev
	if dev.ReadCell(to).InUse() {
		return fmt.Errorf("%w: %v configured", ErrDestinationBusy, to)
	}
	locals := []int{
		fabric.LocalOutX(to.Cell), fabric.LocalOutXQ(to.Cell),
		fabric.LocalPinBX(to.Cell), fabric.LocalPinCE(to.Cell),
	}
	for k := 0; k < fabric.LUTInputs; k++ {
		locals = append(locals, fabric.LocalPinI(to.Cell, k))
	}
	for _, l := range locals {
		if e.view.used[dev.NodeIDAt(to.Coord, l)] {
			return fmt.Errorf("%w: node %v/%d in use", ErrDestinationBusy, to.Coord, l)
		}
		if fabric.IsLocalSink(l) && dev.PIPMask(to.Coord, l) != 0 {
			return fmt.Errorf("%w: pin %v/%d has enabled PIPs", ErrDestinationBusy, to.Coord, l)
		}
	}
	return nil
}

// netRole says where a replica-connection net's routed paths go in the plan.
type netRole uint8

const (
	roleInput   netRole = iota // an input parallel: cellPlan.inputs[index]
	roleAux                    // aux wiring, recorded in auxPaths only
	roleMuxToBX                // aux wiring from the mux to the replica BX pin
	roleOrToCE                 // aux wiring from the OR to the replica CE pin
	roleBX                     // the replica's final BX net
	roleCE                     // the replica's final CE net
	roleOut                    // an output parallel from a replica output
)

// netUse tags one net of a plan's routing request with its role.
type netUse struct {
	role  netRole
	index int
}

// routePlan routes the parallel input paths, aux wiring and output paths.
// The engine's router is reused across relocations — Reset is O(1) — so
// routing allocations stay proportional to the paths found, not to the
// device.
func (e *Engine) routePlan(p *cellPlan) error {
	dev := e.Dev
	r := e.FreeRouter()
	// The replica's own outputs are legal sources even though planning
	// marked nothing there; they are free by destinationFree.
	replOutX := dev.NodeIDAt(p.to.Coord, fabric.LocalOutX(p.to.Cell))
	replOutXQ := dev.NodeIDAt(p.to.Coord, fabric.LocalOutXQ(p.to.Cell))

	var nets []route.Net
	var uses []netUse
	add := func(use netUse, n route.Net) {
		nets = append(nets, n)
		uses = append(uses, use)
	}

	// Input parallels (I pins).
	for i := range p.inputs {
		in := &p.inputs[i]
		add(netUse{role: roleInput, index: i},
			route.Net{Name: "in", Source: in.driver, Sinks: []fabric.NodeID{in.replicaIn}})
	}

	if p.needsAux {
		muxI := func(k int) fabric.NodeID { return dev.NodeIDAt(p.aux, fabric.LocalPinI(auxCellMux, k)) }
		orI := func(k int) fabric.NodeID { return dev.NodeIDAt(p.aux, fabric.LocalPinI(auxCellOr, k)) }
		muxOut := dev.NodeIDAt(p.aux, fabric.LocalOutX(auxCellMux))
		orOut := dev.NodeIDAt(p.aux, fabric.LocalOutX(auxCellOr))
		ceConst := dev.NodeIDAt(p.aux, fabric.LocalOutX(auxCellCe))
		relConst := dev.NodeIDAt(p.aux, fabric.LocalOutX(auxCellReloc))
		origXQ := dev.NodeIDAt(p.from.Coord, fabric.LocalOutXQ(p.from.Cell))

		// Replica D value: own comb output, or the (possibly remapped)
		// BX net driver for DFromBX cells.
		replD := replOutX
		if p.cfg.DFromBX {
			replD, _ = remapNode(p.bxOldChain[0], p, dev)
		}

		aux := netUse{role: roleAux}
		add(aux, route.Net{Name: "aux_origXQ", Source: origXQ, Sinks: []fabric.NodeID{muxI(0)}})
		add(aux, route.Net{Name: "aux_replD", Source: replD, Sinks: []fabric.NodeID{muxI(1)}})
		add(aux, route.Net{Name: "aux_ce", Source: p.ceDriver, Sinks: []fabric.NodeID{muxI(2), orI(0)}})
		add(aux, route.Net{Name: "aux_rel", Source: relConst, Sinks: []fabric.NodeID{muxI(3)}})
		add(aux, route.Net{Name: "aux_cec", Source: ceConst, Sinks: []fabric.NodeID{orI(1)}})
		add(netUse{role: roleMuxToBX}, route.Net{Name: "aux_mux_bx", Source: muxOut,
			Sinks: []fabric.NodeID{dev.NodeIDAt(p.to.Coord, fabric.LocalPinBX(p.to.Cell))}})
		add(netUse{role: roleOrToCE}, route.Net{Name: "aux_or_ce", Source: orOut,
			Sinks: []fabric.NodeID{dev.NodeIDAt(p.to.Coord, fabric.LocalPinCE(p.to.Cell))}})
		// Deferred: the real CE net to the replica CE pin (step 5).
		add(netUse{role: roleCE}, route.Net{Name: "ce_final", Source: p.ceDriver,
			Sinks: []fabric.NodeID{dev.NodeIDAt(p.to.Coord, fabric.LocalPinCE(p.to.Cell))}})
		if p.cfg.DFromBX {
			drv, _ := remapNode(p.bxOldChain[0], p, dev)
			add(netUse{role: roleBX}, route.Net{Name: "bx_final", Source: drv,
				Sinks: []fabric.NodeID{dev.NodeIDAt(p.to.Coord, fabric.LocalPinBX(p.to.Cell))}})
		}
	} else {
		// Plain two-phase: BX and CE nets parallel directly.
		if p.cfg.DFromBX {
			drv, _ := remapNode(p.bxOldChain[0], p, dev)
			add(netUse{role: roleBX}, route.Net{Name: "bx", Source: drv,
				Sinks: []fabric.NodeID{dev.NodeIDAt(p.to.Coord, fabric.LocalPinBX(p.to.Cell))}})
		}
		if p.cfg.CEUsed {
			add(netUse{role: roleCE}, route.Net{Name: "ce", Source: p.ceDriver,
				Sinks: []fabric.NodeID{dev.NodeIDAt(p.to.Coord, fabric.LocalPinCE(p.to.Cell))}})
		}
	}

	// Output parallels. Self-feedback replica pins become extra sinks of
	// the corresponding replica output.
	selfExtra := map[fabric.NodeID][]fabric.NodeID{}
	for i := range p.inputs {
		if p.inputs[i].selfFeed {
			selfExtra[p.inputs[i].driver] = append(selfExtra[p.inputs[i].driver], p.inputs[i].replicaIn)
		}
	}
	outPairs := []struct{ orig, repl fabric.NodeID }{
		{dev.NodeIDAt(p.from.Coord, fabric.LocalOutX(p.from.Cell)), replOutX},
		{dev.NodeIDAt(p.from.Coord, fabric.LocalOutXQ(p.from.Cell)), replOutXQ},
	}
	for _, op := range outPairs {
		var sk []fabric.NodeID
		for _, s := range p.outSinks[op.orig] {
			sk = append(sk, s.node)
		}
		sk = append(sk, selfExtra[op.orig]...)
		if len(sk) == 0 {
			continue
		}
		add(netUse{role: roleOut}, route.Net{Name: "out", Source: op.repl, Sinks: sk})
	}

	routed, err := r.RouteDisjoint(nets)
	if err != nil {
		return fmt.Errorf("relocate: routing replica connections: %w", err)
	}

	// Distribute routed paths back into the plan.
	for i, rn := range routed {
		switch u := uses[i]; u.role {
		case roleInput:
			in := &p.inputs[u.index]
			in.newPath = rn.Paths[in.replicaIn]
		case roleAux:
			p.auxPaths = append(p.auxPaths, pathsOf(rn)...)
		case roleMuxToBX:
			p.muxToBX = rn.Paths[rn.Sinks[0]]
			p.auxPaths = append(p.auxPaths, pathsOf(rn)...)
		case roleOrToCE:
			p.orToCE = rn.Paths[rn.Sinks[0]]
			p.auxPaths = append(p.auxPaths, pathsOf(rn)...)
		case roleBX:
			p.bxNewPath = rn.Paths[rn.Sinks[0]]
		case roleCE:
			p.ceNewPath = rn.Paths[rn.Sinks[0]]
		case roleOut:
			for _, s := range rn.Sinks {
				p.newOut[rn.Source] = append(p.newOut[rn.Source], rn.Paths[s])
			}
		}
	}
	return nil
}

func pathsOf(rn route.RoutedNet) [][]fabric.NodeID {
	var out [][]fabric.NodeID
	for _, s := range rn.Sinks {
		out = append(out, rn.Paths[s])
	}
	return out
}

func remapNode(n fabric.NodeID, p *cellPlan, dev *fabric.Device) (fabric.NodeID, bool) {
	switch n {
	case dev.NodeIDAt(p.from.Coord, fabric.LocalOutX(p.from.Cell)):
		return dev.NodeIDAt(p.to.Coord, fabric.LocalOutX(p.to.Cell)), true
	case dev.NodeIDAt(p.from.Coord, fabric.LocalOutXQ(p.from.Cell)):
		return dev.NodeIDAt(p.to.Coord, fabric.LocalOutXQ(p.to.Cell)), true
	}
	return n, false
}

// checkRAMColumns rejects relocations whose frame writes would touch a
// column containing a LUT/RAM (paper §2): a column rewrite would corrupt
// live distributed RAM. The error wraps ErrRAMInColumn and names the first
// such cell found.
func (e *Engine) checkRAMColumns(p *cellPlan) error {
	cols := map[int]bool{p.from.Col: true, p.to.Col: true}
	if p.needsAux {
		cols[p.aux.Col] = true
	}
	noteAll := func(paths ...[]fabric.NodeID) {
		for _, path := range paths {
			for _, n := range path {
				if c, _, ok := e.Dev.SplitNode(n); ok {
					cols[c.Col] = true
				}
			}
		}
	}
	for _, in := range p.inputs {
		noteAll(in.newPath, in.oldChain)
	}
	noteAll(p.ceNewPath, p.bxNewPath, p.orToCE, p.muxToBX, p.ceOldChain, p.bxOldChain)
	for _, paths := range p.newOut {
		noteAll(paths...)
	}
	for _, tree := range p.outTree {
		noteAll(tree)
	}
	for _, ps := range p.auxPaths {
		noteAll(ps)
	}
	for col := range cols {
		for row := 0; row < e.Dev.Rows; row++ {
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				ref := fabric.CellRef{Coord: fabric.Coord{Row: row, Col: col}, Cell: cell}
				if cc := e.Dev.ReadCell(ref); cc.RAM && cc.InUse() {
					return fmt.Errorf("%w: RAM at %v, column %d", ErrRAMInColumn, ref, col)
				}
			}
		}
	}
	return nil
}
