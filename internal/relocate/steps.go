package relocate

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/fabric"
)

// execute runs the Fig. 4 procedure for a planned cell relocation. Every
// action is a partial-reconfiguration frame write; application clock cycles
// elapse between steps via e.tick. The whole procedure runs inside one
// coalescing batch: frame writes between consecutive wait points stream as a
// single sync/CRC-bracketed partial bitstream (ticks flush, so the paper's
// ordering of configuration actions against clock edges is preserved).
func (e *Engine) execute(p *cellPlan) error {
	return e.Tool.InBatch(func() error {
		if p.needsAux {
			return e.executeGated(p)
		}
		return e.executePlain(p)
	})
}

// executePlain is the two-phase procedure of Fig. 2 for combinational cells
// and synchronous free-running-clock cells.
func (e *Engine) executePlain(p *cellPlan) error {
	// Phase 1: copy the internal configuration and parallel the inputs.
	replCfg := p.cfg
	if err := e.Tool.WriteCell(p.to, replCfg); err != nil {
		return err
	}
	if err := e.enableInputParallels(p); err != nil {
		return err
	}
	if p.cfg.DFromBX {
		if err := e.Tool.SetPath(p.bxNewPath, true); err != nil {
			return err
		}
	}
	if p.cfg.CEUsed {
		if err := e.Tool.SetPath(p.ceNewPath, true); err != nil {
			return err
		}
	}
	// The replica flip-flops acquire the state from the paralleled inputs.
	if err := e.tick(2); err != nil {
		return err
	}
	// Phase 2: parallel the outputs, overlap for at least one clock, then
	// disconnect the original — outputs first, inputs last.
	if err := e.enableOutputParallels(p); err != nil {
		return err
	}
	if err := e.tick(1); err != nil {
		return err
	}
	if err := e.disconnectOriginalOutputs(p); err != nil {
		return err
	}
	if err := e.disconnectOriginalInputs(p); err != nil {
		return err
	}
	return e.tick(0)
}

// executeGated is the full Fig. 4 flow with the auxiliary relocation
// circuit of Fig. 3, used for gated-clock FFs and asynchronous latches.
func (e *Engine) executeGated(p *cellPlan) error {
	// Step 1: "Connect signals to the auxiliary relocation circuit; place
	// CLB input signals in parallel."
	// 1a. Configure the aux CLB: OR gate, transfer mux, two inactive
	//     control constants.
	if err := e.Tool.WriteCell(fabric.CellRef{Coord: p.aux, Cell: auxCellOr},
		fabric.CellConfig{Used: true, LUT: fabric.ExpandLUT(fabric.LUTOr2, 2)}); err != nil {
		return err
	}
	if err := e.Tool.WriteCell(fabric.CellRef{Coord: p.aux, Cell: auxCellMux},
		fabric.CellConfig{Used: true, LUT: auxMuxLUT()}); err != nil {
		return err
	}
	if err := e.Tool.WriteCell(fabric.CellRef{Coord: p.aux, Cell: auxCellCe},
		fabric.CellConfig{Used: true, LUT: fabric.LUTConst0}); err != nil {
		return err
	}
	if err := e.Tool.WriteCell(fabric.CellRef{Coord: p.aux, Cell: auxCellReloc},
		fabric.CellConfig{Used: true, LUT: fabric.LUTConst0}); err != nil {
		return err
	}
	// 1b. Copy the internal configuration into the replica, with D taken
	//     from BX (the mux output) and CE from the pin (the OR output).
	replCfg := p.cfg
	replCfg.DFromBX = true
	replCfg.CEUsed = true
	if err := e.Tool.WriteCell(p.to, replCfg); err != nil {
		return err
	}
	// 1c. Enable the aux wiring and parallel the inputs.
	for _, path := range p.auxPaths {
		if err := e.Tool.SetPath(path, true); err != nil {
			return err
		}
	}
	if err := e.enableInputParallels(p); err != nil {
		return err
	}

	// Step 2: "Activate relocation and clock enable control" — two atomic
	// LUT rewrites driven through the reconfiguration memory.
	if err := e.setAuxConst(p.aux, auxCellReloc, true); err != nil {
		return err
	}
	if err := e.setAuxConst(p.aux, auxCellCe, true); err != nil {
		return err
	}

	// "> 2 CLK pulse": the replica storage element captures the original's
	// state through the mux (CE inactive) or tracks the same update (CE
	// active).
	if err := e.tick(3); err != nil {
		return err
	}

	// Step 3: "Deactivate clock enable control."
	if err := e.setAuxConst(p.aux, auxCellCe, false); err != nil {
		return err
	}

	// Step 4: "Connect the clock enable inputs of both CLBs": parallel the
	// real CE net onto the replica CE pin (equal to the OR output), then
	// drop the OR path.
	if err := e.Tool.SetPath(p.ceNewPath, true); err != nil {
		return err
	}
	if err := e.freeChain(p.orToCE); err != nil {
		return err
	}

	// Step 5: "Deactivate relocation control": the mux now passes the
	// replica's own D value.
	if err := e.setAuxConst(p.aux, auxCellReloc, false); err != nil {
		return err
	}

	// Step 6: "Disconnect all the auxiliary relocation circuit signals."
	// 6a. Move the replica's D source off the mux: for LUT-fed cells flip
	//     DFromBX back (the LUT output equals the mux output now); for
	//     BX-fed cells parallel the real net first.
	if p.cfg.DFromBX {
		if err := e.Tool.SetPath(p.bxNewPath, true); err != nil {
			return err
		}
	} else {
		final := p.cfg
		if err := e.Tool.WriteCell(p.to, finalGatedConfig(final)); err != nil {
			return err
		}
	}
	if err := e.freeChain(p.muxToBX); err != nil {
		return err
	}
	// 6b. Free the remaining aux wiring and the aux CLB itself.
	for _, path := range p.auxPaths {
		if err := e.freeChain(path); err != nil {
			return err
		}
	}
	for cell := 0; cell < fabric.CellsPerCLB; cell++ {
		if err := e.Tool.WriteCell(fabric.CellRef{Coord: p.aux, Cell: cell}, fabric.CellConfig{}); err != nil {
			return err
		}
	}

	// Step 7: "Place CLB outputs in parallel."
	if err := e.enableOutputParallels(p); err != nil {
		return err
	}

	// "> 1 CLK pulse" of overlap.
	if err := e.tick(2); err != nil {
		return err
	}

	// Step 8: "Disconnect the original CLB outputs" then
	// Step 9: "Disconnect the original CLB inputs."
	if err := e.disconnectOriginalOutputs(p); err != nil {
		return err
	}
	if err := e.disconnectOriginalInputs(p); err != nil {
		return err
	}
	return e.tick(0)
}

// finalGatedConfig is the replica's end-state configuration for a cell whose
// D comes from its own LUT.
func finalGatedConfig(orig fabric.CellConfig) fabric.CellConfig {
	out := orig
	out.DFromBX = false
	return out
}

// setAuxConst rewrites a control constant cell's LUT. The constant cells
// are placed so the rewrite is a single frame — one atomic configuration
// action, exactly "driven through the reconfiguration memory".
func (e *Engine) setAuxConst(aux fabric.Coord, cell int, on bool) error {
	lut := fabric.LUTConst0
	if on {
		lut = fabric.LUTConst1
	}
	return e.Tool.WriteCell(fabric.CellRef{Coord: aux, Cell: cell},
		fabric.CellConfig{Used: true, LUT: lut})
}

// enableInputParallels turns on the replica-side copies of every input net
// (source-side PIPs first, so wires are always driven before pins attach).
func (e *Engine) enableInputParallels(p *cellPlan) error {
	for _, in := range p.inputs {
		if err := e.Tool.SetPath(in.newPath, true); err != nil {
			return err
		}
	}
	return nil
}

// enableOutputParallels connects the replica outputs in parallel with the
// original's to every terminal sink (phase 2 of Fig. 2).
func (e *Engine) enableOutputParallels(p *cellPlan) error {
	for _, src := range slices.Sorted(maps.Keys(p.newOut)) {
		for _, path := range p.newOut[src] {
			if err := e.Tool.SetPath(path, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// disconnectOriginalOutputs drops the original's output connections: first
// the terminal-sink PIPs (each sink keeps its replica-side driver), then the
// old distribution tree.
func (e *Engine) disconnectOriginalOutputs(p *cellPlan) error {
	// Phase-1 self-feedback parallels hang off the original's outputs; the
	// replica pins now also have replica-side drivers, so the whole
	// original-side path goes away (sink hop first).
	for _, in := range p.inputs {
		if in.selfFeed {
			if err := e.freeChain(in.newPath); err != nil {
				return err
			}
		}
	}
	for _, orig := range slices.Sorted(maps.Keys(p.outSinks)) {
		if err := e.releaseCone(p.outSinks[orig], p.outTree[orig]); err != nil {
			return err
		}
	}
	return nil
}

// releaseCone disables a forward cone's PIPs: each terminal sink's hop, in
// order, then every enabled PIP between two tree nodes, in Fanout order.
func (e *Engine) releaseCone(sinks []terminalSink, tree []fabric.NodeID) error {
	for _, s := range sinks {
		if err := e.Tool.SetPIP(s.lastSrc, s.node, false); err != nil {
			return err
		}
	}
	inTree := map[fabric.NodeID]bool{}
	for _, n := range tree {
		inTree[n] = true
	}
	for _, n := range tree {
		for edge := range e.Dev.Fanout(n) {
			if inTree[edge.Sink] && e.Dev.PIPMask(edge.SinkTile, edge.SinkLocal)>>edge.Bit&1 == 1 {
				if err := e.Tool.SetPIP(n, edge.Sink, false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// disconnectOriginalInputs drops the original's input connections (freeing
// the exclusive suffix of each input net) and clears the original cell,
// returning it to the pool of free resources.
func (e *Engine) disconnectOriginalInputs(p *cellPlan) error {
	free := func(chain []fabric.NodeID) error {
		if len(chain) == 0 {
			return nil
		}
		// The retiring pin's own PIPs always go away (even when the wire
		// feeding it is shared with other sinks and must stay).
		if err := e.Tool.ClearSinkPIPs(chain[len(chain)-1]); err != nil {
			return err
		}
		suffix := e.view.exclusiveSuffix(chain)
		return e.freeChain(suffix)
	}
	for _, in := range p.inputs {
		if err := free(in.oldChain); err != nil {
			return err
		}
	}
	if err := free(p.bxOldChain); err != nil {
		return err
	}
	if err := free(p.ceOldChain); err != nil {
		return err
	}
	return e.Tool.WriteCell(p.from, fabric.CellConfig{})
}

// freeChain disables the PIPs along a chain from the sink side backwards,
// so no floating wire is ever left feeding a live pin.
func (e *Engine) freeChain(chain []fabric.NodeID) error {
	for i := len(chain) - 1; i >= 1; i-- {
		if err := e.Tool.SetPIP(chain[i-1], chain[i], false); err != nil {
			return err
		}
	}
	return nil
}

// RelocateCLB relocates every active cell of a CLB to the same cell indices
// of the destination CLB, one cell at a time ("CLBs relocation is performed
// individually").
func (e *Engine) RelocateCLB(from, to fabric.Coord) ([]*CellMove, error) {
	var moves []*CellMove
	for cell := 0; cell < fabric.CellsPerCLB; cell++ {
		ref := fabric.CellRef{Coord: from, Cell: cell}
		if !e.Dev.ReadCell(ref).InUse() {
			continue
		}
		mv, err := e.RelocateCell(ref, fabric.CellRef{Coord: to, Cell: cell})
		if err != nil {
			return moves, fmt.Errorf("relocate: CLB %v cell %d: %w", from, cell, err)
		}
		moves = append(moves, mv)
	}
	e.Stats.CLBsRelocated++
	return moves, nil
}

// ReleaseTree disables every enabled PIP in the forward cone of a source
// node (terminal sink hops first), returning the routing to the free pool.
// The tool uses it to decommission a whole function's nets. The view tracks
// each PIP write incrementally, so releasing a tree costs O(tree), not
// O(device).
func (e *Engine) ReleaseTree(src fabric.NodeID) error {
	e.view.refresh()
	return e.releaseCone(e.view.forwardCone(src))
}

// ConeNodes returns the forward cone of a source as a flat node set: every
// tree node plus every terminal sink (pins and pads), read from the
// configuration memory without touching it. The facade uses it to compute a
// design's current fabric footprint before a translation-based relocation.
func (e *Engine) ConeNodes(src fabric.NodeID) []fabric.NodeID {
	e.view.refresh()
	sinks, tree := e.view.forwardCone(src)
	out := make([]fabric.NodeID, 0, len(tree)+len(sinks))
	out = append(out, tree...)
	for _, s := range sinks {
		out = append(out, s.node)
	}
	return out
}

// ClearCell zeroes a cell's configuration through the port.
func (e *Engine) ClearCell(ref fabric.CellRef) error {
	return e.Tool.WriteCell(ref, fabric.CellConfig{})
}

// ClearPad disables a pad through the port.
func (e *Engine) ClearPad(pad fabric.PadRef) error {
	return e.Tool.WritePadConfig(pad, fabric.PadConfig{})
}
