package sim

import (
	"fmt"

	"repro/internal/fabric"
)

// FabricSim executes the configured device cycle by cycle. Behaviour comes
// straight from the configuration memory: cells, PIPs and pads are re-derived
// (incrementally) whenever frames change, so partial reconfiguration acts on
// the running circuit exactly as it does in silicon.
type FabricSim struct {
	dev *fabric.Device
	dv  *derived

	// padIn holds externally driven input pad values.
	padIn map[fabric.PadRef]Val
	// x caches combinational outputs per active cell; q holds storage
	// element state; ram holds distributed-RAM contents.
	x   map[fabric.CellRef]Val
	q   map[fabric.CellRef]Val
	ram map[fabric.CellRef][16]Val

	active    []fabric.CellRef
	activeGen uint64
	settleCap int
}

// NewFabricSim builds a simulator over a device.
func NewFabricSim(dev *fabric.Device) *FabricSim {
	s := &FabricSim{
		dev:   dev,
		dv:    newDerived(dev),
		padIn: map[fabric.PadRef]Val{},
		x:     map[fabric.CellRef]Val{},
		q:     map[fabric.CellRef]Val{},
		ram:   map[fabric.CellRef][16]Val{},
	}
	s.syncActive(true)
	return s
}

// Device returns the simulated device.
func (s *FabricSim) Device() *fabric.Device { return s.dev }

// syncActive refreshes the derived view and the active cell list; newly
// configured storage elements power up in their Init state, cells that
// remain configured keep their state across reconfiguration (partial
// reconfiguration does not pulse GSR — the property the relocation
// procedure depends on).
func (s *FabricSim) syncActive(force bool) {
	gen := s.dev.Generation()
	if !force && gen == s.activeGen {
		return
	}
	s.dv.refresh()
	s.activeGen = gen
	prev := map[fabric.CellRef]bool{}
	for _, ref := range s.active {
		prev[ref] = true
	}
	s.active = s.dv.activeCells()
	now := map[fabric.CellRef]bool{}
	for _, ref := range s.active {
		now[ref] = true
		if force || !prev[ref] {
			s.initCell(ref)
			continue
		}
		// A storage element newly enabled on an already-active cell
		// powers up in its Init state.
		if cc := s.dv.cell(ref); cc.FF {
			if _, ok := s.q[ref]; !ok {
				s.q[ref] = FromBool(cc.Init)
			}
		}
	}
	for ref := range prev {
		if !now[ref] {
			delete(s.q, ref)
			delete(s.x, ref)
			delete(s.ram, ref)
		}
	}
}

func (s *FabricSim) initCell(ref fabric.CellRef) {
	cc := s.dv.cell(ref)
	if cc.FF {
		s.q[ref] = FromBool(cc.Init)
	}
	if cc.RAM {
		var r [16]Val
		s.ram[ref] = r // power-up zeroes in the model
	}
	s.x[ref] = Unknown
}

// SetPadInput drives an input pad.
func (s *FabricSim) SetPadInput(p fabric.PadRef, v bool) {
	s.padIn[p] = FromBool(v)
}

// driverVal evaluates a terminal driver.
func (s *FabricSim) driverVal(d driver) Val {
	if d.isPad {
		pc := s.dev.ReadPad(d.pad)
		if !pc.Input {
			return Undriven
		}
		if v, ok := s.padIn[d.pad]; ok {
			return v
		}
		return Low // unconnected test inputs idle low
	}
	if d.regd {
		if v, ok := s.q[d.cell]; ok {
			return v
		}
		return Undriven
	}
	if v, ok := s.x[d.cell]; ok {
		return v
	}
	return Undriven
}

// pinVal resolves an input pin's value across all its parallel drivers.
func (s *FabricSim) pinVal(ref fabric.CellRef, local int) Val {
	drs := s.dv.drivers(pinKey{tile: ref.Coord, local: local})
	if len(drs) == 0 {
		return Undriven
	}
	vals := make([]Val, len(drs))
	for i, d := range drs {
		vals[i] = s.driverVal(d)
	}
	return Resolve(vals)
}

// lutEvalX evaluates a truth table under four-state inputs: the output is
// definite only if every completion of the X/Z inputs agrees.
func lutEvalX(lut uint16, ins [4]Val) Val {
	idx := 0
	var free []int
	for i, v := range ins {
		switch v {
		case High:
			idx |= 1 << i
		case Low:
		default:
			free = append(free, i)
		}
	}
	out := Undriven
	n := 1 << len(free)
	for m := 0; m < n; m++ {
		v := idx
		for b, i := range free {
			if m>>b&1 == 1 {
				v |= 1 << i
			}
		}
		bit := FromBool(lut>>(v&0xF)&1 == 1)
		if out == Undriven {
			out = bit
		} else if out != bit {
			return Unknown
		}
	}
	return out
}

// evalCellX computes a cell's combinational output from current pin values.
func (s *FabricSim) evalCellX(ref fabric.CellRef) Val {
	cc := s.dv.cell(ref)
	var ins [4]Val
	for k := 0; k < fabric.LUTInputs; k++ {
		ins[k] = s.pinVal(ref, fabric.LocalPinI(ref.Cell, k))
	}
	if cc.RAM {
		addr, ok := s.ramAddr(ins)
		if !ok {
			return Unknown
		}
		return s.ram[ref][addr]
	}
	return lutEvalX(cc.LUT, ins)
}

func (s *FabricSim) ramAddr(ins [4]Val) (int, bool) {
	addr := 0
	for i, v := range ins {
		if !v.Definite() {
			return 0, false
		}
		if v.Bool() {
			addr |= 1 << i
		}
	}
	return addr, true
}

// ceVal computes the effective clock-enable/gate level of a cell.
func (s *FabricSim) ceVal(ref fabric.CellRef, cc fabric.CellConfig) Val {
	if !cc.CEUsed {
		return High
	}
	v := s.pinVal(ref, fabric.LocalPinCE(ref.Cell))
	if cc.CEInv && v.Definite() {
		v = FromBool(!v.Bool())
	}
	return v
}

// dVal computes the storage element's data input.
func (s *FabricSim) dVal(ref fabric.CellRef, cc fabric.CellConfig) Val {
	if cc.DFromBX {
		return s.pinVal(ref, fabric.LocalPinBX(ref.Cell))
	}
	return s.x[ref]
}

// Settle propagates combinational logic (and transparent latches) to a
// fixpoint. It returns an error on oscillation.
func (s *FabricSim) Settle() error {
	s.syncActive(false)
	limit := 8 + 2*len(s.active)
	for iter := 0; ; iter++ {
		if iter > limit {
			return fmt.Errorf("sim: combinational/latch oscillation did not settle")
		}
		changed := false
		for _, ref := range s.active {
			nx := s.evalCellX(ref)
			if s.x[ref] != nx {
				s.x[ref] = nx
				changed = true
			}
		}
		for _, ref := range s.active {
			cc := s.dv.cell(ref)
			if !cc.FF || !cc.Latch {
				continue
			}
			g := s.ceVal(ref, cc)
			if g == High {
				d := s.dVal(ref, cc)
				if s.q[ref] != d {
					s.q[ref] = d
					changed = true
				}
			} else if !g.Definite() {
				if s.q[ref] != Unknown {
					s.q[ref] = Unknown
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

// ClockEdge applies one rising clock edge: FFs capture, RAM write ports
// commit. All sampling happens against pre-edge values.
func (s *FabricSim) ClockEdge() {
	type ffUpd struct {
		ref fabric.CellRef
		v   Val
	}
	type ramUpd struct {
		ref  fabric.CellRef
		addr int
		ok   bool
		v    Val
	}
	var ffs []ffUpd
	var rams []ramUpd
	for _, ref := range s.active {
		cc := s.dv.cell(ref)
		if cc.FF && !cc.Latch {
			ce := s.ceVal(ref, cc)
			switch ce {
			case High:
				ffs = append(ffs, ffUpd{ref, s.dVal(ref, cc)})
			case Low:
			default:
				ffs = append(ffs, ffUpd{ref, Unknown})
			}
		}
		if cc.RAM {
			we := s.ceVal(ref, cc)
			if we == High || !we.Definite() && we != Undriven {
				var ins [4]Val
				for k := 0; k < fabric.LUTInputs; k++ {
					ins[k] = s.pinVal(ref, fabric.LocalPinI(ref.Cell, k))
				}
				addr, ok := s.ramAddr(ins)
				d := s.pinVal(ref, fabric.LocalPinBX(ref.Cell))
				if we == High {
					rams = append(rams, ramUpd{ref, addr, ok, d})
				} else {
					rams = append(rams, ramUpd{ref, 0, false, Unknown})
				}
			}
		}
	}
	for _, u := range ffs {
		s.q[u.ref] = u.v
	}
	for _, u := range rams {
		r := s.ram[u.ref]
		if u.ok {
			r[u.addr] = u.v
		} else {
			for i := range r {
				r[i] = Unknown // write with unknown address corrupts all
			}
		}
		s.ram[u.ref] = r
	}
}

// Step runs one full clock cycle with the given input pad values and
// returns after the post-edge settle.
func (s *FabricSim) Step(inputs map[fabric.PadRef]bool) error {
	for p, v := range inputs {
		s.SetPadInput(p, v)
	}
	if err := s.Settle(); err != nil {
		return err
	}
	s.ClockEdge()
	return s.Settle()
}

// PadValue returns the resolved value on an output pad.
func (s *FabricSim) PadValue(p fabric.PadRef) Val {
	s.syncActive(false)
	drs := s.dv.padOutDrivers(p)
	if len(drs) == 0 {
		return Undriven
	}
	vals := make([]Val, len(drs))
	for i, d := range drs {
		vals[i] = s.driverVal(d)
	}
	return Resolve(vals)
}

// CellX returns a cell's combinational output value.
func (s *FabricSim) CellX(ref fabric.CellRef) Val { return s.x[ref] }

// CellQ returns a cell's storage-element state.
func (s *FabricSim) CellQ(ref fabric.CellRef) Val {
	if v, ok := s.q[ref]; ok {
		return v
	}
	return Undriven
}

// PinValue exposes pin resolution (used by the relocation engine to check
// signal continuity).
func (s *FabricSim) PinValue(ref fabric.CellRef, local int) Val {
	s.syncActive(false)
	return s.pinVal(ref, local)
}
