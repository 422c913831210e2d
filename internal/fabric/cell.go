package fabric

// cellConfigBits is the configuration slot width of one logic cell.
const cellConfigBits = 32

// Cell mode bit positions inside the 32-bit cell configuration word
// (bits 0..15 hold the LUT truth table).
const (
	cellBitFF     = 16 // storage element in use
	cellBitLatch  = 17 // storage element is a transparent latch
	cellBitDBX    = 18 // D input taken from BX pin instead of LUT output
	cellBitCEUsed = 19 // CE taken from the CE pin (otherwise always enabled)
	cellBitInit   = 20 // power-up / GSR state of the storage element
	cellBitRAM    = 21 // LUT operates as 16x1 distributed RAM
	cellBitCEInv  = 22 // CE pin inverted
	cellBitUsed   = 23 // cell is occupied (distinguishes a constant-0 LUT
	// from unconfigured fabric)
)

// CellConfig is the decoded configuration of one logic cell.
type CellConfig struct {
	// LUT is the 16-entry truth table; bit i is the output for input value
	// i (I3..I0 packed as bits 3..0 of the index).
	LUT uint16
	// FF enables the storage element: the XQ output carries the FF (or
	// latch) state instead of being dead.
	FF bool
	// Latch makes the storage element a transparent latch (gate = CE pin)
	// instead of a rising-edge D flip-flop.
	Latch bool
	// DFromBX feeds the storage element from the BX pin instead of the
	// LUT's combinational output.
	DFromBX bool
	// CEUsed gates the storage element with the CE pin; when false the
	// element updates on every active edge (free-running).
	CEUsed bool
	// Init is the state the storage element assumes at configuration.
	Init bool
	// RAM turns the LUT into a 16x1 distributed RAM. RAM cells cannot be
	// relocated on-line (paper §2) and must not lie in a column touched by
	// a relocation.
	RAM bool
	// CEInv inverts the CE pin.
	CEInv bool
	// Used marks the cell as occupied even when every other field is
	// zero (e.g. a constant-0 generator).
	Used bool
}

// InUse reports whether the cell carries any configuration at all.
func (cc CellConfig) InUse() bool {
	return cc.Used || cc.LUT != 0 || cc.FF || cc.RAM || cc.DFromBX
}

func (cc CellConfig) encode() uint32 {
	v := uint32(cc.LUT)
	set := func(bit int, b bool) {
		if b {
			v |= 1 << bit
		}
	}
	set(cellBitFF, cc.FF)
	set(cellBitLatch, cc.Latch)
	set(cellBitDBX, cc.DFromBX)
	set(cellBitCEUsed, cc.CEUsed)
	set(cellBitInit, cc.Init)
	set(cellBitRAM, cc.RAM)
	set(cellBitCEInv, cc.CEInv)
	set(cellBitUsed, cc.Used)
	return v
}

func decodeCell(v uint32) CellConfig {
	get := func(bit int) bool { return v>>bit&1 == 1 }
	return CellConfig{
		LUT:     uint16(v),
		FF:      get(cellBitFF),
		Latch:   get(cellBitLatch),
		DFromBX: get(cellBitDBX),
		CEUsed:  get(cellBitCEUsed),
		Init:    get(cellBitInit),
		RAM:     get(cellBitRAM),
		CEInv:   get(cellBitCEInv),
		Used:    get(cellBitUsed),
	}
}

// cellSlot returns the first configuration slot of a cell.
func cellSlot(cell int) int { return cell * cellConfigBits }

// ReadCell decodes the configuration of one logic cell.
func (d *Device) ReadCell(ref CellRef) CellConfig {
	return decodeCell(d.GetTileField(ref.Coord, cellSlot(ref.Cell), cellConfigBits))
}

// WriteCell encodes the configuration of one logic cell into the
// configuration memory (designer-level path).
func (d *Device) WriteCell(ref CellRef, cc CellConfig) {
	d.SetTileField(ref.Coord, cellSlot(ref.Cell), cellConfigBits, cc.encode())
}

// CellConfigFrames returns the frames that hold a cell's configuration.
func (d *Device) CellConfigFrames(ref CellRef) []FrameAddr {
	return d.TouchedFrames(ref.Coord, [2]int{cellSlot(ref.Cell), cellConfigBits})
}

// LUTEval evaluates a 16-bit truth table for packed inputs (I3..I0 as bits
// 3..0).
func LUTEval(lut uint16, in uint8) bool { return lut>>(in&0xF)&1 == 1 }

// ExpandLUT replicates a k-input truth table over all four LUT inputs so
// that the physical cell's output is independent of its unconnected pins.
func ExpandLUT(lut uint16, k int) uint16 {
	if k >= LUTInputs {
		return lut
	}
	span := uint16(1) << k
	var out uint16
	for v := uint16(0); v < 16; v++ {
		if lut>>(v%span)&1 == 1 {
			out |= 1 << v
		}
	}
	return out
}

// Convenience truth tables used by the auxiliary relocation circuit
// (paper Fig. 3) and by tests.
const (
	// LUTConst0 and LUTConst1 are constant generators; the relocation and
	// clock-enable control signals are "driven through the reconfiguration
	// memory" as constants of this form.
	LUTConst0 uint16 = 0x0000
	LUTConst1 uint16 = 0xFFFF
	// LUTBuf passes input I0 through.
	LUTBuf uint16 = 0xAAAA
	// LUTInv inverts input I0.
	LUTInv uint16 = 0x5555
	// LUTOr2 is I0 OR I1 (the aux circuit's clock-enable OR gate).
	LUTOr2 uint16 = 0xEEEE
	// LUTAnd2 is I0 AND I1.
	LUTAnd2 uint16 = 0x8888
	// LUTXor2 is I0 XOR I1.
	LUTXor2 uint16 = 0x6666
	// LUTMux2 selects I1 when I2=0, I0 when I2=1 (2:1 multiplexer with
	// select on I2): out = I2 ? I0 : I1.
	LUTMux2 uint16 = 0xACAC
)

// MuxLUT builds out = sel ? a : b with sel on input S, a on input A and b on
// input B (distinct input indices 0..3).
func MuxLUT(selIn, aIn, bIn int) uint16 {
	var lut uint16
	for v := 0; v < 16; v++ {
		sel := v>>selIn&1 == 1
		var out bool
		if sel {
			out = v>>aIn&1 == 1
		} else {
			out = v>>bIn&1 == 1
		}
		if out {
			lut |= 1 << v
		}
	}
	return lut
}

// OrLUT builds out = OR of the given input indices.
func OrLUT(ins ...int) uint16 {
	var lut uint16
	for v := 0; v < 16; v++ {
		out := false
		for _, in := range ins {
			if v>>in&1 == 1 {
				out = true
			}
		}
		if out {
			lut |= 1 << v
		}
	}
	return lut
}

// Encode packs the cell configuration into its 32-bit configuration word
// (exported for tools that splice cell configs into frames).
func (cc CellConfig) Encode() uint32 { return cc.encode() }
