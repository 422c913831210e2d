package fabric

import "fmt"

// PadRef addresses one IOB pad on the device periphery. Side names the edge
// (North = top edge); Pos is the column (North/South) or row (West/East) of
// the border tile the pad attaches to; K distinguishes the PadsPerEdgeTile
// pads sharing one position.
type PadRef struct {
	Side Dir
	Pos  int
	K    int
}

func (p PadRef) String() string { return fmt.Sprintf("PAD-%s%d.%d", p.Side, p.Pos, p.K) }

// PadConfig is the decoded configuration of one IOB pad.
type PadConfig struct {
	// OutMask selects, one bit per candidate, which outward single wires of
	// the border tile drive this pad when it is an output. Several bits in
	// parallel are legal (used while relocating a route that ends at a
	// pad).
	OutMask uint8
	// Output enables the pad's output driver.
	Output bool
	// Input enables the pad as an input to the fabric.
	Input bool
}

const (
	padConfigBits = 8
	padBitOutput  = 4
	padBitInput   = 5
	// PadOutSources is the number of outward singles selectable by a pad.
	PadOutSources = 4
)

func (pc PadConfig) encode() uint32 {
	v := uint32(pc.OutMask & 0xF)
	if pc.Output {
		v |= 1 << padBitOutput
	}
	if pc.Input {
		v |= 1 << padBitInput
	}
	return v
}

func decodePad(v uint32) PadConfig {
	return PadConfig{
		OutMask: uint8(v & 0xF),
		Output:  v>>padBitOutput&1 == 1,
		Input:   v>>padBitInput&1 == 1,
	}
}

// NumPads returns the number of IOB pads on the device.
func (d *Device) NumPads() int { return 2 * PadsPerEdgeTile * (d.Rows + d.Cols) }

// PadIndex returns a dense index for a pad.
func (d *Device) PadIndex(p PadRef) int {
	k := PadsPerEdgeTile
	switch p.Side {
	case North:
		return p.Pos*k + p.K
	case South:
		return d.Cols*k + p.Pos*k + p.K
	case West:
		return 2*d.Cols*k + p.Pos*k + p.K
	default:
		return 2*d.Cols*k + d.Rows*k + p.Pos*k + p.K
	}
}

// PadByIndex is the inverse of PadIndex.
func (d *Device) PadByIndex(idx int) PadRef {
	k := PadsPerEdgeTile
	switch {
	case idx < d.Cols*k:
		return PadRef{Side: North, Pos: idx / k, K: idx % k}
	case idx < 2*d.Cols*k:
		idx -= d.Cols * k
		return PadRef{Side: South, Pos: idx / k, K: idx % k}
	case idx < 2*d.Cols*k+d.Rows*k:
		idx -= 2 * d.Cols * k
		return PadRef{Side: West, Pos: idx / k, K: idx % k}
	default:
		idx -= 2*d.Cols*k + d.Rows*k
		return PadRef{Side: East, Pos: idx / k, K: idx % k}
	}
}

// PadNodeID returns the routing-graph node of a pad.
func (d *Device) PadNodeID(p PadRef) NodeID {
	return d.PadBase() + NodeID(d.PadIndex(p))
}

// PadOfNode decodes a pad NodeID.
func (d *Device) PadOfNode(n NodeID) (PadRef, bool) {
	if n < d.PadBase() || int(n-d.PadBase()) >= d.NumPads() {
		return PadRef{}, false
	}
	return d.PadByIndex(int(n - d.PadBase())), true
}

// padBitAddr locates a pad's configuration byte. North/South pads live in
// the two pseudo-rows of their column's CLB configuration column; West/East
// pads live in the IOB columns.
func (d *Device) padBitAddr(p PadRef) (major, minor, bit int) {
	switch p.Side {
	case North:
		return d.majorOfCol[p.Pos], 0, d.Rows*BitsPerTileRow + p.K*padConfigBits
	case South:
		return d.majorOfCol[p.Pos], 0, (d.Rows+1)*BitsPerTileRow + p.K*padConfigBits
	case West:
		return 1 + d.Cols, p.K, p.Pos * BitsPerTileRow
	default: // East
		return 2 + d.Cols, p.K, p.Pos * BitsPerTileRow
	}
}

// ReadPad decodes the configuration of one pad.
func (d *Device) ReadPad(p PadRef) PadConfig {
	major, minor, bit := d.padBitAddr(p)
	idx, err := d.frameIndex(major, minor)
	if err != nil {
		panic(err)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var v uint32
	for i := 0; i < padConfigBits; i++ {
		if d.getBitLocked(idx, bit+i) {
			v |= 1 << i
		}
	}
	return decodePad(v)
}

// WritePad encodes the configuration of one pad (designer-level path).
func (d *Device) WritePad(p PadRef, pc PadConfig) {
	major, minor, bit := d.padBitAddr(p)
	idx, err := d.frameIndex(major, minor)
	if err != nil {
		panic(err)
	}
	v := pc.encode()
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < padConfigBits; i++ {
		d.setBitLocked(idx, bit+i, v>>i&1 == 1)
	}
	d.gen++
	d.frameGen[idx] = d.gen
	d.padGen = d.gen
}

// PadConfigFrame returns the frame that holds a pad's configuration.
func (d *Device) PadConfigFrame(p PadRef) FrameAddr {
	major, minor, _ := d.padBitAddr(p)
	return FrameAddr{Major: major, Minor: minor}
}

// PadOutSourceNode returns the outward single wire selected by bit b of a
// pad's OutMask.
func (d *Device) PadOutSourceNode(p PadRef, b int) NodeID {
	tile, inward := d.padBorderTile(p)
	return d.NodeIDAt(tile, LocalSingle(inward.Opposite(), p.K+b*PadsPerEdgeTile))
}

// PadOutSourceNodes returns the outward single wires selectable by a pad's
// OutMask, index-aligned with the mask bits.
func (d *Device) PadOutSourceNodes(p PadRef) []NodeID {
	out := make([]NodeID, PadOutSources)
	for b := 0; b < PadOutSources; b++ {
		out[b] = d.PadOutSourceNode(p, b)
	}
	return out
}

// PadEnabledSources returns the wires currently driving an output pad.
func (d *Device) PadEnabledSources(p PadRef) []NodeID {
	pc := d.ReadPad(p)
	if !pc.Output || pc.OutMask == 0 {
		return nil
	}
	nodes := d.PadOutSourceNodes(p)
	var out []NodeID
	for b, n := range nodes {
		if pc.OutMask>>b&1 == 1 {
			out = append(out, n)
		}
	}
	return out
}

// Encode packs the pad configuration into its configuration byte (exported
// for tools that splice pad configs into frames).
func (pc PadConfig) Encode() uint32 { return pc.encode() }

// PadBitAddr exposes the frame location of a pad's configuration byte.
func (d *Device) PadBitAddr(p PadRef) (major, minor, bit int) {
	return d.padBitAddr(p)
}
