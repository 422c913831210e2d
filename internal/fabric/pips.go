package fabric

import (
	"fmt"
	"iter"
	"slices"
)

// PIPMask returns the enabled-source bitmask of a sink. Bit b corresponds to
// SinkSources(sinkLocal)[b]. More than one bit may be set: the fabric then
// shorts several drivers onto the sink, which is exactly how the relocation
// procedure "places signals in parallel".
func (d *Device) PIPMask(c Coord, sinkLocal int) uint16 {
	if !IsLocalSink(sinkLocal) {
		return 0
	}
	return uint16(d.GetTileField(c, d.pipOffset[sinkLocal], d.pipWidth[sinkLocal]))
}

// SetPIPMask overwrites the enabled-source bitmask of a sink
// (designer-level path).
func (d *Device) SetPIPMask(c Coord, sinkLocal int, mask uint16) {
	if !IsLocalSink(sinkLocal) {
		panic(fmt.Sprintf("fabric: local %d is not a sink", sinkLocal))
	}
	d.SetTileField(c, d.pipOffset[sinkLocal], d.pipWidth[sinkLocal], uint32(mask))
}

// PIPSlotRange returns the tile slot range [start, start+width) that holds a
// sink's PIP mask; bitstream-level code uses it to compute frame edits.
func (d *Device) PIPSlotRange(sinkLocal int) (start, width int) {
	return d.pipOffset[sinkLocal], d.pipWidth[sinkLocal]
}

// CellSlotRange returns the tile slot range of a cell's configuration.
func (d *Device) CellSlotRange(cell int) (start, width int) {
	return cellSlot(cell), cellConfigBits
}

// BitAddr maps a tile configuration slot to its frame location.
func (d *Device) BitAddr(c Coord, slot int) (major, minor, bit int) {
	return d.tileBitAddr(c, slot)
}

// BitKind names what one configuration bit configures.
type BitKind uint8

const (
	// BitUnused is a bit no resource reads: the spare tile slots after the
	// PIP masks, pseudo-row and IOB bits outside a pad byte, and the clock
	// and block-RAM columns.
	BitUnused BitKind = iota
	// BitCell is a bit of a logic cell's configuration word.
	BitCell
	// BitPIP is a bit of a sink's PIP mask.
	BitPIP
	// BitPad is a bit of a pad's configuration byte.
	BitPad
)

// BitOwner is the resource one configuration bit configures.
type BitOwner struct {
	Kind BitKind
	// Tile and Local name a BitCell bit's cell (Local is its index in the
	// CLB) or a BitPIP bit's sink (Local is the sink's local id).
	Tile  Coord
	Local int
	// PIP is a BitPIP bit's mask bit: it selects PIPSource(Tile, Local, PIP).
	PIP int
	// Pad is a BitPad bit's pad.
	Pad PadRef
}

// OwnerOfBit decodes one frame bit into the resource it configures: the
// exact inverse of BitAddr (cell and PIP slots) and PadBitAddr (pad bytes).
func (d *Device) OwnerOfBit(addr FrameAddr, bit int) BitOwner {
	col, ok := d.ColumnByMajor(addr.Major)
	if !ok || addr.Minor < 0 || addr.Minor >= col.Frames || bit < 0 || bit >= d.frameBits {
		return BitOwner{}
	}
	row, off := bit/BitsPerTileRow, bit%BitsPerTileRow
	switch col.Kind {
	case ColCLB:
		if row >= d.Rows {
			// The North then the South pseudo-row: pad bytes, in minor 0.
			k := off / padConfigBits
			if addr.Minor != 0 || k >= PadsPerEdgeTile {
				return BitOwner{}
			}
			side := North
			if row > d.Rows {
				side = South
			}
			return BitOwner{Kind: BitPad, Pad: PadRef{Side: side, Pos: col.ArrayCol, K: k}}
		}
		tile := Coord{Row: row, Col: col.ArrayCol}
		switch slot := addr.Minor*BitsPerTileRow + off; {
		case slot < cellSlot(CellsPerCLB):
			return BitOwner{Kind: BitCell, Tile: tile, Local: slot / cellConfigBits}
		case slot < d.pipEnd:
			s := int(d.sinkAt[slot])
			return BitOwner{Kind: BitPIP, Tile: tile, Local: s, PIP: slot - d.pipOffset[s]}
		}
	case ColIOB:
		// Pad K of a West or East position sits in minor K, at the bits
		// of the row it faces.
		if addr.Minor >= PadsPerEdgeTile || row >= d.Rows || off >= padConfigBits {
			return BitOwner{}
		}
		side := West
		if addr.Major == 2+d.Cols {
			side = East
		}
		return BitOwner{Kind: BitPad, Pad: PadRef{Side: side, Pos: row, K: addr.Minor}}
	}
	return BitOwner{}
}

// PIPSource returns the node bit b of a sink's PIP mask selects, or
// InvalidNode where that slot cannot connect at tile c: one entry of
// SinkSourceNodes, without the allocation.
func (d *Device) PIPSource(c Coord, sinkLocal, b int) NodeID {
	refs := SinkSources(sinkLocal)
	if b < 0 || b >= len(refs) {
		return InvalidNode
	}
	return d.resolveSource(c, refs[b])
}

// resolveSource turns a template SourceRef of a sink at tile c into a
// device-wide NodeID, applying the border rule: an out-of-array single wire
// pointing back into the array is an IOB pad input. Returns InvalidNode for
// unconnectable template slots (e.g. hex wires beyond the border).
func (d *Device) resolveSource(c Coord, ref SourceRef) NodeID {
	st := Coord{Row: c.Row + ref.DRow, Col: c.Col + ref.DCol}
	if d.InBounds(st) {
		return d.NodeIDAt(st, ref.Local)
	}
	kind, dir, idx := DecodeLocal(ref.Local)
	if kind != KindSingle {
		return InvalidNode
	}
	if !d.InBounds(st.Step(dir, 1)) {
		return InvalidNode // does not point back into the array
	}
	pad, ok := d.padAtEdge(st, idx%PadsPerEdgeTile)
	if !ok {
		return InvalidNode
	}
	return d.PadNodeID(pad)
}

// padAtEdge maps an out-of-bounds tile one step beyond the array to the pad
// position there.
func (d *Device) padAtEdge(st Coord, k int) (PadRef, bool) {
	switch {
	case st.Row == -1 && st.Col >= 0 && st.Col < d.Cols:
		return PadRef{Side: North, Pos: st.Col, K: k}, true
	case st.Row == d.Rows && st.Col >= 0 && st.Col < d.Cols:
		return PadRef{Side: South, Pos: st.Col, K: k}, true
	case st.Col == -1 && st.Row >= 0 && st.Row < d.Rows:
		return PadRef{Side: West, Pos: st.Row, K: k}, true
	case st.Col == d.Cols && st.Row >= 0 && st.Row < d.Rows:
		return PadRef{Side: East, Pos: st.Row, K: k}, true
	}
	return PadRef{}, false
}

// SinkSourceNodes resolves the full PIP source list of a sink to device-wide
// NodeIDs; unconnectable slots are InvalidNode. Index b matches mask bit b.
func (d *Device) SinkSourceNodes(c Coord, sinkLocal int) []NodeID {
	refs := SinkSources(sinkLocal)
	out := make([]NodeID, len(refs))
	for i, ref := range refs {
		out[i] = d.resolveSource(c, ref)
	}
	return out
}

// EnabledSourceNodes returns the drivers currently connected to a sink.
func (d *Device) EnabledSourceNodes(c Coord, sinkLocal int) []NodeID {
	mask := d.PIPMask(c, sinkLocal)
	if mask == 0 {
		return nil
	}
	refs := SinkSources(sinkLocal)
	var out []NodeID
	for b := range refs {
		if mask>>b&1 == 1 {
			if n := d.resolveSource(c, refs[b]); n != InvalidNode {
				out = append(out, n)
			}
		}
	}
	return out
}

// PIPBitFor finds the mask bit of a sink that selects the given source node.
func (d *Device) PIPBitFor(c Coord, sinkLocal int, source NodeID) (int, bool) {
	refs := SinkSources(sinkLocal)
	for b, ref := range refs {
		if d.resolveSource(c, ref) == source {
			return b, true
		}
	}
	return 0, false
}

// FanoutRef describes one sink that can select a source, relative to the
// source's tile: the sink lives DRow/DCol tiles away, and Bit is the mask
// bit of the sink's PIP that selects the source.
type FanoutRef struct {
	DRow, DCol int
	SinkLocal  int
	Bit        int
}

// fanoutTemplate[L] lists, for a source with local id L, the sinks that can
// select it: the reverse of the sinkSources template.
var fanoutTemplate [localNodeCount][]FanoutRef

func init() {
	for s := 0; s < sinkCount; s++ {
		for b, ref := range sinkSources[s] {
			fanoutTemplate[ref.Local] = append(fanoutTemplate[ref.Local], FanoutRef{
				DRow: -ref.DRow, DCol: -ref.DCol, SinkLocal: s, Bit: b,
			})
		}
	}
}

// FanoutTemplate returns the translation-invariant fanout template of a
// local id. FanoutOf of a tile node is exactly its local id's template
// entries whose sink tile lies inside the array, in template order. The
// returned slice must not be modified.
func FanoutTemplate(local int) []FanoutRef {
	if local < 0 || local >= localNodeCount {
		return nil
	}
	return fanoutTemplate[local]
}

// PIPEdge is one programmable connection from a source node to a sink node.
type PIPEdge struct {
	SinkTile  Coord
	SinkLocal int
	Bit       int // mask bit in the sink's PIP mask
	Sink      NodeID
}

// FanoutOf lists every PIP whose source is the given node: where a signal on
// this node can go next. It collects Fanout, so it yields the same edges in
// the same order; hot walks range Fanout instead and build no list.
func (d *Device) FanoutOf(n NodeID) []PIPEdge { return slices.Collect(d.Fanout(n)) }

// Fanout yields every PIP whose source is the given node. Pad nodes fan out
// into the border tile's inward single wires, in wire index order; other
// nodes use the reverse sink templates, in template order, keeping the
// edges whose sink tile lies inside the array. The edges are geometry
// alone: Fanout reads no configuration, so a caller may enable or disable
// PIPs while it ranges. It stays a one-line wrapper so that it inlines at
// each range loop and the loop body does not escape to the heap.
func (d *Device) Fanout(n NodeID) iter.Seq[PIPEdge] {
	return func(yield func(PIPEdge) bool) { d.fanout(n, yield) }
}

// fanout is Fanout's walker.
func (d *Device) fanout(n NodeID, yield func(PIPEdge) bool) {
	if n >= d.PadBase() {
		pad, ok := d.PadOfNode(n)
		if !ok {
			return
		}
		tile, inward := d.padBorderTile(pad)
		for i := 0; i < SinglesPerDir; i++ {
			if i%PadsPerEdgeTile != pad.K {
				continue
			}
			sink := LocalSingle(inward, i)
			bit, ok := d.PIPBitFor(tile, sink, n)
			if ok && !yield(PIPEdge{SinkTile: tile, SinkLocal: sink, Bit: bit, Sink: d.NodeIDAt(tile, sink)}) {
				return
			}
		}
		return
	}
	c, local, _ := d.SplitNode(n)
	for _, fr := range fanoutTemplate[local] {
		st := Coord{Row: c.Row + fr.DRow, Col: c.Col + fr.DCol}
		if !d.InBounds(st) {
			continue
		}
		if !yield(PIPEdge{SinkTile: st, SinkLocal: fr.SinkLocal, Bit: fr.Bit, Sink: d.NodeIDAt(st, fr.SinkLocal)}) {
			return
		}
	}
}

// HasEnabledFanout reports whether any PIP whose source is the given node is
// currently enabled — i.e. some sink's mask selects it. It is the
// allocation-free counterpart of scanning FanoutOf for enabled edges;
// incremental occupancy maintenance calls it per touched node, so it must not
// allocate.
func (d *Device) HasEnabledFanout(n NodeID) bool {
	if n >= d.PadBase() {
		pad, ok := d.PadOfNode(n)
		if !ok {
			return false
		}
		// A pad can be selected by any sink of its border tile whose source
		// template resolves across the array edge — inward singles are the
		// routed case, but border-tile pins reach pads directly too. Every
		// enabled bit must be resolved (not PIPBitFor's first match): at the
		// border, distinct template slots of one sink can collapse onto the
		// same pad node.
		tile, _ := d.padBorderTile(pad)
		d.mu.RLock()
		defer d.mu.RUnlock()
		for s := 0; s < sinkCount; s++ {
			mask := uint16(d.getTileFieldLocked(tile, d.pipOffset[s], d.pipWidth[s]))
			if mask == 0 {
				continue
			}
			refs := sinkSources[s]
			for b := range refs {
				if mask>>b&1 == 1 && d.resolveSource(tile, refs[b]) == n {
					return true
				}
			}
		}
		return false
	}
	// One lock acquisition and one single-bit probe per fanout edge — this
	// runs per node touched by the incremental view, so the per-edge
	// full-mask read (and its per-call lock) was the view's hottest path.
	c, local, _ := d.SplitNode(n)
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, fr := range fanoutTemplate[local] {
		st := Coord{Row: c.Row + fr.DRow, Col: c.Col + fr.DCol}
		if !d.InBounds(st) {
			continue
		}
		major, minor, bit := d.tileBitAddr(st, d.pipOffset[fr.SinkLocal]+fr.Bit)
		if d.getBitLocked(d.frameBase[major]+minor, bit) {
			return true
		}
	}
	return false
}

// padBorderTile returns the array tile adjacent to a pad and the direction
// pointing from the pad into the array.
func (d *Device) padBorderTile(pad PadRef) (Coord, Dir) {
	switch pad.Side {
	case North:
		return Coord{Row: 0, Col: pad.Pos}, South
	case South:
		return Coord{Row: d.Rows - 1, Col: pad.Pos}, North
	case West:
		return Coord{Row: pad.Pos, Col: 0}, East
	default:
		return Coord{Row: pad.Pos, Col: d.Cols - 1}, West
	}
}
