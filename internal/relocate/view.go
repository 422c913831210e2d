// Package relocate implements the paper's contribution: dynamic relocation
// of active CLBs and routing resources on a partially reconfigurable FPGA,
// without stopping the functions that use them.
//
// The engine realises the two-phase relocation procedure of Fig. 2, the
// auxiliary relocation circuit for gated-clock and latch-based circuits of
// Fig. 3, the eleven-step flow of Fig. 4, and the duplicate-then-drop
// relocation of routing resources of Fig. 5 — all expressed as configuration
// frame writes delivered through a configuration port (Boundary-Scan in the
// paper), with cycle-exact cost accounting.
//
// Like the paper's JBits-based tool, the engine derives everything it needs
// — net connectivity, free resources, fanout — from the configuration
// memory itself, so it can relocate logic it did not place.
package relocate

import (
	"fmt"
	"math/bits"

	"repro/internal/fabric"
)

// view is the engine's bitstream-derived picture of the device: which
// routing nodes are in use, which cells are occupied, and how signals flow.
//
// The picture has one derivation: each bit that differs between a frame's
// old and new content names the one cell, sink PIP or pad it configures,
// which alone is re-derived from the configuration memory (FrameChanged).
// The frame tool hands over every frame it adopts — a staged write, a
// reconciliation with the device, a rollback (view implements ViewSink) —
// and a rescan adopts every frame of the device against an all-zero
// baseline. A generation that moved with no declaration (a raw write that
// bypassed the tool) falls back to a rescan. tileWalk derives the same
// picture independently, tile by tile; it is the reference the audit and
// the property tests compare against, never a production path.
type view struct {
	dev *fabric.Device
	gen uint64

	// used marks, by NodeID (pads included), every node the configuration
	// memory shows in use. The engine's router reads it in place as its
	// base blocked set, so it is cleared, never reallocated.
	used []bool
	// freeCLB marks, by Device.TileIndex, every CLB with no configured cell
	// and no enabled sink PIP.
	freeCLB []bool
	// freePerRow is the row-bucketed spatial index over freeCLB: the number
	// of free CLBs per array row, maintained by the same deltas that keep
	// freeCLB current. findFreeCLB's expanding-ring lookup uses it to skip
	// rows with nothing free, making aux-CLB placement O(neighbourhood)
	// instead of a scan over the whole free set.
	freePerRow []int
	freeCount  int
}

// newView builds the view of a device's current configuration by decoding
// its frames (rescan).
func newView(dev *fabric.Device) *view {
	v := allocView(dev)
	v.rescan()
	return v
}

func allocView(dev *fabric.Device) *view {
	return &view{
		dev:        dev,
		used:       make([]bool, int(dev.PadBase())+dev.NumPads()),
		freeCLB:    make([]bool, dev.Rows*dev.Cols),
		freePerRow: make([]int, dev.Rows),
	}
}

// rescan rebuilds the occupancy picture from the configuration memory, in
// place, through the one derivation declared changes use: starting from an
// empty device (no node used, every CLB free) it adopts every frame of
// every column against an all-zero baseline, so each set bit re-derives
// what it configures. It reads every frame, not only those with a
// generation, because a device cloned frame by frame need not carry any,
// and it reads them through one buffer. The generation is taken before the
// first read: a write that lands during the walk leaves the view behind the
// device, and the next refresh rescans it.
func (v *view) rescan() {
	dev := v.dev
	gen := dev.Generation()
	clear(v.used)
	for i := range v.freeCLB {
		v.freeCLB[i] = true
	}
	for row := range v.freePerRow {
		v.freePerRow[row] = dev.Cols
	}
	v.freeCount = dev.Rows * dev.Cols
	words := dev.FrameWords()
	buf := make([]uint32, 2*words)
	zero, frame := buf[:words], buf[words:]
	for _, col := range dev.Columns() {
		for minor := 0; minor < col.Frames; minor++ {
			if err := dev.ReadFrameInto(col.Major, minor, frame); err != nil {
				panic(err) // every column's minors are in range
			}
			v.FrameChanged(fabric.FrameAddr{Major: col.Major, Minor: minor}, zero, frame)
		}
	}
	v.gen = gen
}

// tileWalk derives the occupancy picture of a device tile by tile, with no
// frame decoding: every cell word and sink PIP mask of every CLB, then every
// pad. It is the independent reference AuditView and the view's property
// tests compare against (validation by enumeration), so the frame decode is
// never checked against itself.
func tileWalk(dev *fabric.Device) *view {
	v := allocView(dev)
	v.gen = dev.Generation()
	for row := 0; row < dev.Rows; row++ {
		for col := 0; col < dev.Cols; col++ {
			c := fabric.Coord{Row: row, Col: col}
			clbFree := true
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				if dev.ReadCell(fabric.CellRef{Coord: c, Cell: cell}).InUse() {
					clbFree = false
					v.used[dev.NodeIDAt(c, fabric.LocalOutX(cell))] = true
					v.used[dev.NodeIDAt(c, fabric.LocalOutXQ(cell))] = true
				}
			}
			// Any sink with an enabled PIP marks itself and its enabled
			// sources as used.
			for local := 0; local < fabric.NodeSlots; local++ {
				if !fabric.IsLocalSink(local) {
					continue
				}
				if dev.PIPMask(c, local) == 0 {
					continue
				}
				v.used[dev.NodeIDAt(c, local)] = true
				for _, src := range dev.EnabledSourceNodes(c, local) {
					v.used[src] = true
				}
				clbFree = false
			}
			if clbFree {
				v.freeCLB[dev.TileIndex(c)] = true
				v.freePerRow[row]++
				v.freeCount++
			}
		}
	}
	// Pads.
	for i := 0; i < dev.NumPads(); i++ {
		p := dev.PadByIndex(i)
		pc := dev.ReadPad(p)
		if pc.Input || pc.Output {
			v.used[dev.PadNodeID(p)] = true
		}
		for _, n := range dev.PadEnabledSources(p) {
			v.used[n] = true
		}
	}
	return v
}

// AuditView checks the engine's occupancy view against the configuration
// memory — validation by enumeration. A view behind the device generation is
// a disagreement by itself: some change was never declared, and a reader
// would have rescanned it away. Otherwise it derives the picture afresh by
// the tile walk, which shares nothing with the frame decode that built and
// keeps the view, and returns the first disagreement (see compare); nil
// means the view is exact. It costs a full tile walk: an audit, not a read
// path.
func (e *Engine) AuditView() error {
	v := e.view
	if g := v.dev.Generation(); g != v.gen {
		return fmt.Errorf("relocate: view audit: the view is at generation %d, configuration memory at %d: a change was never declared", v.gen, g)
	}
	if err := v.compare(tileWalk(v.dev)); err != nil {
		return fmt.Errorf("relocate: view audit: %w", err)
	}
	return nil
}

// compare returns the first disagreement between the view and a reference
// picture of the same configuration memory, in the used nodes, the free
// CLBs, the per-row free counts or the free total; nil when they agree.
func (v *view) compare(ref *view) error {
	mismatch := func(what string, inView bool) error {
		return fmt.Errorf("%s: %t in the view, %t in configuration memory", what, inView, !inView)
	}
	for n, used := range v.used {
		if used != ref.used[n] {
			return mismatch(fmt.Sprintf("node %d used", n), used)
		}
	}
	for i, free := range v.freeCLB {
		if free != ref.freeCLB[i] {
			return mismatch(fmt.Sprintf("CLB %v free", v.dev.CoordOfTile(i)), free)
		}
	}
	for row, n := range ref.freePerRow {
		if v.freePerRow[row] != n {
			return fmt.Errorf("row %d has %d free CLBs in the view, %d in configuration memory",
				row, v.freePerRow[row], n)
		}
	}
	if v.freeCount != ref.freeCount {
		return fmt.Errorf("%d free CLBs in the view, %d in configuration memory", v.freeCount, ref.freeCount)
	}
	return nil
}

// refresh rescans the view when the configuration moved with no
// declaration: a raw write that bypassed the frame tool.
func (v *view) refresh() {
	if v.dev.Generation() != v.gen {
		v.rescan()
	}
}

// RescanView rebuilds the occupancy view from the configuration memory. A
// full recovery ends with it: when the partial recovery stream never reached
// the device, the view re-derived a rollback the device did not take, and
// the full stream then changes nothing the tool can diff.
func (e *Engine) RescanView() { e.view.rescan() }

// nodeInUse re-derives one node's occupancy from the configuration memory.
// It must agree exactly with the criteria tileWalk applies: a cell output is
// used while its cell is configured, a sink while any of its PIPs is
// enabled, a source while any enabled PIP or output-pad mask selects it, and
// a pad node while the pad is configured as input or output.
func (v *view) nodeInUse(n fabric.NodeID) bool {
	dev := v.dev
	if pad, ok := dev.PadOfNode(n); ok {
		pc := dev.ReadPad(pad)
		return pc.Input || pc.Output || dev.HasEnabledFanout(n)
	}
	c, local, _ := dev.SplitNode(n)
	kind, _, idx := fabric.DecodeLocal(local)
	if kind == fabric.KindOutX || kind == fabric.KindOutXQ {
		if dev.ReadCell(fabric.CellRef{Coord: c, Cell: idx}).InUse() {
			return true
		}
	}
	if fabric.IsLocalSink(local) && dev.PIPMask(c, local) != 0 {
		return true
	}
	if dev.HasEnabledFanout(n) {
		return true
	}
	return v.fedByPad(n)
}

// padCandidate returns the one pad whose OutMask could select the wire: the
// wire must be a single leaving the array from a border tile, and the pad
// sits at the position it exits towards. This is the single encoding of the
// wire-to-pad border rule — fedByPad and forwardCone both build on it.
func (v *view) padCandidate(n fabric.NodeID) (fabric.PadRef, bool) {
	dev := v.dev
	c, local, ok := dev.SplitNode(n)
	if !ok {
		return fabric.PadRef{}, false
	}
	kind, dir, idx := fabric.DecodeLocal(local)
	if kind != fabric.KindSingle {
		return fabric.PadRef{}, false
	}
	out := c.Step(dir, 1)
	if dev.InBounds(out) {
		return fabric.PadRef{}, false
	}
	side, pos := edgeOf(dev, out)
	if pos < 0 {
		return fabric.PadRef{}, false
	}
	return fabric.PadRef{Side: side, Pos: pos, K: idx % fabric.PadsPerEdgeTile}, true
}

// fedByPad reports whether an output pad's enabled OutMask selects the wire.
func (v *view) fedByPad(n fabric.NodeID) bool {
	p, ok := v.padCandidate(n)
	if !ok {
		return false
	}
	pc := v.dev.ReadPad(p)
	if !pc.Output || pc.OutMask == 0 {
		return false
	}
	for b := 0; b < fabric.PadOutSources; b++ {
		if pc.OutMask>>b&1 == 1 && v.dev.PadOutSourceNode(p, b) == n {
			return true
		}
	}
	return false
}

// markNode re-derives one node's entry in the used set, so callers only say
// WHAT may have changed.
func (v *view) markNode(n fabric.NodeID) { v.used[n] = v.nodeInUse(n) }

// markTileFree re-derives whether a CLB is wholly free (no configured cell,
// no enabled sink PIP).
func (v *view) markTileFree(c fabric.Coord) {
	dev := v.dev
	free := true
	for cell := 0; cell < fabric.CellsPerCLB && free; cell++ {
		if dev.ReadCell(fabric.CellRef{Coord: c, Cell: cell}).InUse() {
			free = false
		}
	}
	for local := 0; local < fabric.NodeSlots && free; local++ {
		if fabric.IsLocalSink(local) && dev.PIPMask(c, local) != 0 {
			free = false
		}
	}
	i := dev.TileIndex(c)
	if free == v.freeCLB[i] {
		return
	}
	v.freeCLB[i] = free
	d := -1
	if free {
		d = 1
	}
	v.freePerRow[c.Row] += d
	v.freeCount += d
}

// FrameChanged re-derives what one adopted frame changed (ViewSink). Each
// bit that differs between old and new configures one cell, sink PIP or
// pad; that resource alone is re-derived from the configuration memory,
// which already holds new. A run of bits with the same owner (a cell's
// word, a pad's byte) re-derives it once, and a tile's free status once per
// frame. old equals new for a frame rewritten with its own content; the
// view still catches up with the device generation.
func (v *view) FrameChanged(addr fabric.FrameAddr, old, new []uint32) {
	dev := v.dev
	var last fabric.BitOwner
	tile := fabric.Coord{Row: -1} // the last tile whose free status was re-derived
	for w := range new {
		for x := old[w] ^ new[w]; x != 0; x &= x - 1 {
			o := dev.OwnerOfBit(addr, w*32+bits.TrailingZeros32(x))
			if o == last {
				continue
			}
			last = o
			switch o.Kind {
			case fabric.BitCell:
				v.markNode(dev.NodeIDAt(o.Tile, fabric.LocalOutX(o.Local)))
				v.markNode(dev.NodeIDAt(o.Tile, fabric.LocalOutXQ(o.Local)))
			case fabric.BitPIP:
				v.markNode(dev.NodeIDAt(o.Tile, o.Local))
				if src := dev.PIPSource(o.Tile, o.Local, o.PIP); src != fabric.InvalidNode {
					v.markNode(src)
				}
			case fabric.BitPad:
				// The pad node, and every wire its OutMask can select.
				v.markNode(dev.PadNodeID(o.Pad))
				for b := 0; b < fabric.PadOutSources; b++ {
					v.markNode(dev.PadOutSourceNode(o.Pad, b))
				}
			}
			if (o.Kind == fabric.BitCell || o.Kind == fabric.BitPIP) && o.Tile != tile {
				tile = o.Tile
				v.markTileFree(tile)
			}
		}
	}
	v.gen = dev.Generation()
}

// terminalDriver walks backwards from a sink through enabled PIPs to the
// terminal source (cell output or input pad). It also returns the chain of
// nodes from the driver to the sink (driver first). An error is returned if
// the sink resolves to zero or multiple drivers (the engine refuses to
// relocate around malformed nets).
func (v *view) terminalDriver(c fabric.Coord, sinkLocal int) (fabric.NodeID, []fabric.NodeID, error) {
	dev := v.dev
	var chain []fabric.NodeID
	cur := dev.NodeIDAt(c, sinkLocal)
	seen := map[fabric.NodeID]bool{}
	for {
		if seen[cur] {
			return fabric.InvalidNode, nil, fmt.Errorf("relocate: routing loop at node %d", cur)
		}
		seen[cur] = true
		chain = append(chain, cur)
		if _, ok := dev.PadOfNode(cur); ok {
			break
		}
		cc, local, _ := dev.SplitNode(cur)
		kind, _, _ := fabric.DecodeLocal(local)
		if kind == fabric.KindOutX || kind == fabric.KindOutXQ {
			break
		}
		srcs := dev.EnabledSourceNodes(cc, local)
		switch len(srcs) {
		case 1:
			cur = srcs[0]
		case 0:
			return fabric.InvalidNode, nil, fmt.Errorf("relocate: sink %v/%d has no driver", c, sinkLocal)
		default:
			return fabric.InvalidNode, nil, fmt.Errorf("relocate: sink %v/%d has %d parallel drivers", c, sinkLocal, len(srcs))
		}
	}
	// chain is sink..driver; reverse.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain[0], chain, nil
}

// terminalSink is a leaf consumer of a net: a cell input pin or an output
// pad, plus the wire that directly feeds it.
type terminalSink struct {
	node    fabric.NodeID // pin or pad node
	lastSrc fabric.NodeID // the enabled source feeding it on the old path
}

// forwardCone walks forward from a source node through enabled PIPs,
// returning the terminal sinks and every intermediate node of the tree.
func (v *view) forwardCone(src fabric.NodeID) (sinks []terminalSink, tree []fabric.NodeID) {
	dev := v.dev
	seen := map[fabric.NodeID]bool{}
	var walk func(n fabric.NodeID)
	walk = func(n fabric.NodeID) {
		if seen[n] {
			return
		}
		seen[n] = true
		tree = append(tree, n)
		for e := range dev.Fanout(n) {
			if dev.PIPMask(e.SinkTile, e.SinkLocal)>>e.Bit&1 != 1 {
				continue
			}
			kind, _, _ := fabric.DecodeLocal(e.SinkLocal)
			switch kind {
			case fabric.KindPinI, fabric.KindPinBX, fabric.KindPinCE:
				sinks = append(sinks, terminalSink{node: e.Sink, lastSrc: n})
			default:
				walk(e.Sink)
			}
		}
		// The output pad fed by this node, if any: the candidate pad at the
		// wire's exit position.
		if v.fedByPad(n) {
			p, _ := v.padCandidate(n)
			sinks = append(sinks, terminalSink{node: dev.PadNodeID(p), lastSrc: n})
		}
	}
	walk(src)
	return sinks, tree
}

func edgeOf(dev *fabric.Device, out fabric.Coord) (fabric.Dir, int) {
	switch {
	case out.Row < 0:
		return fabric.North, out.Col
	case out.Row >= dev.Rows:
		return fabric.South, out.Col
	case out.Col < 0:
		return fabric.West, out.Row
	case out.Col >= dev.Cols:
		return fabric.East, out.Row
	}
	return fabric.North, -1
}

// exclusiveSuffix returns the tail of a driver->sink chain that serves only
// this sink (no other enabled fanout), INCLUDING the anchor node it hangs
// off (the last shared node, or the driver). Passing the result to
// freeChain disables the entry hop into the exclusive region as well as
// every hop inside it — leaving no driven-but-unconsumed wire behind —
// while the anchor's own connectivity (serving other sinks) is untouched.
func (v *view) exclusiveSuffix(chain []fabric.NodeID) []fabric.NodeID {
	dev := v.dev
	// chain[0] is the terminal driver; the last element the sink pin.
	cut := len(chain) - 1 // default: only the sink itself is exclusive
	for i := len(chain) - 2; i >= 1; i-- {
		n := chain[i]
		shared := false
		for e := range dev.Fanout(n) {
			if dev.PIPMask(e.SinkTile, e.SinkLocal)>>e.Bit&1 != 1 {
				continue
			}
			if i+1 < len(chain) && e.Sink == chain[i+1] {
				continue
			}
			shared = true
			break
		}
		if v.fedByPad(n) {
			shared = true
		}
		if shared {
			break
		}
		cut = i
	}
	return chain[cut-1:] // cut >= 1: include the anchor for the entry hop
}

// findFreeCLB locates a free CLB near a coordinate (for the auxiliary
// relocation circuit, which "must be implemented in a nearby free CLB"),
// excluding the given coordinates.
//
// The lookup walks expanding Manhattan rings around the target over the
// row-bucketed index: each ring of radius d visits only the (at most two)
// candidate columns per row, rows with no free CLB are skipped outright, and
// the first hit is the answer — cost O(neighbourhood of the nearest free
// CLB), not O(free set). Enumeration order matches the previous full scan's
// tie-break exactly: smallest distance, then smallest row, then smallest
// column (rows ascend within a ring, and the west candidate precedes the
// east one).
func (v *view) findFreeCLB(near fabric.Coord, exclude ...fabric.Coord) (fabric.Coord, error) {
	v.refresh()
	free := v.freeCount
	for i, c := range exclude {
		dup := false
		for _, p := range exclude[:i] {
			if p == c {
				dup = true
				break
			}
		}
		if !dup && v.freeCLB[v.dev.TileIndex(c)] {
			free--
		}
	}
	if free > 0 {
		dev := v.dev
		isHit := func(row, col int) bool {
			if col < 0 || col >= dev.Cols {
				return false
			}
			c := fabric.Coord{Row: row, Col: col}
			if !v.freeCLB[dev.TileIndex(c)] {
				return false
			}
			for _, e := range exclude {
				if e == c {
					return false
				}
			}
			return true
		}
		maxD := dev.Rows + dev.Cols
		for d := 0; d <= maxD; d++ {
			for dr := -d; dr <= d; dr++ {
				row := near.Row + dr
				if row < 0 || row >= dev.Rows || v.freePerRow[row] == 0 {
					continue
				}
				rem := d - abs(dr)
				if isHit(row, near.Col-rem) {
					return fabric.Coord{Row: row, Col: near.Col - rem}, nil
				}
				if rem > 0 && isHit(row, near.Col+rem) {
					return fabric.Coord{Row: row, Col: near.Col + rem}, nil
				}
			}
		}
	}
	return fabric.Coord{}, fmt.Errorf("relocate: no free CLB available near %v", near)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
