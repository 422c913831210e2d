// Package place maps technology netlists onto the fabric: it packs LUT/FF
// pairs into logic cells (Virtex-style), assigns cells to CLBs inside a
// rectangular region, binds primary I/O to IOB pads, and drives the router.
// The result is a Design — the live object the simulator executes and the
// relocation engine rearranges.
package place

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/route"
)

// Design is a netlist implemented on the device: placement, pad binding and
// routed nets. It is the unit the paper's tool relocates and defragments.
type Design struct {
	Name string
	Dev  *fabric.Device
	NL   *netlist.Netlist
	// Region is the rectangle the logic was placed into.
	Region fabric.Rect
	// CellOf maps cell-occupying netlist nodes (LUT, FF, latch, const,
	// RAM) to their logic cell. A LUT packed with the FF it feeds shares
	// the FF's cell and has no entry of its own in Occupied beyond it.
	CellOf map[netlist.ID]fabric.CellRef
	// PadOf maps primary inputs and outputs to their pads.
	PadOf map[netlist.ID]fabric.PadRef
	// SourceOf maps each value-producing netlist node to the fabric node
	// that carries its value (cell output or input pad).
	SourceOf map[netlist.ID]fabric.NodeID
	// Nets are the routed signal nets as Place routed them. The run-time
	// manager neither maintains nor persists them: a warm load or a
	// recovery leaves them empty and a move leaves them stale, because
	// configuration memory is the one record of a design's routing.
	Nets []route.RoutedNet
}

// Options controls placement.
type Options struct {
	// Region places the design into this rectangle; the zero value
	// auto-sizes a region anchored at (0,0) at half utilisation.
	Region fabric.Rect
	// ReservePads skips pads already used by other designs. Inputs bind on
	// the west edge and outputs on the east.
	ReservePads map[fabric.PadRef]bool
	// Router to use, already blocked with the occupancy the placement must
	// avoid (the run-time manager passes relocate.Engine.FreeRouter); nil
	// builds a fresh one.
	Router *route.Router
	// Contain confines cell-driven routing to the design's region (boundary
	// branches to pads stay free): the resulting interior image is
	// translation-invariant and capturable as a template. Containment makes
	// routing strictly harder; callers should fall back to an unconstrained
	// placement when it fails.
	Contain bool
}

// cellsNeeded counts logic cells after LUT/FF packing.
func cellsNeeded(nl *netlist.Netlist) int {
	packed := packCells(nl)
	return len(packed)
}

// packedCell is one logic cell's worth of netlist nodes.
type packedCell struct {
	lut   netlist.ID // KindLUT/KindConst/KindRAM occupying the LUT, or None
	state netlist.ID // KindFF/KindLatch occupying the storage element, or None
}

// packCells groups netlist nodes into logic cells: an FF (or latch) packs
// with the LUT driving its D when that is legal; everything else gets its
// own cell.
func packCells(nl *netlist.Netlist) []packedCell {
	// Count LUT fanout to FFs: a LUT may host at most one FF.
	taken := map[netlist.ID]netlist.ID{} // LUT id -> FF id packed with it
	var cells []packedCell
	for id, nd := range nl.Nodes {
		if nd.Kind != netlist.KindFF && nd.Kind != netlist.KindLatch {
			continue
		}
		d := nd.D
		if d != netlist.None && nl.Nodes[d].Kind == netlist.KindLUT {
			if _, used := taken[d]; !used {
				taken[d] = netlist.ID(id)
				continue
			}
		}
	}
	for id, nd := range nl.Nodes {
		switch nd.Kind {
		case netlist.KindLUT, netlist.KindConst, netlist.KindRAM:
			pc := packedCell{lut: netlist.ID(id), state: netlist.None}
			if ff, ok := taken[netlist.ID(id)]; ok {
				pc.state = ff
			}
			cells = append(cells, pc)
		case netlist.KindFF, netlist.KindLatch:
			d := nd.D
			if d != netlist.None && nl.Nodes[d].Kind == netlist.KindLUT && taken[d] == netlist.ID(id) {
				continue // packed with its LUT
			}
			cells = append(cells, packedCell{lut: netlist.None, state: netlist.ID(id)})
		}
	}
	return cells
}

// AutoRegion returns a region sized for the netlist at the given utilisation
// anchored at the rectangle's (Row, Col).
func AutoRegion(dev *fabric.Device, nl *netlist.Netlist, row, col int, utilisation float64) (fabric.Rect, error) {
	if utilisation <= 0 || utilisation > 1 {
		utilisation = 0.5
	}
	need := cellsNeeded(nl)
	perCLB := int(float64(fabric.CellsPerCLB) * utilisation)
	if perCLB < 1 {
		perCLB = 1
	}
	clbs := (need + perCLB - 1) / perCLB
	if clbs < 1 {
		clbs = 1
	}
	// Near-square region.
	w := 1
	for w*w < clbs {
		w++
	}
	h := (clbs + w - 1) / w
	r := fabric.Rect{Row: row, Col: col, H: h, W: w}
	if r.Row+r.H > dev.Rows || r.Col+r.W > dev.Cols {
		return fabric.Rect{}, fmt.Errorf("place: design needs %v, exceeds device %dx%d", r, dev.Rows, dev.Cols)
	}
	return r, nil
}

// Place implements a netlist on the device and returns the Design. The
// device configuration (cells, PIPs, pads) is written through the
// designer-level path, as the traditional development tool would.
func Place(dev *fabric.Device, nl *netlist.Netlist, opts Options) (*Design, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	region := opts.Region
	if region.Area() == 0 {
		var err error
		region, err = AutoRegion(dev, nl, 0, 0, 0.5)
		if err != nil {
			return nil, err
		}
	}
	cells := packCells(nl)
	if region.Area()*fabric.CellsPerCLB < len(cells) {
		return nil, fmt.Errorf("place: %d cells exceed region %v capacity %d",
			len(cells), region, region.Area()*fabric.CellsPerCLB)
	}

	d := &Design{
		Name:     nl.Name,
		Dev:      dev,
		NL:       nl,
		Region:   region,
		CellOf:   map[netlist.ID]fabric.CellRef{},
		PadOf:    map[netlist.ID]fabric.PadRef{},
		SourceOf: map[netlist.ID]fabric.NodeID{},
	}

	// Pad reservations must be atomic: on any failure the pads this design
	// took are handed back, so a shared ReservePads map never leaks
	// reservations for a design that was not registered. (The device-side
	// writes of a failed placement are the caller's rollback problem — the
	// run-time manager covers them with a configuration checkpoint.)
	reserved := opts.ReservePads
	fail := func(err error) (*Design, error) {
		if reserved != nil {
			for _, p := range d.PadOf {
				delete(reserved, p)
			}
		}
		return nil, err
	}

	// Assign packed cells to CLB cells row-major inside the region,
	// spreading across CLBs first (better routability than filling each
	// CLB to 4/4 before moving on).
	coords := region.Coords()
	slot := 0
	assign := func() fabric.CellRef {
		ref := fabric.CellRef{Coord: coords[slot%len(coords)], Cell: slot / len(coords)}
		slot++
		return ref
	}
	for _, pc := range cells {
		ref := assign()
		if pc.lut != netlist.None {
			d.CellOf[pc.lut] = ref
		}
		if pc.state != netlist.None {
			d.CellOf[pc.state] = ref
		}
	}

	// Bind pads.
	if err := d.bindPads(opts.ReservePads); err != nil {
		return fail(err)
	}

	// Write cell configurations and compute value sources.
	if err := d.configureCells(); err != nil {
		return fail(err)
	}

	// Build and route nets.
	nets, err := d.buildNets()
	if err != nil {
		return fail(err)
	}
	if opts.Contain {
		containNets(dev, nets, region)
	}
	router := opts.Router
	if router == nil {
		router = route.NewRouter(dev)
	}
	routed, err := router.RouteAll(nets)
	if err != nil {
		return fail(err)
	}
	if err := route.Apply(dev, routed); err != nil {
		return fail(err)
	}
	d.Nets = routed
	return d, nil
}

func (d *Design) bindPads(used map[fabric.PadRef]bool) error {
	if used == nil {
		used = map[fabric.PadRef]bool{}
	}
	alloc := func(side fabric.Dir) (fabric.PadRef, error) {
		if p, ok := ReservePad(d.Dev, used, side); ok {
			return p, nil
		}
		return fabric.PadRef{}, fmt.Errorf("place: out of pads on side %v", side)
	}
	for _, id := range d.NL.Inputs() {
		p, err := alloc(fabric.West)
		if err != nil {
			return err
		}
		d.PadOf[id] = p
		d.Dev.WritePad(p, fabric.PadConfig{Input: true})
		d.SourceOf[id] = d.Dev.PadNodeID(p)
	}
	for _, id := range d.NL.Outputs() {
		p, err := alloc(fabric.East)
		if err != nil {
			return err
		}
		d.PadOf[id] = p
		// Output driver enabled when the net is applied.
	}
	return nil
}

// ReservePad reserves the first pad on a side that used does not hold,
// scanning positions in ascending order, and marks it in used. It is the one
// pad-binding rule: the placer and the run-time manager's warm loads both
// bind through it, so a warm load binds the pads a cold load would.
func ReservePad(dev *fabric.Device, used map[fabric.PadRef]bool, side fabric.Dir) (fabric.PadRef, bool) {
	max := dev.Cols
	if side == fabric.West || side == fabric.East {
		max = dev.Rows
	}
	for pos := 0; pos < max; pos++ {
		for k := 0; k < fabric.PadsPerEdgeTile; k++ {
			p := fabric.PadRef{Side: side, Pos: pos, K: k}
			if !used[p] {
				used[p] = true
				return p, true
			}
		}
	}
	return fabric.PadRef{}, false
}

// configureCells writes each occupied cell's configuration and records the
// fabric node carrying each netlist node's value.
func (d *Design) configureCells() error {
	// Group node->cell by cell.
	type occupants struct{ lut, state netlist.ID }
	byCell := map[fabric.CellRef]*occupants{}
	for id, ref := range d.CellOf {
		oc := byCell[ref]
		if oc == nil {
			oc = &occupants{lut: netlist.None, state: netlist.None}
			byCell[ref] = oc
		}
		switch d.NL.Nodes[id].Kind {
		case netlist.KindLUT, netlist.KindConst, netlist.KindRAM:
			oc.lut = id
		case netlist.KindFF, netlist.KindLatch:
			oc.state = id
		}
	}
	for ref, oc := range byCell {
		cc := fabric.CellConfig{Used: true}
		if oc.lut != netlist.None {
			nd := d.NL.Nodes[oc.lut]
			switch nd.Kind {
			case netlist.KindLUT:
				cc.LUT = fabric.ExpandLUT(nd.LUT, len(nd.Ins))
			case netlist.KindConst:
				if nd.LUT&1 == 1 {
					cc.LUT = fabric.LUTConst1
				} else {
					cc.LUT = fabric.LUTConst0
				}
			case netlist.KindRAM:
				cc.RAM = true
				cc.CEUsed = true // write enable on CE pin
			}
			d.SourceOf[oc.lut] = d.Dev.NodeIDAt(ref.Coord, fabric.LocalOutX(ref.Cell))
		}
		if oc.state != netlist.None {
			nd := d.NL.Nodes[oc.state]
			cc.FF = true
			cc.Init = nd.Init
			cc.Latch = nd.Kind == netlist.KindLatch
			// D source: packed LUT or BX pin.
			packed := oc.lut != netlist.None && nd.D == oc.lut
			cc.DFromBX = !packed
			if nd.Kind == netlist.KindLatch || nd.CE != netlist.None {
				cc.CEUsed = true
			}
			d.SourceOf[oc.state] = d.Dev.NodeIDAt(ref.Coord, fabric.LocalOutXQ(ref.Cell))
		}
		d.Dev.WriteCell(ref, cc)
	}
	return nil
}

// buildNets derives the routing problem from the netlist and placement.
func (d *Design) buildNets() ([]route.Net, error) {
	// Collect sinks per driving node.
	sinks := map[netlist.ID][]fabric.NodeID{}
	addSink := func(drv netlist.ID, node fabric.NodeID) {
		sinks[drv] = append(sinks[drv], node)
	}
	for id, nd := range d.NL.Nodes {
		switch nd.Kind {
		case netlist.KindLUT, netlist.KindRAM:
			ref := d.CellOf[netlist.ID(id)]
			for k, in := range nd.Ins {
				addSink(in, d.Dev.NodeIDAt(ref.Coord, fabric.LocalPinI(ref.Cell, k)))
			}
			if nd.Kind == netlist.KindRAM {
				addSink(nd.D, d.Dev.NodeIDAt(ref.Coord, fabric.LocalPinBX(ref.Cell)))
				if nd.CE != netlist.None {
					addSink(nd.CE, d.Dev.NodeIDAt(ref.Coord, fabric.LocalPinCE(ref.Cell)))
				}
			}
		case netlist.KindFF, netlist.KindLatch:
			ref := d.CellOf[netlist.ID(id)]
			// D via BX unless packed with its driving LUT in this cell.
			packed := nd.D != netlist.None &&
				d.NL.Nodes[nd.D].Kind == netlist.KindLUT &&
				d.CellOf[nd.D] == ref
			if !packed {
				addSink(nd.D, d.Dev.NodeIDAt(ref.Coord, fabric.LocalPinBX(ref.Cell)))
			}
			if nd.CE != netlist.None {
				addSink(nd.CE, d.Dev.NodeIDAt(ref.Coord, fabric.LocalPinCE(ref.Cell)))
			}
		case netlist.KindOutput:
			addSink(nd.Ins[0], d.Dev.PadNodeID(d.PadOf[netlist.ID(id)]))
		}
	}
	var nets []route.Net
	for drv, sk := range sinks {
		src, ok := d.SourceOf[drv]
		if !ok {
			return nil, fmt.Errorf("place: node %s has sinks but no source", d.NL.Nodes[drv].Name)
		}
		nets = append(nets, route.Net{Name: d.NL.Nodes[drv].Name, Source: src, Sinks: sk})
	}
	// Deterministic order (map iteration is random): route big nets first.
	SortNets(nets)
	return nets, nil
}

// containNets bounds every cell-driven net to the region so its interior
// routing cannot escape. Pad sinks of a bounded net are moved to the end of
// the sink list: the net's tree stays fully region-contained while the
// interior pin sinks are routed, so no interior path gets grafted onto an
// out-of-region branch laid down for a pad.
func containNets(dev *fabric.Device, nets []route.Net, region fabric.Rect) {
	for i := range nets {
		n := &nets[i]
		if _, isPad := dev.PadOfNode(n.Source); isPad {
			continue // input net: re-routed from its pad at every load
		}
		n.Bound = region
		sort.SliceStable(n.Sinks, func(a, b int) bool {
			_, padA := dev.PadOfNode(n.Sinks[a])
			_, padB := dev.PadOfNode(n.Sinks[b])
			return !padA && padB
		})
	}
}

// SortNets orders a routing problem the way the placer does — descending
// fanout, then name. The warm-load and translation paths route boundary
// nets through the same ordering so that the frames they produce are
// reproducible and mutually bit-identical.
func SortNets(nets []route.Net) {
	sort.Slice(nets, func(i, j int) bool {
		if len(nets[i].Sinks) != len(nets[j].Sinks) {
			return len(nets[i].Sinks) > len(nets[j].Sinks)
		}
		return nets[i].Name < nets[j].Name
	})
}

// OccupiedCells returns every logic cell used by the design, in
// deterministic (row, column, cell) order.
func (d *Design) OccupiedCells() []fabric.CellRef {
	seen := map[fabric.CellRef]bool{}
	var out []fabric.CellRef
	for _, ref := range d.CellOf {
		if !seen[ref] {
			seen[ref] = true
			out = append(out, ref)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Cell < b.Cell
	})
	return out
}

// Rebind updates the design's cell bindings after a relocation moved the
// contents of one cell to another location (the configuration has already
// changed; this keeps the host-side view consistent).
func (d *Design) Rebind(from, to fabric.CellRef) {
	for id, ref := range d.CellOf {
		if ref == from {
			d.CellOf[id] = to
		}
	}
	fromX := d.Dev.NodeIDAt(from.Coord, fabric.LocalOutX(from.Cell))
	fromXQ := d.Dev.NodeIDAt(from.Coord, fabric.LocalOutXQ(from.Cell))
	for id, n := range d.SourceOf {
		switch n {
		case fromX:
			d.SourceOf[id] = d.Dev.NodeIDAt(to.Coord, fabric.LocalOutX(to.Cell))
		case fromXQ:
			d.SourceOf[id] = d.Dev.NodeIDAt(to.Coord, fabric.LocalOutXQ(to.Cell))
		}
	}
}
