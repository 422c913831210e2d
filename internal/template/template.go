// Package template implements a content-addressed store of pre-routed design
// templates. A template is captured from a placed-and-routed design whose
// interior routing is wholly contained in its region: because CLB frames are
// column-relative, the captured image is translation-invariant — the same
// cell words and PIP bits reproduce the design at any region of the same
// shape. The store keys images by canonical netlist digest plus region shape
// (plus device preset, since frame geometry is per-preset), so a repeated
// load of a popular design becomes frame splicing plus boundary-net routing
// instead of a full place-and-route, and a relocation of such a design
// becomes address translation plus a boundary patch instead of cell-by-cell
// replication.
package template

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
)

// Key identifies a template: what circuit, in what region shape, on what
// device family. The digest normalises node names and numbering away, so
// independently generated copies of the same circuit share a key.
type Key struct {
	Device string
	H, W   int
	Digest netlist.Digest
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%dx%d/%s", k.Device, k.H, k.W, k.Digest.Short())
}

// KeyFor builds the store key of a netlist targeted at a region shape.
func KeyFor(dev *fabric.Device, region fabric.Rect, digest netlist.Digest) Key {
	return Key{Device: dev.Name, H: region.H, W: region.W, Digest: digest}
}

// RelNode addresses a tile-local routing node relative to a region origin.
type RelNode struct {
	DRow, DCol int
	Local      int
}

// At resolves the relative node against a concrete region origin.
func (r RelNode) At(dev *fabric.Device, region fabric.Rect) fabric.NodeID {
	return dev.NodeIDAt(fabric.Coord{Row: region.Row + r.DRow, Col: region.Col + r.DCol}, r.Local)
}

// RelCell addresses a logic cell relative to a region origin.
type RelCell struct {
	DRow, DCol, Cell int
}

// At resolves the relative cell against a concrete region origin.
func (r RelCell) At(region fabric.Rect) fabric.CellRef {
	return fabric.CellRef{
		Coord: fabric.Coord{Row: region.Row + r.DRow, Col: region.Col + r.DCol},
		Cell:  r.Cell,
	}
}

// CellImage is one configured cell of the image.
type CellImage struct {
	At  RelCell
	Cfg fabric.CellConfig
}

// IntNet is a fully region-contained routed net: its driver and every path
// to a pin sink lie inside the region. (A branch of the same driver feeding
// an output pad is boundary routing and lives in Outputs instead.)
type IntNet struct {
	Source RelNode
	Paths  [][]RelNode // one per pin sink: source first, sink last
}

// BoundaryIn describes one primary input's interior contract, indexed by
// input declaration position: the terminal pin sinks its freshly bound pad
// must be routed to at load time.
type BoundaryIn struct {
	Sinks []RelNode
}

// BoundaryOut describes one primary output's interior contract, indexed by
// output declaration position: the interior driver node its freshly bound
// pad hangs off.
type BoundaryOut struct {
	Source RelNode
}

// CellBinding maps a canonical netlist id onto its image cell.
type CellBinding struct {
	Canon int32
	At    RelCell
}

// SourceBinding maps a canonical netlist id onto the interior node carrying
// its value (primary inputs are absent: their value source is the pad bound
// at load time).
type SourceBinding struct {
	Canon int32
	At    RelNode
}

// Template is a pre-routed, translation-invariant design image plus the
// boundary manifest and the book-keeping needed to re-bind it to a netlist
// that hashes the same.
type Template struct {
	Key Key

	Cells []CellImage
	Nets  []IntNet

	Inputs  []BoundaryIn
	Outputs []BoundaryOut

	CellOf   []CellBinding
	SourceOf []SourceBinding

	// used is every interior node the image occupies (sources, wires, pins),
	// sorted; the warm path conflict-checks its translation against the
	// engine's occupancy view before splicing a single frame.
	used []RelNode
}

// UsedAt translates the image's interior node set to a concrete region.
func (t *Template) UsedAt(dev *fabric.Device, region fabric.Rect) []fabric.NodeID {
	out := make([]fabric.NodeID, len(t.used))
	for i, r := range t.used {
		out[i] = r.At(dev, region)
	}
	return out
}

// relNodeOf converts an absolute node to region-relative form; ok is false
// for pads and for nodes whose tile lies outside the region.
func relNodeOf(dev *fabric.Device, region fabric.Rect, n fabric.NodeID) (RelNode, bool) {
	c, local, ok := dev.SplitNode(n)
	if !ok || !region.Contains(c) {
		return RelNode{}, false
	}
	return RelNode{DRow: c.Row - region.Row, DCol: c.Col - region.Col, Local: local}, true
}

// relPath converts a whole path; ok is false if any node escapes the region.
func relPath(dev *fabric.Device, region fabric.Rect, path []fabric.NodeID) ([]RelNode, bool) {
	out := make([]RelNode, len(path))
	for i, n := range path {
		r, ok := relNodeOf(dev, region, n)
		if !ok {
			return nil, false
		}
		out[i] = r
	}
	return out, true
}

// Capture extracts a template from a freshly placed design (d.Nets must
// describe the live routing — true immediately after place-and-route). It
// returns false when the design is not translation-safe: some interior path
// escapes its region, or an output is driven straight from an input pad.
func Capture(dev *fabric.Device, d *place.Design, canon netlist.Canon) (*Template, bool) {
	region := d.Region
	t := &Template{Key: KeyFor(dev, region, canon.Digest)}

	// Pad node -> output declaration position, for classifying pad sinks.
	outIDs := d.NL.Outputs()
	padOut := map[fabric.NodeID]int{}
	for k, id := range outIDs {
		if p, ok := d.PadOf[id]; ok {
			padOut[dev.PadNodeID(p)] = k
		}
	}
	inIDs := d.NL.Inputs()
	padIn := map[fabric.NodeID]int{}
	for k, id := range inIDs {
		if p, ok := d.PadOf[id]; ok {
			padIn[dev.PadNodeID(p)] = k
		}
	}

	t.Inputs = make([]BoundaryIn, len(inIDs))
	t.Outputs = make([]BoundaryOut, len(outIDs))
	outBound := make([]bool, len(outIDs))

	for i := range d.Nets {
		rn := &d.Nets[i]
		if k, ok := padIn[rn.Source]; ok {
			// Input net: pad-driven, re-routed at load. Record its interior
			// pin sinks; a pad sink here means an output wired straight to an
			// input, which has no interior driver to hang a template off.
			for _, sink := range rn.Sinks {
				if _, isPad := padOut[sink]; isPad {
					return nil, false
				}
				r, ok := relNodeOf(dev, region, sink)
				if !ok {
					return nil, false
				}
				t.Inputs[k].Sinks = append(t.Inputs[k].Sinks, r)
			}
			continue
		}
		src, ok := relNodeOf(dev, region, rn.Source)
		if !ok {
			return nil, false // driver outside its own region: not capturable
		}
		in := IntNet{Source: src}
		for _, sink := range rn.Sinks {
			if k, isPad := padOut[sink]; isPad {
				// Boundary branch: the pad-side path is re-routed at load;
				// only the interior driver is recorded.
				t.Outputs[k].Source = src
				outBound[k] = true
				continue
			}
			rp, ok := relPath(dev, region, rn.Paths[sink])
			if !ok {
				return nil, false // interior routing escapes the region
			}
			in.Paths = append(in.Paths, rp)
		}
		if len(in.Paths) > 0 {
			t.Nets = append(t.Nets, in)
		}
	}
	// Every output must have found an interior driver (outputs with no net at
	// all cannot happen: buildNets errors on a sink-less source only, and an
	// output IS a sink of its driver's net).
	for k := range t.Outputs {
		if !outBound[k] {
			return nil, false
		}
	}

	// Cells, in deterministic (row, col, cell) order.
	for _, ref := range d.OccupiedCells() {
		if !region.Contains(ref.Coord) {
			return nil, false
		}
		t.Cells = append(t.Cells, CellImage{
			At: RelCell{
				DRow: ref.Row - region.Row, DCol: ref.Col - region.Col, Cell: ref.Cell,
			},
			Cfg: dev.ReadCell(ref),
		})
	}

	// Canonical-id bindings.
	for id, ref := range d.CellOf {
		t.CellOf = append(t.CellOf, CellBinding{
			Canon: canon.Index[id],
			At:    RelCell{DRow: ref.Row - region.Row, DCol: ref.Col - region.Col, Cell: ref.Cell},
		})
	}
	sort.Slice(t.CellOf, func(i, j int) bool { return t.CellOf[i].Canon < t.CellOf[j].Canon })
	for id, src := range d.SourceOf {
		if d.NL.Nodes[id].Kind == netlist.KindInput {
			continue // pad source, re-bound at load
		}
		r, ok := relNodeOf(dev, region, src)
		if !ok {
			return nil, false
		}
		t.SourceOf = append(t.SourceOf, SourceBinding{Canon: canon.Index[id], At: r})
	}
	sort.Slice(t.SourceOf, func(i, j int) bool { return t.SourceOf[i].Canon < t.SourceOf[j].Canon })

	t.buildUsed()
	return t, true
}

// buildUsed computes the sorted interior node set of the image: every node
// on an interior path plus the output nodes of every configured cell (a
// configured cell's outputs are occupancy even when unrouted).
func (t *Template) buildUsed() {
	seen := map[RelNode]bool{}
	add := func(r RelNode) {
		if !seen[r] {
			seen[r] = true
			t.used = append(t.used, r)
		}
	}
	for i := range t.Nets {
		add(t.Nets[i].Source)
		for _, p := range t.Nets[i].Paths {
			for _, r := range p {
				add(r)
			}
		}
	}
	for _, ci := range t.Cells {
		add(RelNode{DRow: ci.At.DRow, DCol: ci.At.DCol, Local: fabric.LocalOutX(ci.At.Cell)})
		add(RelNode{DRow: ci.At.DRow, DCol: ci.At.DCol, Local: fabric.LocalOutXQ(ci.At.Cell)})
	}
	sort.Slice(t.used, func(i, j int) bool {
		a, b := t.used[i], t.used[j]
		if a.DRow != b.DRow {
			return a.DRow < b.DRow
		}
		if a.DCol != b.DCol {
			return a.DCol < b.DCol
		}
		return a.Local < b.Local
	})
}

// HasRAM reports whether the image configures any distributed RAM cell.
func (t *Template) HasRAM() bool {
	for _, ci := range t.Cells {
		if ci.Cfg.RAM {
			return true
		}
	}
	return false
}

// InteriorPaths translates the image's interior routing to a concrete
// region: every path of every interior net, source first, in capture order
// (t.Nets, then each net's paths), so whoever enables their PIPs does so in
// one deterministic order.
func (t *Template) InteriorPaths(dev *fabric.Device, region fabric.Rect) [][]fabric.NodeID {
	var out [][]fabric.NodeID
	for i := range t.Nets {
		for _, p := range t.Nets[i].Paths {
			abs := make([]fabric.NodeID, len(p))
			for j, r := range p {
				abs[j] = r.At(dev, region)
			}
			out = append(out, abs)
		}
	}
	return out
}
