package rlm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/template"
)

// This file is the facade side of the template cache: capturing a cold
// load's pre-routed image and splicing it back on a warm load. Everything
// here is gated on s.tmpl != nil (WithTemplateCache); with the cache off
// none of these paths run and the system behaves exactly as before. Moves
// never read the cache: every relocation is the replica path, which carries
// live state.

// boundaryGreedy is the A* heuristic weight for a warm load's boundary
// routing (see route.Router.Greedy). A warm load routes a handful of pad
// nets over hard-blocked occupancy; the admissible heuristic would expand
// nearly the whole search box per sink hunting a delay-optimal path nobody
// needs, turning the O(frame-I/O) splice back into an O(region) search.
// BenchmarkLoadWarmVsCold/warm (XCV50, six alternating runs per weight on a
// 2-vCPU Xeon VM) read 1.38-1.65 ms per load at weight 3 and 5.49-6.15 ms
// at weight 1.
const boundaryGreedy = 3

// TemplateStats returns the template cache statistics; ok is false when the
// cache is disabled.
func (s *System) TemplateStats() (template.Stats, bool) {
	if s.tmpl == nil {
		return template.Stats{}, false
	}
	return s.tmpl.Stats(), true
}

// captureTemplateLocked stores a freshly cold-loaded design's pre-routed
// image. Designs whose routing escapes their region (or that wire an input
// pad straight to an output pad) cannot be spliced elsewhere and are
// skipped.
func (s *System) captureTemplateLocked(d *place.Design) {
	canon := d.NL.Canonical()
	key := template.KeyFor(s.dev, d.Region, canon.Digest)
	if s.tmpl.Contains(key) {
		return
	}
	tpl, ok := template.Capture(s.dev, d, canon)
	if !ok {
		return
	}
	for _, ev := range s.tmpl.Put(key, tpl) {
		s.publish(Event{Kind: TemplateEvicted, Design: ev.String()})
	}
	s.publish(Event{Kind: TemplateStored, Design: d.Name})
}

// templateBoundaryNets builds the routing problem for a template's boundary
// nets at a region: each primary input's pad to its interior pin sinks, and
// each interior output driver to its pad. Outputs sharing a driver merge
// into one net, and the nets are in the placer's order (place.SortNets).
func templateBoundaryNets(dev *fabric.Device, tpl *template.Template, region fabric.Rect,
	nl *netlist.Netlist, padOf map[netlist.ID]fabric.PadRef) []route.Net {
	var nets []route.Net
	for k, id := range nl.Inputs() {
		bi := tpl.Inputs[k]
		if len(bi.Sinks) == 0 {
			continue // input feeds nothing
		}
		sinks := make([]fabric.NodeID, len(bi.Sinks))
		for i, r := range bi.Sinks {
			sinks[i] = r.At(dev, region)
		}
		nets = append(nets, route.Net{
			Name:   nl.Nodes[id].Name,
			Source: dev.PadNodeID(padOf[id]),
			Sinks:  sinks,
		})
	}
	bySrc := map[fabric.NodeID]int{}
	for k, id := range nl.Outputs() {
		src := tpl.Outputs[k].Source.At(dev, region)
		pad := dev.PadNodeID(padOf[id])
		if i, ok := bySrc[src]; ok {
			nets[i].Sinks = append(nets[i].Sinks, pad)
			continue
		}
		bySrc[src] = len(nets)
		nets = append(nets, route.Net{
			Name:   nl.Nodes[id].Name,
			Source: src,
			Sinks:  []fabric.NodeID{pad},
		})
	}
	place.SortNets(nets)
	return nets
}

// templateTables derives a design's cell and source tables at a region from
// a template, re-bound through the canonical numbering (the netlist may name
// and number its nodes differently from the one the template was captured
// from), with each primary input sourced at its pad.
func templateTables(dev *fabric.Device, tpl *template.Template, canon netlist.Canon, nl *netlist.Netlist,
	region fabric.Rect, padOf map[netlist.ID]fabric.PadRef) (map[netlist.ID]fabric.CellRef, map[netlist.ID]fabric.NodeID) {
	cellOf := make(map[netlist.ID]fabric.CellRef, len(tpl.CellOf))
	for _, cb := range tpl.CellOf {
		cellOf[canon.Order[cb.Canon]] = cb.At.At(region)
	}
	sourceOf := make(map[netlist.ID]fabric.NodeID, len(tpl.SourceOf))
	for _, sb := range tpl.SourceOf {
		sourceOf[canon.Order[sb.Canon]] = sb.At.At(dev, region)
	}
	for _, id := range nl.Inputs() {
		sourceOf[id] = dev.PadNodeID(padOf[id])
	}
	return cellOf, sourceOf
}

// tryWarmLoadLocked attempts the warm path for a load whose region has been
// validated and whose checkpoint is armed. Returns handled=false (and no
// error) on a cache miss or a clean pre-write fallback — the caller then
// runs the cold path. A non-nil error means the operation must roll back.
func (s *System) tryWarmLoadLocked(nl *netlist.Netlist, region fabric.Rect) (bool, error) {
	canon := nl.Canonical()
	key := template.KeyFor(s.dev, region, canon.Digest)
	tpl, ok := s.tmpl.Get(key)
	if !ok {
		s.publish(Event{Kind: TemplateMiss, Design: nl.Name})
		return false, nil
	}
	// Drain any in-flight stream: the warm path reads the engine's occupancy
	// view, which must reflect all delivered frames.
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return false, err
	}
	// The image splices only into untouched interconnect: another design's
	// routing may legally pass through a region the area manager reports
	// free, and a single overlapping node means the pre-routed frames would
	// corrupt it.
	used := tpl.UsedAt(s.dev, region)
	r := s.engine.FreeRouter()
	for _, n := range used {
		if r.Blocked(n) {
			s.tmpl.NoteFallback()
			return false, nil
		}
	}
	// Bind pads (inputs west, outputs east) by the placer's own rule, into a
	// fresh reservation map, so a fallback has nothing to release.
	padOf := map[netlist.ID]fabric.PadRef{}
	reserved := s.padsInUseLocked()
	bind := func(ids []netlist.ID, side fabric.Dir) bool {
		for _, id := range ids {
			p, ok := place.ReservePad(s.dev, reserved, side)
			if !ok {
				return false
			}
			padOf[id] = p
		}
		return true
	}
	if !bind(nl.Inputs(), fabric.West) || !bind(nl.Outputs(), fabric.East) {
		s.tmpl.NoteFallback()
		return false, nil
	}
	// Route only the boundary nets, over ground-truth occupancy plus the
	// image — zero interior routing.
	bnets := templateBoundaryNets(s.dev, tpl, region, nl, padOf)
	r.Block(used...)
	r.Greedy = boundaryGreedy
	routed, err := r.RouteDisjoint(bnets)
	if err != nil {
		s.tmpl.NoteFallback()
		return false, nil
	}
	// Commit through the designer path, exactly as a cold place-and-route
	// writes: the splice costs no port traffic, and the Sync below takes
	// the changed frames into the tool's shadow (the armed checkpoint covers
	// them if anything later fails).
	name := nl.Name
	s.noteUndoLocked(func(s *System) {
		delete(s.designs, name)
		delete(s.regions, name)
	})
	for _, ci := range tpl.Cells {
		s.dev.WriteCell(ci.At.At(region), ci.Cfg)
	}
	for _, path := range tpl.InteriorPaths(s.dev, region) {
		for i := 1; i < len(path); i++ {
			if err := route.EnablePathPIP(s.dev, path[i-1], path[i]); err != nil {
				return true, err
			}
		}
	}
	for _, id := range nl.Inputs() {
		s.dev.WritePad(padOf[id], fabric.PadConfig{Input: true})
	}
	if err := route.Apply(s.dev, routed); err != nil {
		return true, err
	}
	d := &place.Design{Name: name, Dev: s.dev, NL: nl, Region: region, PadOf: padOf}
	d.CellOf, d.SourceOf = templateTables(s.dev, tpl, canon, nl, region, padOf)
	id, err := s.area.AllocateAt(region)
	if err != nil {
		return true, fmt.Errorf("%w: %v", ErrRegionBusy, err)
	}
	s.designs[name] = d
	s.regions[name] = id
	// Adopt the splice as a cold load adopts its placement: the view
	// re-derives only the bits the splice changed, so the splice stays
	// O(frame-I/O) on the host side too.
	if err := s.engine.Tool.Sync(); err != nil {
		return true, err
	}
	s.publish(Event{Kind: TemplateHit, Design: name, Region: region})
	s.publish(Event{Kind: DesignLoaded, Design: name, Region: region})
	return true, nil
}
