package relocate

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/route"
)

// NetMove reports one completed routing-resource relocation (paper Fig. 5).
type NetMove struct {
	Sink fabric.NodeID
	// OldDelayNs and NewDelayNs are the propagation delays of the two
	// paths; while both were paralleled the observed delay is the longer
	// of the two and the destination input shows an interval of fuzziness
	// (paper Fig. 6).
	OldDelayNs, NewDelayNs float64
	Frames                 int
	Seconds                float64
}

// ParallelDelayNs returns the delay that must be assumed for transient
// analysis while the paths were paralleled: the longer of the two.
func (m *NetMove) ParallelDelayNs() float64 {
	if m.OldDelayNs > m.NewDelayNs {
		return m.OldDelayNs
	}
	return m.NewDelayNs
}

// FuzzinessNs returns the width of the fuzziness interval seen at the
// destination input while both paths carried the signal: the difference of
// the two propagation delays (Fig. 6).
func (m *NetMove) FuzzinessNs() float64 {
	d := m.NewDelayNs - m.OldDelayNs
	if d < 0 {
		d = -d
	}
	return d
}

// RerouteSink relocates the routing resources feeding one sink pin: an
// alternative path from the net's driver is first established in parallel
// with the original, both stay connected for at least one clock, and the
// original path is then disconnected and released for reuse ("the
// interconnections involved are first duplicated in order to establish an
// alternative path, and then disconnected, becoming available to be
// reused"). The old path's exclusive portion returns to the free pool. The
// replica path uses no single or hex wire of the avoid tiles, so a caller
// can force a detour around a corridor it wants cleared.
func (e *Engine) RerouteSink(sinkTile fabric.Coord, sinkLocal int, avoid ...fabric.Coord) (*NetMove, error) {
	e.view.refresh()
	start := e.Tool.Port().Elapsed()
	frames0 := e.Tool.FramesWritten()

	driver, oldChain, err := e.view.terminalDriver(sinkTile, sinkLocal)
	if err != nil {
		return nil, err
	}
	sink := e.Dev.NodeIDAt(sinkTile, sinkLocal)

	// Route the replica path with free resources only.
	r := e.FreeRouter()
	for _, c := range avoid {
		for local := 0; local < fabric.NodeSlots; local++ {
			kind, _, _ := fabric.DecodeLocal(local)
			if kind == fabric.KindSingle || kind == fabric.KindHex {
				r.Block(e.Dev.NodeIDAt(c, local))
			}
		}
	}
	routed, err := r.RouteDisjoint([]route.Net{{Name: "reroute", Source: driver, Sinks: []fabric.NodeID{sink}}})
	if err != nil {
		return nil, fmt.Errorf("relocate: no free path for reroute: %w", err)
	}
	newPath := routed[0].Paths[sink]

	mv := &NetMove{
		Sink:       sink,
		OldDelayNs: route.PathDelayNs(e.Dev, oldChain),
		NewDelayNs: route.PathDelayNs(e.Dev, newPath),
	}

	// Duplicate: enable the replica path source-side first.
	if err := e.Tool.SetPath(newPath, true); err != nil {
		return nil, err
	}
	// Both paths in parallel for at least one clock; the observed delay is
	// the longer of the two.
	if err := e.tick(1); err != nil {
		return nil, err
	}
	// Disconnect the original path: sink hop first, then the exclusive
	// wires back towards the shared trunk. The sink itself now has two
	// drivers; the suffix (at least the old sink hop) drops only the old one.
	if err := e.freeChain(e.view.exclusiveSuffix(oldChain)); err != nil {
		return nil, err
	}
	if err := e.tick(0); err != nil {
		return nil, err
	}

	e.Stats.NetsRelocated++
	mv.Frames = e.Tool.FramesWritten() - frames0
	mv.Seconds = e.Tool.Port().Elapsed() - start
	return mv, nil
}
