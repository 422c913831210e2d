package route

import (
	"testing"

	"repro/internal/fabric"
)

// The search lanes time only routing: the router is built and warmed once,
// outside the timed loop, and Reset per iteration as the engines reuse
// theirs. BenchmarkNewRouter times construction on its own.

// warmRouter builds a router and routes nets once: the first RouteAll
// allocates the negotiation state, a one-time cost that would otherwise
// spread over b.N and make B/op depend on the iteration count.
func warmRouter(b *testing.B, dev *fabric.Device, nets []Net) *Router {
	b.Helper()
	r := NewRouter(dev)
	if _, err := r.RouteAll(nets); err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkRouteAcrossDevice(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	src := dev.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
	sink := dev.NodeIDAt(fabric.Coord{Row: 25, Col: 39}, fabric.LocalPinI(1, 1))
	nets := []Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}}
	r := warmRouter(b, dev, nets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(nil)
		if _, err := r.RouteAll(nets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteFanout16(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	src := dev.NodeIDAt(fabric.Coord{Row: 14, Col: 20}, fabric.LocalOutXQ(0))
	var sinks []fabric.NodeID
	for i := 0; i < 16; i++ {
		sinks = append(sinks, dev.NodeIDAt(
			fabric.Coord{Row: 6 + (i%4)*5, Col: 8 + (i/4)*8}, fabric.LocalPinI(i%4, i/4%4)))
	}
	nets := []Net{{Name: "n", Source: src, Sinks: sinks}}
	r := warmRouter(b, dev, nets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(nil)
		if _, err := r.RouteAll(nets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteAll is the router-only gate bench for the bounded-search
// work: a mixed net set (one cross-device net, one moderate fanout, several
// short local nets — the relocation engine's typical mix) routed on ONE
// reused router. B/op and allocs/op pin the allocation-flat property: the
// per-iteration allocations must track the returned paths, not the search
// volume.
func BenchmarkRouteAll(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	nets := []Net{
		{Name: "cross", Source: dev.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 25, Col: 39}, fabric.LocalPinI(1, 1))}},
		{Name: "fan", Source: dev.NodeIDAt(fabric.Coord{Row: 14, Col: 20}, fabric.LocalOutXQ(0)),
			Sinks: []fabric.NodeID{
				dev.NodeIDAt(fabric.Coord{Row: 10, Col: 16}, fabric.LocalPinI(0, 0)),
				dev.NodeIDAt(fabric.Coord{Row: 18, Col: 24}, fabric.LocalPinI(1, 2)),
				dev.NodeIDAt(fabric.Coord{Row: 12, Col: 26}, fabric.LocalPinI(2, 1)),
			}},
		{Name: "loc1", Source: dev.NodeIDAt(fabric.Coord{Row: 5, Col: 5}, fabric.LocalOutX(1)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 7, Col: 6}, fabric.LocalPinI(0, 3))}},
		{Name: "loc2", Source: dev.NodeIDAt(fabric.Coord{Row: 20, Col: 8}, fabric.LocalOutXQ(2)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 21, Col: 10}, fabric.LocalPinBX(1))}},
		{Name: "loc3", Source: dev.NodeIDAt(fabric.Coord{Row: 9, Col: 30}, fabric.LocalOutX(3)),
			Sinks: []fabric.NodeID{dev.NodeIDAt(fabric.Coord{Row: 8, Col: 33}, fabric.LocalPinCE(2))}},
	}
	r := warmRouter(b, dev, nets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(nil)
		if _, err := r.RouteAll(nets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewRouter pins the router's per-node footprint on the paper's
// device: B/op is the size of the NodeID-indexed stamp arrays plus the
// compiled fanout tables, so a per-node field added to the router shows up
// in the allocation gate.
func BenchmarkNewRouter(b *testing.B) {
	dev := fabric.NewDevice(fabric.XCV200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRouter = NewRouter(dev)
	}
}

var benchRouter *Router
