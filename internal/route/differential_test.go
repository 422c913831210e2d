package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fabric"
)

// routerPair drives the production router and the reference router
// (reference_test.go) through the same calls and compares every result.
type routerPair struct {
	got        *Router
	want       *refRouter
	calls      int
	failed     int // calls that failed, identically, on both sides
	nets       int
	mismatches int
}

func newRouterPair(d *fabric.Device) *routerPair {
	return &routerPair{got: NewRouter(d), want: newRefRouter(d)}
}

func (p *routerPair) block(nodes ...fabric.NodeID) {
	p.got.Block(nodes...)
	p.want.Block(nodes...)
}

func (p *routerPair) reset() {
	p.got.Reset(nil)
	p.want.Reset()
}

func (p *routerPair) setGreedy(g float64) {
	p.got.Greedy, p.want.Greedy = g, g
}

func (p *routerPair) setMaxIters(n int) {
	p.got.MaxIters, p.want.MaxIters = n, n
}

func (p *routerPair) routeAll(t *testing.T, label string, nets []Net) {
	t.Helper()
	got, gotErr := p.got.RouteAll(nets)
	want, wantErr := p.want.RouteAll(nets)
	p.compare(t, label+"/RouteAll", got, gotErr, want, wantErr)
}

func (p *routerPair) routeDisjoint(t *testing.T, label string, nets []Net) {
	t.Helper()
	got, gotErr := p.got.RouteDisjoint(nets)
	want, wantErr := p.want.RouteDisjoint(nets)
	p.compare(t, label+"/RouteDisjoint", got, gotErr, want, wantErr)
}

// compare requires an error on one side to mean the same error on the
// other, and otherwise node-for-node identical trees and paths.
func (p *routerPair) compare(t *testing.T, label string, got []RoutedNet, gotErr error, want []RoutedNet, wantErr error) {
	t.Helper()
	p.calls++
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		p.mismatches++
		t.Errorf("%s: error %v, reference error %v", label, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		p.failed++
	}
	if len(got) != len(want) {
		p.mismatches++
		t.Errorf("%s: %d routed nets, reference %d", label, len(got), len(want))
		return
	}
	for i := range want {
		p.nets++
		if err := sameRoutedNet(&got[i], &want[i]); err != nil {
			p.mismatches++
			t.Errorf("%s: net %d (%s): %v", label, i, want[i].Name, err)
			continue
		}
		// RouteDisjoint blocks each routed tree for the nets after it.
		for _, n := range want[i].Tree {
			if p.got.Blocked(n) != p.want.Blocked(n) {
				p.mismatches++
				t.Errorf("%s: net %d (%s): node %d blocked %v, reference %v",
					label, i, want[i].Name, n, p.got.Blocked(n), p.want.Blocked(n))
				break
			}
		}
	}
}

func sameRoutedNet(got, want *RoutedNet) error {
	if !slices.Equal(got.Tree, want.Tree) {
		return fmt.Errorf("tree %v, reference %v", got.Tree, want.Tree)
	}
	if len(got.Paths) != len(want.Paths) {
		return fmt.Errorf("%d paths, reference %d", len(got.Paths), len(want.Paths))
	}
	for sink, wp := range want.Paths {
		if gp, ok := got.Paths[sink]; !ok || !slices.Equal(gp, wp) {
			return fmt.Errorf("path to %d is %v, reference %v", sink, gp, wp)
		}
	}
	return nil
}

// netGen draws seeded routing requests: cell outputs and input pads as
// sources; cell input pins and output pads as sinks.
type netGen struct {
	rng *rand.Rand
	d   *fabric.Device
}

func (g netGen) tile() fabric.Coord {
	return fabric.Coord{Row: g.rng.Intn(g.d.Rows), Col: g.rng.Intn(g.d.Cols)}
}

// near returns a tile within radius of c (Manhattan-ish box), clamped to the
// array.
func (g netGen) near(c fabric.Coord, radius int) fabric.Coord {
	r := c.Row + g.rng.Intn(2*radius+1) - radius
	col := c.Col + g.rng.Intn(2*radius+1) - radius
	return fabric.Coord{Row: min(max(r, 0), g.d.Rows-1), Col: min(max(col, 0), g.d.Cols-1)}
}

func (g netGen) output(c fabric.Coord) fabric.NodeID {
	cell := g.rng.Intn(fabric.CellsPerCLB)
	if g.rng.Intn(2) == 0 {
		return g.d.NodeIDAt(c, fabric.LocalOutX(cell))
	}
	return g.d.NodeIDAt(c, fabric.LocalOutXQ(cell))
}

func (g netGen) pin(c fabric.Coord) fabric.NodeID {
	cell := g.rng.Intn(fabric.CellsPerCLB)
	switch g.rng.Intn(6) {
	case 0:
		return g.d.NodeIDAt(c, fabric.LocalPinBX(cell))
	case 1:
		return g.d.NodeIDAt(c, fabric.LocalPinCE(cell))
	default:
		return g.d.NodeIDAt(c, fabric.LocalPinI(cell, g.rng.Intn(fabric.LUTInputs)))
	}
}

// padNear returns a pad on the edge closest to c, near c's position along it.
func (g netGen) padNear(c fabric.Coord, radius int) fabric.NodeID {
	t := g.near(c, radius)
	k := g.rng.Intn(fabric.PadsPerEdgeTile)
	var ref fabric.PadRef
	switch min(t.Row, g.d.Rows-1-t.Row, t.Col, g.d.Cols-1-t.Col) {
	case t.Row:
		ref = fabric.PadRef{Side: fabric.North, Pos: t.Col, K: k}
	case g.d.Rows - 1 - t.Row:
		ref = fabric.PadRef{Side: fabric.South, Pos: t.Col, K: k}
	case t.Col:
		ref = fabric.PadRef{Side: fabric.West, Pos: t.Row, K: k}
	default:
		ref = fabric.PadRef{Side: fabric.East, Pos: t.Row, K: k}
	}
	return g.d.PadNodeID(ref)
}

// net draws one net of up to maxSinks sinks around a random tile. padShare
// is the chance that the source is an input pad and, separately, that each
// sink is an output pad.
func (g netGen) net(name string, maxSinks, radius int, padShare float64) Net {
	c := g.tile()
	n := Net{Name: name, Source: g.output(c)}
	if g.rng.Float64() < padShare {
		n.Source = g.padNear(c, radius)
	}
	for k := 1 + g.rng.Intn(maxSinks); k > 0; k-- {
		s := g.pin(g.near(c, radius))
		if g.rng.Float64() < padShare {
			s = g.padNear(c, radius)
		}
		if s != n.Source && !slices.Contains(n.Sinks, s) {
			n.Sinks = append(n.Sinks, s)
		}
	}
	if len(n.Sinks) == 0 {
		n.Sinks = []fabric.NodeID{g.pin(c)}
	}
	return n
}

func (g netGen) nets(count, maxSinks, radius int, padShare float64) []Net {
	out := make([]Net, count)
	for i := range out {
		out[i] = g.net(fmt.Sprintf("n%d", i), maxSinks, radius, padShare)
	}
	return out
}

// blockRandom blocks each tile node with the given probability.
func (g netGen) blockRandom(p *routerPair, density float64) {
	var nodes []fabric.NodeID
	for n := fabric.NodeID(0); n < g.d.PadBase(); n++ {
		if g.rng.Float64() < density {
			nodes = append(nodes, n)
		}
	}
	p.block(nodes...)
}

// drivers lists every node that can drive a sink in one hop.
func drivers(d *fabric.Device, sink fabric.NodeID) []fabric.NodeID {
	if pad, ok := d.PadOfNode(sink); ok {
		return d.PadOutSourceNodes(pad)
	}
	c, local, _ := d.SplitNode(sink)
	var out []fabric.NodeID
	for _, n := range d.SinkSourceNodes(c, local) {
		if n != fabric.InvalidNode {
			out = append(out, n)
		}
	}
	return out
}

// TestRouterMatchesReference is the exactness gate of the fanout-template
// relaxation: over a seeded corpus on XCV50 and XCV200 the router must
// return node-for-node the trees and paths of the reference router, and
// fail exactly where it fails.
func TestRouterMatchesReference(t *testing.T) {
	for di, preset := range []fabric.Preset{fabric.XCV50, fabric.XCV200} {
		d := fabric.NewDevice(preset)
		t.Run(preset.Name, func(t *testing.T) {
			shared := newRouterPair(d)
			pairs := []*routerPair{shared}
			seed := int64(100 * (di + 1))
			gen := func(s int64) netGen { return netGen{rng: rand.New(rand.NewSource(seed + s)), d: d} }

			t.Run("disjoint-dense-blocking", func(t *testing.T) {
				g := gen(1)
				for _, density := range []float64{0.05, 0.2, 0.4, 0.55} {
					for round := 0; round < 3; round++ {
						shared.reset()
						g.blockRandom(shared, density)
						// One net per call, so a net that cannot route does
						// not hide the comparison of the others.
						for i, n := range g.nets(6, 3, 4, 0.1) {
							shared.routeDisjoint(t, fmt.Sprintf("density %.2f round %d net %d", density, round, i), []Net{n})
						}
					}
				}
			})
			t.Run("multi-sink", func(t *testing.T) {
				g := gen(2)
				for round := 0; round < 4; round++ {
					shared.reset()
					g.blockRandom(shared, 0.1)
					shared.routeDisjoint(t, fmt.Sprintf("round %d", round), g.nets(4, 8, 10, 0))
					shared.reset()
					shared.routeAll(t, fmt.Sprintf("round %d", round), g.nets(3, 8, 10, 0))
				}
			})
			t.Run("pads", func(t *testing.T) {
				g := gen(3)
				for round := 0; round < 4; round++ {
					shared.reset()
					g.blockRandom(shared, 0.15)
					shared.routeDisjoint(t, fmt.Sprintf("round %d", round), g.nets(5, 3, 5, 0.5))
					shared.reset()
					shared.routeAll(t, fmt.Sprintf("round %d", round), g.nets(4, 3, 5, 0.5))
				}
			})
			t.Run("bound", func(t *testing.T) {
				g := gen(4)
				for round := 0; round < 6; round++ {
					shared.reset()
					g.blockRandom(shared, 0.1)
					nets := g.nets(5, 4, 3, 0.15)
					for i := range nets {
						// A bound around the source tile: some sinks fall
						// outside it (only the target itself is exempt) and
						// pad sinks are exempt altogether.
						c := g.tile()
						if s, _, ok := d.SplitNode(nets[i].Source); ok {
							c = s
						}
						h, w := 2+g.rng.Intn(6), 2+g.rng.Intn(6)
						b := fabric.Rect{Row: c.Row - g.rng.Intn(h), Col: c.Col - g.rng.Intn(w), H: h, W: w}
						nets[i].Bound = b
						// A sink in the row just below the bound.
						if below := (fabric.Coord{Row: b.Row + b.H, Col: c.Col}); d.InBounds(below) {
							nets[i].Sinks = append(nets[i].Sinks, g.pin(below))
						}
					}
					if round%2 == 0 {
						shared.routeDisjoint(t, fmt.Sprintf("round %d", round), nets)
					} else {
						shared.routeAll(t, fmt.Sprintf("round %d", round), nets)
					}
				}
			})
			t.Run("greedy", func(t *testing.T) {
				g := gen(5)
				shared.setGreedy(3)
				defer shared.setGreedy(0)
				for round := 0; round < 4; round++ {
					shared.reset()
					g.blockRandom(shared, 0.2)
					shared.routeDisjoint(t, fmt.Sprintf("round %d", round), g.nets(5, 3, 8, 0.3))
					shared.reset()
					shared.routeAll(t, fmt.Sprintf("round %d", round), g.nets(4, 3, 8, 0.3))
				}
			})
			t.Run("negotiated-successive", func(t *testing.T) {
				// A fresh pair, as the System keeps one: successive RouteAll
				// calls without Reset see the earlier calls' owners and
				// history, then again after Reset, then a RouteDisjoint
				// that still sees the session's history.
				g := gen(6)
				p := newRouterPair(d)
				pairs = append(pairs, p)
				p.setMaxIters(8)
				crowd := func() []Net {
					c := g.near(fabric.Coord{Row: d.Rows / 2, Col: d.Cols / 2}, 3)
					var nets []Net
					for i := 0; i < 12; i++ {
						src := d.NodeIDAt(fabric.Coord{Row: c.Row + i/4, Col: c.Col + i/8}, fabric.LocalOutX(i%4))
						sink := d.NodeIDAt(fabric.Coord{Row: c.Row + i%3, Col: c.Col + 5}, fabric.LocalPinI(i%4, i/4))
						nets = append(nets, Net{Name: fmt.Sprintf("c%d", i), Source: src, Sinks: []fabric.NodeID{sink}})
					}
					return nets
				}
				g.blockRandom(p, 0.3)
				for call := 0; call < 4; call++ {
					p.routeAll(t, fmt.Sprintf("call %d", call), crowd())
				}
				p.routeDisjoint(t, "after RouteAll", g.nets(4, 3, 6, 0.2))
				p.reset()
				g.blockRandom(p, 0.3)
				for call := 0; call < 2; call++ {
					p.routeAll(t, fmt.Sprintf("after reset call %d", call), crowd())
				}
				p.routeAll(t, "random", g.nets(6, 4, 6, 0.2))
			})
			t.Run("blocked-sinks", func(t *testing.T) {
				g := gen(7)
				for round := 0; round < 3; round++ {
					shared.reset()
					label := fmt.Sprintf("round %d", round)
					nets := g.nets(3, 2, 4, 0.3)
					last := nets[len(nets)-1:]
					blocked := drivers(d, last[0].Sinks[len(last[0].Sinks)-1])
					shared.block(blocked...)
					shared.routeDisjoint(t, label, nets[:len(nets)-1])
					// Every driver of one sink blocked: the search exhausts
					// every stage and fails.
					shared.routeDisjoint(t, label+" blocked", last)
					shared.routeAll(t, label+" blocked", last)
				}
			})

			calls, failed, nets, mismatches := 0, 0, 0, 0
			for _, p := range pairs {
				calls += p.calls
				failed += p.failed
				nets += p.nets
				mismatches += p.mismatches
			}
			t.Logf("%s: %d calls (%d failing on both sides), %d routed nets compared, %d mismatches",
				preset.Name, calls, failed, nets, mismatches)
		})
	}
}

// TestFanoutTemplateRouterTables checks the router's compiled neighbour
// tables against FanoutOf by enumeration, on the smallest test device and
// XCV50: from every tile node, the hop table of its local id walked with the
// in-array filter, and from every pad, its pad list, must yield FanoutOf's
// sinks in order, each with its sink tile and nodeDelay.
func TestFanoutTemplateRouterTables(t *testing.T) {
	for _, preset := range []fabric.Preset{fabric.TestDevice, fabric.XCV50} {
		d := fabric.NewDevice(preset)
		r := NewRouter(d)
		check := func(n fabric.NodeID, from fabric.Coord, hops []hop) {
			t.Helper()
			var walked []fabric.PIPEdge
			for _, h := range hops {
				st := fabric.Coord{Row: from.Row + int(h.dRow), Col: from.Col + int(h.dCol)}
				if !d.InBounds(st) {
					continue
				}
				sink := n + fabric.NodeID(h.delta)
				if h.delay != nodeDelay(d, sink) {
					t.Fatalf("%s: node %d: hop to %d has delay %v, nodeDelay %v", preset.Name, n, sink, h.delay, nodeDelay(d, sink))
				}
				_, local, _ := d.SplitNode(sink)
				walked = append(walked, fabric.PIPEdge{SinkTile: st, SinkLocal: local, Sink: sink})
			}
			var want []fabric.PIPEdge
			for _, e := range d.FanoutOf(n) {
				want = append(want, fabric.PIPEdge{SinkTile: e.SinkTile, SinkLocal: e.SinkLocal, Sink: e.Sink})
			}
			if !slices.Equal(walked, want) {
				t.Fatalf("%s: node %d: router table walk %v, FanoutOf %v", preset.Name, n, walked, want)
			}
		}
		for n := fabric.NodeID(0); n < d.PadBase(); n++ {
			c, local, _ := d.SplitNode(n)
			check(n, c, r.hops[local])
		}
		for i := 0; i < d.NumPads(); i++ {
			n := d.PadBase() + fabric.NodeID(i)
			check(n, r.tileOf(n), r.padFanout(n, i))
		}
	}
}
