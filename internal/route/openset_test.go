package route

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

// openSetPair drives the open set and the binary heap it replaced (refPQ,
// the reference router's queue) through the same pushes, pops and resets.
type openSetPair struct {
	t    *testing.T
	got  pq
	want refPQ
	pops int
}

func (p *openSetPair) push(node fabric.NodeID, cost, est float64) {
	p.t.Helper()
	p.got.push(item{node: node, cost: cost, est: est})
	p.want.push(refItem{node: node, cost: cost, est: est})
	p.sameLen("push")
}

// pop compares the popped keys. Two entries with one (est, node) are one
// node queued twice with different costs, and the heaps may pop them in
// either order: the search skips the stale one whenever it pops, so only
// the key is compared.
func (p *openSetPair) pop() float64 {
	p.t.Helper()
	got, want := p.got.pop(), p.want.pop()
	p.pops++
	if got.est != want.est || got.node != want.node {
		p.t.Fatalf("pop %d: (est %v, node %d), binary heap (est %v, node %d)",
			p.pops, got.est, got.node, want.est, want.node)
	}
	p.sameLen("pop")
	return got.est
}

func (p *openSetPair) reset() {
	p.t.Helper()
	p.got.reset()
	p.want = p.want[:0]
	p.sameLen("reset")
}

func (p *openSetPair) sameLen(op string) {
	p.t.Helper()
	if p.got.len() != len(p.want) {
		p.t.Fatalf("after %s (pop %d): %d entries, binary heap %d", op, p.pops, p.got.len(), len(p.want))
	}
}

// TestOpenSetMatchesBinaryHeap is the exactness gate of the bucketed open
// set: over seeded sequences of pushes, pops and resets, every pop must
// return the key the binary heap on (est, node) returns, and both must hold
// as many entries. Each case draws a push's estimate relative to the last
// popped one, the way a search queues around its frontier.
func TestOpenSetMatchesBinaryHeap(t *testing.T) {
	// The last bucket starts at lastEdge; every estimate from pastEdge
	// (64 ns) up shares it.
	const pastEdge = numBuckets / bucketsPerNs
	const lastEdge = pastEdge - 1.0/bucketsPerNs
	edges := []float64{
		lastEdge, math.Nextafter(lastEdge, 0),
		pastEdge, math.Nextafter(pastEdge, 0), math.Nextafter(pastEdge, math.Inf(1)), pastEdge + 0.5,
		1e10, math.Nextafter(1e10, 0), 1e10 + 1, 1e10 + 1.05,
	}
	cases := []struct {
		name string
		est  func(rng *rand.Rand, prev float64) float64
	}{
		// Exact est ties across many nodes: a hex hop toward the sink
		// leaves est unchanged, so a search crosses plateaus of equal est.
		{"plateaus", func(rng *rand.Rand, prev float64) float64 {
			return prev + float64(rng.Intn(3))*heuristicPerTile
		}},
		// Pushes below the current bucket: est drops by 1.05 ns on the hop
		// out of a hex start.
		{"drops", func(rng *rand.Rand, prev float64) float64 {
			if rng.Intn(4) == 0 {
				return max(0, prev-1.05)
			}
			return prev + rng.Float64()*2
		}},
		// Fine steps inside one bucket and across its edges.
		{"within-bucket", func(rng *rand.Rand, prev float64) float64 {
			return max(0, prev+(rng.Float64()-0.3)/bucketsPerNs)
		}},
		// Estimates at the last bucket's edges, past 64 ns and around 1e10
		// (negotiation penalties), mixed with ordinary ones.
		{"last-bucket", func(rng *rand.Rand, prev float64) float64 {
			switch rng.Intn(4) {
			case 0:
				return edges[rng.Intn(len(edges))]
			case 1:
				return prev + float64(rng.Intn(3))*heuristicPerTile
			case 2:
				return 60 + rng.Float64()*8
			}
			return rng.Float64() * 70
		}},
		{"negotiation", func(rng *rand.Rand, prev float64) float64 {
			if rng.Intn(3) == 0 {
				return 1e10 + float64(rng.Intn(4))*heuristicPerTile
			}
			return prev + rng.Float64()*3
		}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(20*int64(ci) + seed))
				p := &openSetPair{t: t}
				p.reset()
				prev := 0.5 + 5*rng.Float64()
				for op := 0; op < 20000; op++ {
					switch k := rng.Intn(100); {
					case k < 1:
						// A search that reaches its sink leaves entries
						// queued; the next search starts from a reset.
						p.reset()
						prev = 0.5 + 5*rng.Float64()
					case k < 58 || p.got.len() == 0:
						// Few nodes, so one node is often queued twice
						// under one key with different costs.
						p.push(fabric.NodeID(rng.Intn(48)), rng.Float64(), tc.est(rng, prev))
					default:
						prev = p.pop()
					}
				}
				for p.got.len() > 0 {
					p.pop()
				}
			}
		})
	}
}

// TestRouterMatchesReferencePastLastBucket extends the router differential
// to estimates past the open set's last bucket, which the seeded corpus of
// TestRouterMatchesReference never queues: corner-to-corner nets on XCV800
// under the boundary patches' heuristic weight (Greedy = 3), with 10% of
// the tile nodes blocked.
func TestRouterMatchesReferencePastLastBucket(t *testing.T) {
	d := fabric.NewDevice(fabric.XCV800)
	p := newRouterPair(d)
	p.setGreedy(3)
	g := netGen{rng: rand.New(rand.NewSource(800)), d: d}
	g.blockRandom(p, 0.1)
	corners := []fabric.Coord{{Row: 0, Col: 0}, {Row: 0, Col: d.Cols - 1}, {Row: d.Rows - 1, Col: d.Cols - 1}, {Row: d.Rows - 1, Col: 0}}
	for i := 0; i < 12; i++ {
		from, to := corners[i%4], corners[(i+2)%4]
		net := Net{Name: "corner", Source: g.output(g.near(from, 1)), Sinks: []fabric.NodeID{g.pin(g.near(to, 1))}}
		// The seed's estimate alone lies past the last bucket, so the case
		// cannot silently vanish.
		dist := p.got.tileOf(net.Source).ManhattanDist(p.got.tileOf(net.Sinks[0]))
		if est := float64(dist) * heuristicPerTile * 3; est < numBuckets/bucketsPerNs {
			t.Fatalf("net %d: seed estimate %.1f ns lies inside the buckets", i, est)
		}
		p.routeDisjoint(t, fmt.Sprintf("net %d", i), []Net{net})
	}
	if p.failed == p.calls {
		t.Fatalf("all %d calls failed on both sides", p.calls)
	}
	t.Logf("%d calls (%d failing on both sides), %d routed nets compared, %d mismatches",
		p.calls, p.failed, p.nets, p.mismatches)
}
