package route

// The router as it stood before the relaxation loop moved onto the fabric's
// fanout template, kept verbatim apart from renamed identifiers. It is the
// oracle of TestRouterMatchesReference: the production router must return
// node-for-node identical routes and fail exactly where this one fails.
// Do not edit it to match a change in route.go; a deliberate change of
// routing behaviour retires the oracle instead.

import (
	"fmt"

	"repro/internal/fabric"
)

func refNodeDelay(dev *fabric.Device, n fabric.NodeID) float64 {
	if _, ok := dev.PadOfNode(n); ok {
		return fabric.WireDelayNs(fabric.KindPad)
	}
	_, local, ok := dev.SplitNode(n)
	if !ok {
		return 0
	}
	kind, _, _ := fabric.DecodeLocal(local)
	return fabric.WireDelayNs(kind)
}

// refRouter routes sets of nets over a device with negotiated congestion.
//
// A refRouter is built once and reused: all per-session state (blocked nodes,
// congestion history, usage counts) and all per-search state (the A* open
// set, cost and predecessor tables) live in epoch-stamped arrays indexed by
// NodeID, so Reset and every search start are O(1) instead of reallocating
// device-sized tables. The lazy fanout cache likewise persists across
// searches — relocation engines route thousands of nets over the same
// topology, and the cache warms exactly once.
type refRouter struct {
	dev *fabric.Device
	// MaxIters bounds the negotiation rounds.
	MaxIters int
	// Greedy scales the A* heuristic. The admissible default (1) finds
	// delay-optimal paths but, with the true lower bound sitting far below
	// real per-tile cost, expands close to the whole bounding box per sink.
	// Values above 1 trade optimality for focus — a warm load's boundary
	// routing uses it: its few pad nets don't need delay-optimal trees, they
	// need O(path) search. Zero means 1.
	Greedy float64

	adj [][]fabric.NodeID // lazy fanout cache, indexed by NodeID

	// Session state, valid while its stamp equals epoch (Reset bumps the
	// epoch, invalidating everything at once).
	epoch     uint64
	blockedAt []uint64
	history   []float64 // PathFinder history cost
	historyAt []uint64
	present   []int32 // current usage count
	presentAt []uint64
	owner     []int32 // net index last routed over the node
	ownerAt   []uint64

	// Per-search state (one routeOne call), stamped with searchEpoch.
	searchEpoch uint64
	prev        []fabric.NodeID
	prevAt      []uint64
	best        []float64
	bestAt      []uint64

	// Per-net tree membership, stamped with treeEpoch. treePrev[n] is the
	// predecessor of n inside the current net's tree (valid only while
	// treeAt[n] == treeEpoch); walking it from a sink reconstructs the full
	// source-to-sink path without keeping per-node path copies.
	treeEpoch uint64
	treeAt    []uint64
	treePrev  []fabric.NodeID

	q refPQ // reusable open set

	// Reusable per-call scratch: the growing seed list of the net being
	// routed and the path buffer reconstruct writes into. Both are valid
	// only until the next routeNet/routeOne call, and both keep RouteAll
	// allocation-flat — allocations track the paths returned to the caller,
	// not the search volume.
	seedBuf []fabric.NodeID
	pathBuf []fabric.NodeID
}

// newRefRouter creates a router over a device.
func newRefRouter(dev *fabric.Device) *refRouter {
	n := int(dev.PadBase()) + dev.NumPads()
	return &refRouter{
		dev:         dev,
		MaxIters:    40,
		adj:         make([][]fabric.NodeID, n),
		epoch:       1,
		blockedAt:   make([]uint64, n),
		history:     make([]float64, n),
		historyAt:   make([]uint64, n),
		present:     make([]int32, n),
		presentAt:   make([]uint64, n),
		owner:       make([]int32, n),
		ownerAt:     make([]uint64, n),
		searchEpoch: 1,
		prev:        make([]fabric.NodeID, n),
		prevAt:      make([]uint64, n),
		best:        make([]float64, n),
		bestAt:      make([]uint64, n),
		treeEpoch:   1,
		treeAt:      make([]uint64, n),
		treePrev:    make([]fabric.NodeID, n),
	}
}

// Reset returns the router to its freshly-constructed state — no blocked
// nodes, no congestion history — in O(1). Callers that previously built a
// new router per operation reuse one this way, keeping the fanout cache.
func (r *refRouter) Reset() { r.epoch++ }

// Block marks nodes as unusable (owned by other circuitry).
func (r *refRouter) Block(nodes ...fabric.NodeID) {
	for _, n := range nodes {
		r.blockedAt[n] = r.epoch
	}
}

// Blocked reports whether a node is blocked.
func (r *refRouter) Blocked(n fabric.NodeID) bool { return r.blockedAt[n] == r.epoch }

func (r *refRouter) historyOf(n fabric.NodeID) float64 {
	if r.historyAt[n] == r.epoch {
		return r.history[n]
	}
	return 0
}

func (r *refRouter) addHistory(n fabric.NodeID, d float64) {
	if r.historyAt[n] != r.epoch {
		r.historyAt[n] = r.epoch
		r.history[n] = 0
	}
	r.history[n] += d
}

func (r *refRouter) presentOf(n fabric.NodeID) int32 {
	if r.presentAt[n] == r.epoch {
		return r.present[n]
	}
	return 0
}

func (r *refRouter) addPresent(n fabric.NodeID, d int32) int32 {
	if r.presentAt[n] != r.epoch {
		r.presentAt[n] = r.epoch
		r.present[n] = 0
	}
	r.present[n] += d
	return r.present[n]
}

// ownerOf returns the owning net index, or -1 when unowned.
func (r *refRouter) ownerOf(n fabric.NodeID) int32 {
	if r.ownerAt[n] == r.epoch {
		return r.owner[n]
	}
	return -1
}

func (r *refRouter) setOwner(n fabric.NodeID, idx int32) {
	r.ownerAt[n] = r.epoch
	r.owner[n] = idx
}

func (r *refRouter) clearOwner(n fabric.NodeID) { r.ownerAt[n] = 0 }

func (r *refRouter) fanout(n fabric.NodeID) []fabric.NodeID {
	if cached := r.adj[n]; cached != nil {
		return cached
	}
	edges := r.dev.FanoutOf(n)
	out := make([]fabric.NodeID, 0, len(edges))
	for _, e := range edges {
		out = append(out, e.Sink)
	}
	if out == nil {
		out = []fabric.NodeID{}
	}
	r.adj[n] = out
	return out
}

// refItem is a priority-queue entry.
type refItem struct {
	node fabric.NodeID
	cost float64
	est  float64
}

// refPQ is a typed binary min-heap on (est, node) — the node tie-break keeps
// expansion deterministic. Hand-rolled to avoid container/heap's interface
// boxing on every push and pop.
type refPQ []refItem

func refPQLess(a, b refItem) bool {
	if a.est != b.est {
		return a.est < b.est
	}
	return a.node < b.node
}

func (p *refPQ) push(it refItem) {
	*p = append(*p, it)
	q := *p
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refPQLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (p *refPQ) pop() refItem {
	q := *p
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*p = q
	i := 0
	for {
		l, rgt := 2*i+1, 2*i+2
		smallest := i
		if l < len(q) && refPQLess(q[l], q[smallest]) {
			smallest = l
		}
		if rgt < len(q) && refPQLess(q[rgt], q[smallest]) {
			smallest = rgt
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// tileOf returns the coordinate used for the A* heuristic.
func (r *refRouter) tileOf(n fabric.NodeID) fabric.Coord {
	if pad, ok := r.dev.PadOfNode(n); ok {
		switch pad.Side {
		case fabric.North:
			return fabric.Coord{Row: 0, Col: pad.Pos}
		case fabric.South:
			return fabric.Coord{Row: r.dev.Rows - 1, Col: pad.Pos}
		case fabric.West:
			return fabric.Coord{Row: pad.Pos, Col: 0}
		default:
			return fabric.Coord{Row: pad.Pos, Col: r.dev.Cols - 1}
		}
	}
	c, _, _ := r.dev.SplitNode(n)
	return c
}

// refHeuristicPerTile underestimates the cheapest per-tile cost: a hex wire
// covers six tiles for 1.10 ns of wire delay plus the 0.01 per-hop bias, so
// no expansion can cover a tile for less. Keeping it tight keeps A* focused;
// keeping it a true lower bound keeps it admissible.
const refHeuristicPerTile = (1.10 + 0.01) / 6

// refSearchMargins are the staged bounding-box inflations of a sink search: the
// box spans the current tree and the sink, inflated by the margin. Most nets
// are short and resolve inside the first box at a fraction of the expansion
// cost of a whole-device search; a search that exhausts a box retries with
// the next inflation, and the final stage is unbounded, so reachability is
// never lost — only found later.
var refSearchMargins = [...]int{3, 9, -1}

// routeOne expands from the current net tree (stamped into treeAt by the
// caller) to one sink, inflating the search bounding box on failure.
// presentFactor scales the congestion penalty. Returns the path from a tree
// node to the sink, valid until the next search (it lives in reusable
// scratch).
func (r *refRouter) routeOne(seeds []fabric.NodeID, sink fabric.NodeID,
	netIdx int32, presentFactor float64, within *fabric.Rect) ([]fabric.NodeID, error) {
	for _, margin := range refSearchMargins {
		if path := r.searchOne(seeds, sink, netIdx, presentFactor, margin, within); path != nil {
			return path, nil
		}
	}
	return nil, fmt.Errorf("route: no path to sink %d", sink)
}

// searchOne is one bounded A* expansion; margin < 0 means unbounded. It
// returns nil when the open set exhausts without reaching the sink.
func (r *refRouter) searchOne(seeds []fabric.NodeID, sink fabric.NodeID,
	netIdx int32, presentFactor float64, margin int, within *fabric.Rect) []fabric.NodeID {

	// Pad sinks are reached through their candidate pre-pad wires.
	var prePad []fabric.NodeID
	target := sink
	sinkTile := r.tileOf(sink)
	if pad, ok := r.dev.PadOfNode(sink); ok {
		prePad = r.dev.PadOutSourceNodes(pad)
	}
	isPrePad := func(n fabric.NodeID) bool {
		for _, p := range prePad {
			if p == n {
				return true
			}
		}
		return false
	}

	// Bounding box over the tree's tiles and the sink, inflated by margin.
	bounded := margin >= 0
	minR, maxR := sinkTile.Row, sinkTile.Row
	minC, maxC := sinkTile.Col, sinkTile.Col
	if bounded {
		for _, n := range seeds {
			t := r.tileOf(n)
			if t.Row < minR {
				minR = t.Row
			}
			if t.Row > maxR {
				maxR = t.Row
			}
			if t.Col < minC {
				minC = t.Col
			}
			if t.Col > maxC {
				maxC = t.Col
			}
		}
		minR -= margin
		maxR += margin
		minC -= margin
		maxC += margin
	}

	hPerTile := refHeuristicPerTile
	if r.Greedy > 1 {
		hPerTile *= r.Greedy
	}
	r.searchEpoch++
	se := r.searchEpoch
	r.q = r.q[:0]
	for _, n := range seeds {
		r.q.push(refItem{node: n, cost: 0, est: float64(r.tileOf(n).ManhattanDist(sinkTile)) * hPerTile})
		r.best[n], r.bestAt[n] = 0, se
		r.prev[n], r.prevAt[n] = fabric.InvalidNode, se
	}

	reconstruct := func(from fabric.NodeID) []fabric.NodeID {
		path := r.pathBuf[:0]
		for n := from; n != fabric.InvalidNode; {
			path = append(path, n)
			if r.treeAt[n] == r.treeEpoch {
				break
			}
			if r.prevAt[n] != se {
				break
			}
			n = r.prev[n]
		}
		refReverse(path)
		r.pathBuf = path
		return path
	}

	expand := func(cur fabric.NodeID, curCost float64, nxt fabric.NodeID) {
		// The target itself may be "in use" (an already-driven pin being
		// connected in PARALLEL — the relocation procedure's core move);
		// only intermediate nodes must be free.
		if r.blockedAt[nxt] == r.epoch && nxt != target {
			return
		}
		t := r.tileOf(nxt)
		if bounded && (t.Row < minR || t.Row > maxR || t.Col < minC || t.Col > maxC) {
			return
		}
		if within != nil && nxt != target && !within.Contains(t) {
			return
		}
		// Nodes owned by another net cost extra (negotiation) instead of
		// being forbidden outright.
		penalty := 0.0
		if o := r.ownerOf(nxt); o >= 0 && o != netIdx {
			penalty = presentFactor * (1 + float64(r.presentOf(nxt)))
		}
		c := curCost + refNodeDelay(r.dev, nxt) + r.historyOf(nxt) + penalty + 0.01
		if r.bestAt[nxt] == se && r.best[nxt] <= c {
			return
		}
		r.best[nxt], r.bestAt[nxt] = c, se
		r.prev[nxt], r.prevAt[nxt] = cur, se
		est := c + float64(t.ManhattanDist(sinkTile))*hPerTile
		r.q.push(refItem{node: nxt, cost: c, est: est})
	}

	for len(r.q) > 0 {
		it := r.q.pop()
		if it.cost > r.best[it.node] {
			continue
		}
		if it.node == target {
			return reconstruct(it.node)
		}
		if isPrePad(it.node) {
			// One more hop into the pad.
			r.prev[target], r.prevAt[target] = it.node, se
			r.best[target], r.bestAt[target] = it.cost, se
			return reconstruct(target)
		}
		for _, nxt := range r.fanout(it.node) {
			expand(it.node, it.cost, nxt)
		}
	}
	return nil
}

func refReverse(p []fabric.NodeID) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// RouteAll routes a set of nets with negotiated congestion and returns the
// routed trees. It fails if congestion cannot be resolved in MaxIters
// rounds.
func (r *refRouter) RouteAll(nets []Net) ([]RoutedNet, error) {
	routed := make([]RoutedNet, len(nets))
	presentFactor := 0.5

	for iter := 0; iter < r.MaxIters; iter++ {
		// (Re)route every net.
		for i := range nets {
			// Rip up previous route of this net.
			if routed[i].Tree != nil {
				for _, n := range routed[i].Tree {
					if r.addPresent(n, -1) == 0 {
						r.clearOwner(n)
					}
				}
			}
			rn, err := r.routeNet(nets[i], int32(i), presentFactor)
			if err != nil {
				return nil, fmt.Errorf("route: net %s: %w", nets[i].Name, err)
			}
			routed[i] = *rn
			for _, n := range rn.Tree {
				r.addPresent(n, 1)
				r.setOwner(n, int32(i))
			}
		}
		// Check for overuse (a node carrying 2+ nets).
		overused := 0
		for i := range routed {
			for _, n := range routed[i].Tree {
				if r.presentOf(n) > 1 {
					overused++
					r.addHistory(n, 0.5)
				}
			}
		}
		if overused == 0 {
			return routed, nil
		}
		presentFactor *= 1.8
	}
	return nil, fmt.Errorf("route: congestion unresolved after %d iterations", r.MaxIters)
}

// routeNet routes all sinks of one net as a Steiner-ish tree (each sink
// reuses the partial tree). The tree's structure lives in the epoch-stamped
// treePrev array — no per-node path copies — and the returned paths share
// one slab allocated for the caller, so routing cost is allocation-flat:
// proportional to the paths handed back, not to the search volume.
func (r *refRouter) routeNet(net Net, netIdx int32, presentFactor float64) (*RoutedNet, error) {
	if len(net.Sinks) == 0 {
		return nil, fmt.Errorf("net has no sinks")
	}
	rn := &RoutedNet{Net: net, Paths: make(map[fabric.NodeID][]fabric.NodeID, len(net.Sinks))}
	r.treeEpoch++
	r.treeAt[net.Source] = r.treeEpoch
	r.treePrev[net.Source] = fabric.InvalidNode
	seeds := append(r.seedBuf[:0], net.Source)
	rn.Tree = append(rn.Tree, net.Source)
	var within *fabric.Rect
	if net.Bound.Area() > 0 {
		within = &net.Bound
	}
	var slab []fabric.NodeID // backs every returned path; owned by the caller
	for _, sink := range net.Sinks {
		w := within
		if _, isPad := r.dev.PadOfNode(sink); isPad {
			w = nil // boundary branch: pads live outside any interior bound
		}
		seg, err := r.routeOne(seeds, sink, netIdx, presentFactor, w)
		if err != nil {
			r.seedBuf = seeds
			return nil, err
		}
		// seg starts at an existing tree node; graft the new suffix on. A
		// pad joins the tree (it is part of the net and must be blocked for
		// other nets) but never seeds later sinks: an output pad is a
		// terminal — a signal cannot re-enter the array through it, and a
		// search expanded from a pad seed would build exactly that
		// physically dead branch (pad -> border wire -> ... -> pin).
		for i := 1; i < len(seg); i++ {
			n := seg[i]
			if r.treeAt[n] != r.treeEpoch {
				r.treeAt[n] = r.treeEpoch
				r.treePrev[n] = seg[i-1]
				rn.Tree = append(rn.Tree, n)
				if n < r.dev.PadBase() {
					seeds = append(seeds, n)
				}
			}
		}
		// Full source-to-sink path: walk the tree predecessors. Appends may
		// grow the slab; earlier sub-slices keep their (already written)
		// backing array, so sharing is safe.
		start := len(slab)
		for n := sink; n != fabric.InvalidNode; n = r.treePrev[n] {
			slab = append(slab, n)
		}
		refReverse(slab[start:])
		rn.Paths[sink] = slab[start:len(slab):len(slab)]
	}
	r.seedBuf = seeds
	return rn, nil
}

// RouteDisjoint routes nets one by one, treating every previously routed or
// blocked node as strictly off-limits (no sharing, no negotiation). The
// relocation engine uses it: transfer paths must use only free resources and
// must never perturb existing nets.
func (r *refRouter) RouteDisjoint(nets []Net) ([]RoutedNet, error) {
	routed := make([]RoutedNet, 0, len(nets))
	for i, net := range nets {
		rn, err := r.routeNet(net, int32(i), 0)
		if err != nil {
			return nil, fmt.Errorf("route: net %s: %w", net.Name, err)
		}
		// Hard-block the new tree for subsequent nets.
		for _, n := range rn.Tree {
			if n != net.Source {
				r.Block(n)
			}
		}
		routed = append(routed, *rn)
	}
	return routed, nil
}
