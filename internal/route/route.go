// Package route implements signal routing over the fabric's programmable
// interconnect: an A*-based maze expansion with PathFinder-style negotiated
// congestion, plus path delay calculation. The relocation engine reuses the
// router to build replica connections out of free routing resources only, as
// the paper requires ("the temporary transfer paths ... use only free
// routing resources").
package route

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/fabric"
)

// Net is a routing request: one source node (cell output or input pad) and
// one or more sink nodes (cell input pins or output pads).
type Net struct {
	Name   string
	Source fabric.NodeID
	Sinks  []fabric.NodeID
	// Bound, when non-empty, confines the paths to non-pad sinks inside the
	// rectangle: every intermediate node must lie in a tile the rectangle
	// contains. Paths to pad sinks are exempt (a pad sits on the device edge,
	// outside any interior region). The template capture path sets it so a
	// design's interior routing stays region-contained and therefore
	// translation-invariant.
	Bound fabric.Rect
}

// RoutedNet is a successfully routed net: a tree of nodes rooted at the
// source covering every sink.
type RoutedNet struct {
	Net
	// Paths maps each sink to its node sequence from source to sink
	// (inclusive on both ends).
	Paths map[fabric.NodeID][]fabric.NodeID
	// Tree is the union of all path nodes.
	Tree []fabric.NodeID
}

// DelayTo returns the propagation delay in nanoseconds from source to sink.
func (rn *RoutedNet) DelayTo(dev *fabric.Device, sink fabric.NodeID) float64 {
	return PathDelayNs(dev, rn.Paths[sink])
}

// PathDelayNs sums the wire delays along a node path.
func PathDelayNs(dev *fabric.Device, path []fabric.NodeID) float64 {
	total := 0.0
	for _, n := range path {
		total += nodeDelay(dev, n)
	}
	return total
}

func nodeDelay(dev *fabric.Device, n fabric.NodeID) float64 {
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

// Router routes sets of nets over a device with negotiated congestion.
//
// A Router is built once and reused: all per-session state (blocked nodes,
// congestion history, usage counts) and the per-search cost and predecessor
// tables live in epoch-stamped arrays indexed by NodeID, so Reset and every
// search start are O(1) instead of reallocating device-sized tables. A
// session's blocked set is a base the caller owns (Reset's argument, read in
// place) with the session's Block stamps on top. The A* open set is a
// bucketed queue (pq) reused across searches: a search start truncates it
// and clears its 64-word bitmap. Neighbours come from the fabric's
// translation-invariant fanout template, compiled once per router into a
// per-local hop table.
type Router struct {
	dev *fabric.Device
	// MaxIters bounds the negotiation rounds.
	MaxIters int
	// Greedy scales the A* heuristic. The default (1) is not admissible:
	// searchOne estimates a node from the tile its wire starts in, while the
	// node's cost already covers the wire's delay to its far tile, so the
	// estimate can overshoot and a sink can be reached by a path dearer than
	// the cheapest (see heuristicPerTile and ROADMAP's "Delay-optimal
	// routing with fewer knobs"). Even so, with the per-tile bound far
	// below real per-tile cost, it expands close to the whole bounding box
	// per sink. Values above 1 trade path cost for focus — a warm load's
	// boundary routing uses it: its few pad nets don't need delay-optimal
	// trees, they need O(path) search. Zero means 1.
	Greedy float64

	// hops[local] is the fanout of every tile node with that local id, in
	// FanoutOf's order. padHops[i] is the fanout of pad i relative to the
	// pad's heuristic tile, compiled when the pad first expands (see
	// padFanout): only input pads that seed a net ever do.
	hops    [fabric.NodeSlots][]hop
	padHops [][]hop

	// Session state, valid while its stamp equals epoch (Reset bumps the
	// epoch, invalidating everything at once). A node is blocked while
	// blockedAt holds epoch or base marks it. The congestion arrays (history,
	// present, owner) are allocated by the first RouteAll: only negotiation
	// writes them, and until then every node reads as unused and
	// history-free.
	epoch     uint64
	base      []bool
	blockedAt []uint64
	history   []float64 // PathFinder history cost
	historyAt []uint64
	present   []int32 // current usage count
	presentAt []uint64
	owner     []int32 // net index last routed over the node
	ownerAt   []uint64

	// negotiatedAt is the last epoch a RouteAll ran in. In any other epoch
	// the congestion arrays hold no stamp of the current session.
	negotiatedAt uint64

	// Per-search state (one routeOne call): best cost and predecessor, set
	// together and both valid while searchAt equals searchEpoch.
	searchEpoch uint64
	searchAt    []uint64
	best        []float64
	prev        []fabric.NodeID

	// Per-net tree membership, stamped with treeEpoch. treePrev[n] is the
	// predecessor of n inside the current net's tree (valid only while
	// treeAt[n] == treeEpoch); walking it from a sink reconstructs the full
	// source-to-sink path without keeping per-node path copies.
	treeEpoch uint64
	treeAt    []uint64
	treePrev  []fabric.NodeID

	q pq // reusable open set

	// Reusable per-call scratch: the growing seed list of the net being
	// routed and the path buffer reconstruct writes into. Both are valid
	// only until the next routeNet/routeOne call, and both keep RouteAll
	// allocation-flat — allocations track the paths returned to the caller,
	// not the search volume.
	seedBuf []fabric.NodeID
	pathBuf []fabric.NodeID
}

// hop is one fanout edge relative to its source: the sink lies dRow/dCol
// tiles away, its NodeID is the source's plus delta, and delay is the
// sink's wire delay (nodeDelay of the sink). farRow/farCol locate, relative
// to the source as well, the one tile the sink's own fanout lands in (all
// fanout of a local id shares one tile offset), and terminal marks a sink
// with no fanout at all: an input pin. The search prunes on both.
type hop struct {
	dRow, dCol     int16
	farRow, farCol int16
	delta          int32
	terminal       bool
	delay          float64
}

// compileHop builds the hop to a sink with local id sinkLocal lying
// dRow/dCol tiles from the source, at NodeID distance delta.
func compileHop(dRow, dCol, sinkLocal int, delta int32) hop {
	kind, _, _ := fabric.DecodeLocal(sinkLocal)
	h := hop{dRow: int16(dRow), dCol: int16(dCol), farRow: int16(dRow), farCol: int16(dCol),
		delta: delta, delay: fabric.WireDelayNs(kind)}
	if far := fabric.FanoutTemplate(sinkLocal); len(far) == 0 {
		h.terminal = true
	} else {
		h.farRow += int16(far[0].DRow)
		h.farCol += int16(far[0].DCol)
	}
	return h
}

// NewRouter creates a router over a device, in a session with no base.
func NewRouter(dev *fabric.Device) *Router {
	n := int(dev.PadBase()) + dev.NumPads()
	r := &Router{
		dev:         dev,
		MaxIters:    40,
		epoch:       1,
		blockedAt:   make([]uint64, n),
		searchEpoch: 1,
		searchAt:    make([]uint64, n),
		best:        make([]float64, n),
		prev:        make([]fabric.NodeID, n),
		treeEpoch:   1,
		treeAt:      make([]uint64, n),
		treePrev:    make([]fabric.NodeID, n),
	}
	// A tile node's fanout depends only on its local id (FanoutTemplate);
	// the NodeID delta of an offset depends on the device width. All the
	// tables share one backing array.
	total := 0
	for local := range r.hops {
		total += len(fabric.FanoutTemplate(local))
	}
	flat := make([]hop, 0, total)
	for local := range r.hops {
		start := len(flat)
		for _, fr := range fabric.FanoutTemplate(local) {
			flat = append(flat, compileHop(fr.DRow, fr.DCol, fr.SinkLocal,
				int32((fr.DRow*dev.Cols+fr.DCol)*fabric.NodeSlots+fr.SinkLocal-local)))
		}
		r.hops[local] = flat[start:len(flat):len(flat)]
	}
	r.padHops = make([][]hop, dev.NumPads())
	return r
}

// padFanout returns the fanout of pad node n (pad index i), compiling it
// from FanoutOf on first use.
func (r *Router) padFanout(n fabric.NodeID, i int) []hop {
	if hs := r.padHops[i]; hs != nil {
		return hs
	}
	t := r.tileOf(n)
	edges := r.dev.FanoutOf(n)
	hs := make([]hop, len(edges))
	for j, e := range edges {
		hs[j] = compileHop(e.SinkTile.Row-t.Row, e.SinkTile.Col-t.Col, e.SinkLocal,
			int32(int64(e.Sink)-int64(n)))
	}
	r.padHops[i] = hs
	return hs
}

// Reset starts a fresh session in O(1): no congestion history, and blocked
// exactly the nodes used marks (indexed by NodeID; nil blocks nothing). The
// router reads used in place as the session's base, so a later change to it
// shows through; Block never writes it.
func (r *Router) Reset(used []bool) {
	r.epoch++
	r.base = used
}

// Block marks nodes as unusable (owned by other circuitry) for the session.
func (r *Router) Block(nodes ...fabric.NodeID) {
	for _, n := range nodes {
		r.blockedAt[n] = r.epoch
	}
}

// Blocked reports whether a node is blocked.
func (r *Router) Blocked(n fabric.NodeID) bool {
	return r.blockedAt[n] == r.epoch || int(n) < len(r.base) && r.base[n]
}

func (r *Router) historyOf(n fabric.NodeID) float64 {
	if r.historyAt[n] == r.epoch {
		return r.history[n]
	}
	return 0
}

func (r *Router) addHistory(n fabric.NodeID, d float64) {
	if r.historyAt[n] != r.epoch {
		r.historyAt[n] = r.epoch
		r.history[n] = 0
	}
	r.history[n] += d
}

func (r *Router) presentOf(n fabric.NodeID) int32 {
	if r.presentAt[n] == r.epoch {
		return r.present[n]
	}
	return 0
}

func (r *Router) addPresent(n fabric.NodeID, d int32) int32 {
	if r.presentAt[n] != r.epoch {
		r.presentAt[n] = r.epoch
		r.present[n] = 0
	}
	r.present[n] += d
	return r.present[n]
}

// ownerOf returns the owning net index, or -1 when unowned.
func (r *Router) ownerOf(n fabric.NodeID) int32 {
	if r.ownerAt[n] == r.epoch {
		return r.owner[n]
	}
	return -1
}

func (r *Router) setOwner(n fabric.NodeID, idx int32) {
	r.ownerAt[n] = r.epoch
	r.owner[n] = idx
}

func (r *Router) clearOwner(n fabric.NodeID) { r.ownerAt[n] = 0 }

// item is an open-set entry. next links a listed entry to the next slot of
// its bucket; it sits in the padding after node, so an item stays 24 bytes.
type item struct {
	node fabric.NodeID
	next int32
	cost float64
	est  float64
}

// The open set's buckets: an entry goes to bucket floor(est·bucketsPerNs),
// and the last bucket also takes every estimate from numBuckets/bucketsPerNs
// (64 ns) up. The width is a power of two, so est·bucketsPerNs is exact and
// the bucket is monotone in est. Finer buckets do not shrink the front: a
// search crosses plateaus of equal est (a hex hop toward the sink costs
// exactly what the heuristic takes off), and at 1,024 buckets per ns the
// bucket being popped held nearly as many entries as at 64. 64 ns covers
// every estimate but long XCV800 boundary patches and heavy negotiation,
// which share the last bucket.
const (
	bucketsPerNs = 64
	numBuckets   = 4096
)

// pq is the A* open set: an exact min-queue on (est, node), the node
// tie-break keeping expansion deterministic. More than half of what a search
// queues never pops, so only the lowest bucket is heap-ordered:
//
//   - the front, a binary min-heap on (est, node), holds every entry whose
//     bucket is at most cur;
//   - each bucket above cur is an unordered list threaded through one slot
//     pool, and bits marks the non-empty ones.
//
// It is exact. Every listed entry has est ≥ (cur+1)/64 and every front entry
// less, so while the front is non-empty its least entry is the least of all;
// when it empties, the lowest listed bucket becomes the front. A push at or
// below cur joins the front, which is what keeps this valid under the
// router's inconsistent heuristic (est drops by 1.05 ns on the hop out of a
// hex start), where a monotone queue (Dial's buckets, a radix heap) would
// reorder pops. Two entries with one (est, node) are one node queued twice
// with different costs; the search skips the stale one whenever it pops, so
// their relative order does not matter.
//
// rlmbench attributes route.heap_cpu_share to push, pop and pqLess by name,
// so all open-set work stays in them: pop refills the front through push and
// keeps its sift-down inline, and the share still counts the whole open set.
type pq struct {
	front  []item
	cur    int
	pool   []item  // listed entries, and the free slots of refilled buckets
	free   int32   // first free pool slot, or -1
	listed int     // entries in the pool's buckets
	head   []int32 // head[b] is bucket b's first slot, valid while its bit is set
	bits   [numBuckets / 64]uint64
}

// reset empties the queue in O(1) apart from clearing the bitmap. The bucket
// heads are allocated by the first search, not by NewRouter, so building a
// router costs only its per-node arrays. The pool and the front start at a
// size a search reaches anyway (a front holds about one plateau; a search
// across the device lists over 10,000 entries), so a new router's first
// search does not grow two slices from nothing where the binary heap grew
// one.
func (p *pq) reset() {
	if p.head == nil {
		p.head = make([]int32, numBuckets)
		p.pool = make([]item, 0, numBuckets)
		p.front = make([]item, 0, 256)
	}
	p.front, p.pool = p.front[:0], p.pool[:0]
	p.cur, p.free, p.listed = 0, -1, 0
	clear(p.bits[:])
}

func (p *pq) len() int { return len(p.front) + p.listed }

func pqLess(a, b item) bool {
	if a.est != b.est {
		return a.est < b.est
	}
	return a.node < b.node
}

func (p *pq) push(it item) {
	// Compared before converting: converting a float past int's range is
	// implementation-defined.
	b := numBuckets - 1
	if it.est < numBuckets/bucketsPerNs {
		b = int(it.est * bucketsPerNs)
	}
	if b > p.cur {
		w, bit := b/64, uint64(1)<<(b%64)
		it.next = -1
		if p.bits[w]&bit != 0 {
			it.next = p.head[b]
		}
		p.bits[w] |= bit
		s := p.free
		if s >= 0 {
			p.free = p.pool[s].next
			p.pool[s] = it
		} else {
			s = int32(len(p.pool))
			p.pool = append(p.pool, it)
		}
		p.head[b] = s
		p.listed++
		return
	}
	p.front = append(p.front, it)
	q := p.front
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pqLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (p *pq) pop() item {
	if len(p.front) == 0 {
		// Refill from the lowest listed bucket. Every bucket at or below
		// cur is empty, so the scan starts at cur's word.
		w := p.cur / 64
		for p.bits[w] == 0 {
			w++
		}
		p.cur = w*64 + bits.TrailingZeros64(p.bits[w])
		p.bits[w] &^= 1 << (p.cur % 64)
		var tail int32
		for s := p.head[p.cur]; s >= 0; s = p.pool[s].next {
			p.push(p.pool[s]) // joins the front: its bucket is cur
			p.listed--
			tail = s
		}
		p.pool[tail].next, p.free = p.free, p.head[p.cur]
	}
	q := p.front
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	p.front = q
	i := 0
	for {
		l, rgt := 2*i+1, 2*i+2
		smallest := i
		if l < len(q) && pqLess(q[l], q[smallest]) {
			smallest = l
		}
		if rgt < len(q) && pqLess(q[rgt], q[smallest]) {
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
func (r *Router) tileOf(n fabric.NodeID) fabric.Coord {
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

// heuristicPerTile underestimates the cheapest per-tile cost: a hex wire
// covers six tiles for 1.10 ns of wire delay plus the 0.01 per-hop bias, so
// no expansion can cover a tile for less. Keeping it tight keeps A* focused.
// It does not make the search admissible: searchOne multiplies it by the
// distance from the tile a node's wire starts in (nr, nc), but the node's
// cost already includes that wire's delay to its far tile, so the estimate
// counts those tiles twice and can exceed the true remaining cost. On the
// Tab. 2 relocations 90 of 545 sinks had a cheaper path than the one found;
// ROADMAP's "Delay-optimal routing with fewer knobs" item estimates from
// the far tile instead.
const heuristicPerTile = (1.10 + 0.01) / 6

// searchMargins are the staged bounding-box inflations of a sink search: the
// box spans the current tree and the sink, inflated by the margin. Most nets
// are short and resolve inside the first box at a fraction of the expansion
// cost of a whole-device search; a search that exhausts a box retries with
// the next inflation, and the final stage is unbounded, so reachability is
// never lost — only found later.
var searchMargins = [...]int{3, 9, -1}

// routeOne expands from the current net tree (stamped into treeAt by the
// caller) to one sink, inflating the search bounding box on failure.
// presentFactor scales the congestion penalty. Returns the path from a tree
// node to the sink, valid until the next search (it lives in reusable
// scratch).
func (r *Router) routeOne(seeds []fabric.NodeID, sink fabric.NodeID,
	netIdx int32, presentFactor float64, within *fabric.Rect) ([]fabric.NodeID, error) {
	for _, margin := range searchMargins {
		if path := r.searchOne(seeds, sink, netIdx, presentFactor, margin, within); path != nil {
			return path, nil
		}
	}
	return nil, fmt.Errorf("route: no path to sink %d", sink)
}

// searchOne is one bounded A* expansion; margin < 0 means unbounded. It
// returns nil when the open set exhausts without reaching the sink.
//
// The relaxation walks the compiled fanout template: per edge, one box test
// (the box is clamped to the device, so it also rejects template offsets
// that leave the array), the dead-end tests, the blocked stamp and base, and
// the cost stamp. The congestion terms are read only in an epoch in which
// RouteAll ran: only RouteAll stamps them, so in any other epoch they read as
// exact zeros, and skipping them leaves costs bit-identical.
//
// Dead-end pruning is exact too. A pruned node's expansion would relax
// nothing (a terminal has no fanout; every hop of the pruned wire fails the
// box test), so popping it changes no other node's cost or predecessor, and
// the open set pops in the total order (est, node): leaving it out of the
// queue leaves every other pop, cost and predecessor, and therefore every
// route, as it was.
func (r *Router) searchOne(seeds []fabric.NodeID, sink fabric.NodeID,
	netIdx int32, presentFactor float64, margin int, within *fabric.Rect) []fabric.NodeID {
	dev := r.dev
	target := sink
	sinkTile := r.tileOf(sink)

	// Output-pad sinks are reached through their candidate pre-pad wires.
	var prePad [fabric.PadOutSources]fabric.NodeID
	padSink := false
	if pad, ok := dev.PadOfNode(sink); ok {
		padSink = true
		for b := range prePad {
			prePad[b] = dev.PadOutSourceNode(pad, b)
		}
	}

	// Bounding box over the tree's tiles and the sink, inflated by margin,
	// clamped to the device and, under a Bound, to the bound. Only the
	// target may be entered outside it: the bound exempts the target, and
	// the target's tile always lies inside the staged box.
	minR, maxR, minC, maxC := 0, dev.Rows-1, 0, dev.Cols-1
	if margin >= 0 {
		bMinR, bMaxR := sinkTile.Row, sinkTile.Row
		bMinC, bMaxC := sinkTile.Col, sinkTile.Col
		for _, n := range seeds {
			t := r.tileOf(n)
			bMinR, bMaxR = min(bMinR, t.Row), max(bMaxR, t.Row)
			bMinC, bMaxC = min(bMinC, t.Col), max(bMaxC, t.Col)
		}
		minR, maxR = max(minR, bMinR-margin), min(maxR, bMaxR+margin)
		minC, maxC = max(minC, bMinC-margin), min(maxC, bMaxC+margin)
	}
	if within != nil {
		minR, maxR = max(minR, within.Row), min(maxR, within.Row+within.H-1)
		minC, maxC = max(minC, within.Col), min(maxC, within.Col+within.W-1)
	}

	hPerTile := heuristicPerTile
	if r.Greedy > 1 {
		hPerTile *= r.Greedy
	}
	r.searchEpoch++
	se := r.searchEpoch
	r.q.reset()
	for _, n := range seeds {
		r.q.push(item{node: n, cost: 0, est: float64(r.tileOf(n).ManhattanDist(sinkTile)) * hPerTile})
		r.searchAt[n], r.best[n], r.prev[n] = se, 0, fabric.InvalidNode
	}

	epoch, base := r.epoch, r.base
	negotiating := r.negotiatedAt == epoch
	padBase := dev.PadBase()
	cols := dev.Cols
	for r.q.len() > 0 {
		it := r.q.pop()
		cur := it.node
		if it.cost > r.best[cur] {
			continue
		}
		if cur == target {
			return r.reconstruct(cur, se)
		}
		if padSink && slices.Contains(prePad[:], cur) {
			// One more hop into the pad.
			r.searchAt[target], r.best[target], r.prev[target] = se, it.cost, cur
			return r.reconstruct(target, se)
		}
		var row, col int
		var hops []hop
		if cur < padBase {
			tile := int(cur) / fabric.NodeSlots
			row, col = tile/cols, tile%cols
			hops = r.hops[int(cur)%fabric.NodeSlots]
		} else {
			t := r.tileOf(cur)
			row, col = t.Row, t.Col
			hops = r.padFanout(cur, int(cur-padBase))
		}
		for i := range hops {
			h := &hops[i]
			nr, nc := row+int(h.dRow), col+int(h.dCol)
			nxt := cur + fabric.NodeID(h.delta)
			if nr < minR || nr > maxR || nc < minC || nc > maxC {
				if nr != sinkTile.Row || nc != sinkTile.Col || nxt != target {
					continue
				}
			} else if nxt != target {
				// Dead ends: a terminal, or a wire whose fanout lands
				// outside the box and off the sink tile, would relax
				// nothing when expanded, so it is neither stamped nor
				// queued. A pad sink's pre-pad wires end the search when
				// popped and stay.
				if h.terminal {
					continue
				}
				if fr, fc := row+int(h.farRow), col+int(h.farCol); (fr < minR || fr > maxR || fc < minC || fc > maxC) &&
					(fr != sinkTile.Row || fc != sinkTile.Col) && !(padSink && slices.Contains(prePad[:], nxt)) {
					continue
				}
				// The target itself may be "in use" (an already-driven pin
				// being connected in PARALLEL — the relocation procedure's
				// core move); only intermediate nodes must be free. The
				// length test admits a nil base and spares the bounds
				// check.
				if r.blockedAt[nxt] == epoch || int(nxt) < len(base) && base[nxt] {
					continue
				}
			}
			c := it.cost + h.delay
			if negotiating {
				// Nodes owned by another net cost extra (negotiation)
				// instead of being forbidden outright.
				penalty := 0.0
				if o := r.ownerOf(nxt); o >= 0 && o != netIdx {
					penalty = presentFactor * (1 + float64(r.presentOf(nxt)))
				}
				c = c + r.historyOf(nxt) + penalty
			}
			c += 0.01
			if r.searchAt[nxt] == se && r.best[nxt] <= c {
				continue
			}
			r.searchAt[nxt], r.best[nxt], r.prev[nxt] = se, c, cur
			est := c + float64(fabric.Coord{Row: nr, Col: nc}.ManhattanDist(sinkTile))*hPerTile
			r.q.push(item{node: nxt, cost: c, est: est})
		}
	}
	return nil
}

// reconstruct walks the search predecessors from a reached node back to the
// current net tree and returns the path tree-node-first. The path lives in
// reusable scratch, valid until the next search.
func (r *Router) reconstruct(from fabric.NodeID, se uint64) []fabric.NodeID {
	path := r.pathBuf[:0]
	for n := from; n != fabric.InvalidNode; {
		path = append(path, n)
		if r.treeAt[n] == r.treeEpoch {
			break
		}
		if r.searchAt[n] != se {
			break
		}
		n = r.prev[n]
	}
	reverse(path)
	r.pathBuf = path
	return path
}

func reverse(p []fabric.NodeID) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// RouteAll routes a set of nets with negotiated congestion and returns the
// routed trees. It fails if congestion cannot be resolved in MaxIters
// rounds.
func (r *Router) RouteAll(nets []Net) ([]RoutedNet, error) {
	if r.owner == nil {
		n := len(r.blockedAt)
		r.history, r.historyAt = make([]float64, n), make([]uint64, n)
		r.present, r.presentAt = make([]int32, n), make([]uint64, n)
		r.owner, r.ownerAt = make([]int32, n), make([]uint64, n)
	}
	r.negotiatedAt = r.epoch
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
func (r *Router) routeNet(net Net, netIdx int32, presentFactor float64) (*RoutedNet, error) {
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
		reverse(slab[start:])
		rn.Paths[sink] = slab[start:len(slab):len(slab)]
	}
	r.seedBuf = seeds
	return rn, nil
}

// RouteDisjoint routes nets one by one, treating every previously routed or
// blocked node as strictly off-limits (no sharing, no negotiation). The
// relocation engine uses it: transfer paths must use only free resources and
// must never perturb existing nets.
func (r *Router) RouteDisjoint(nets []Net) ([]RoutedNet, error) {
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

// Apply enables the PIPs of routed nets in the device configuration
// (designer-level path; the relocation engine emits frame writes instead).
func Apply(dev *fabric.Device, nets []RoutedNet) error {
	for i := range nets {
		if err := ApplyNet(dev, &nets[i]); err != nil {
			return err
		}
	}
	return nil
}

// ApplyNet enables the PIPs along one routed net.
func ApplyNet(dev *fabric.Device, rn *RoutedNet) error {
	for _, path := range rn.Paths {
		for i := 1; i < len(path); i++ {
			if err := EnablePathPIP(dev, path[i-1], path[i]); err != nil {
				return fmt.Errorf("net %s: %w", rn.Name, err)
			}
		}
	}
	return nil
}

// EnablePathPIP turns on the PIP connecting src to dst (dst may be a tile
// sink or an output pad).
func EnablePathPIP(dev *fabric.Device, src, dst fabric.NodeID) error {
	if pad, ok := dev.PadOfNode(dst); ok {
		srcs := dev.PadOutSourceNodes(pad)
		for b, n := range srcs {
			if n == src {
				pc := dev.ReadPad(pad)
				pc.OutMask |= 1 << b
				pc.Output = true
				dev.WritePad(pad, pc)
				return nil
			}
		}
		return fmt.Errorf("node %d does not feed pad %v", src, pad)
	}
	c, local, ok := dev.SplitNode(dst)
	if !ok || !fabric.IsLocalSink(local) {
		return fmt.Errorf("node %d is not a configurable sink", dst)
	}
	bit, ok := dev.PIPBitFor(c, local, src)
	if !ok {
		return fmt.Errorf("no PIP from %d to %d", src, dst)
	}
	dev.SetPIPMask(c, local, dev.PIPMask(c, local)|1<<bit)
	return nil
}
