package route

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fabric"
)

func dev(t *testing.T) *fabric.Device {
	t.Helper()
	return fabric.NewDevice(fabric.TestDevice)
}

// checkPath verifies that every hop of a path is a real PIP of the fabric.
func checkPath(t *testing.T, d *fabric.Device, path []fabric.NodeID) {
	t.Helper()
	if len(path) < 2 {
		t.Fatal("degenerate path")
	}
	for i := 1; i < len(path); i++ {
		src, dst := path[i-1], path[i]
		if pad, ok := d.PadOfNode(dst); ok {
			found := false
			for _, n := range d.PadOutSourceNodes(pad) {
				if n == src {
					found = true
				}
			}
			if !found {
				t.Fatalf("hop %d: %d does not feed pad %v", i, src, pad)
			}
			continue
		}
		c, local, ok := d.SplitNode(dst)
		if !ok {
			t.Fatalf("hop %d: bad node", i)
		}
		if _, ok := d.PIPBitFor(c, local, src); !ok {
			t.Fatalf("hop %d: no PIP %d -> %d", i, src, dst)
		}
	}
}

func TestRouteCellToCell(t *testing.T) {
	d := dev(t)
	src := d.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
	sink := d.NodeIDAt(fabric.Coord{Row: 2, Col: 5}, fabric.LocalPinI(1, 2))
	r := NewRouter(d)
	nets, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}})
	if err != nil {
		t.Fatal(err)
	}
	path := nets[0].Paths[sink]
	if path[0] != src || path[len(path)-1] != sink {
		t.Fatal("path endpoints wrong")
	}
	checkPath(t, d, path)
}

func TestRouteMultiSinkSharesTree(t *testing.T) {
	d := dev(t)
	src := d.NodeIDAt(fabric.Coord{Row: 4, Col: 2}, fabric.LocalOutXQ(1))
	s1 := d.NodeIDAt(fabric.Coord{Row: 4, Col: 8}, fabric.LocalPinI(0, 0))
	s2 := d.NodeIDAt(fabric.Coord{Row: 4, Col: 8}, fabric.LocalPinI(0, 1))
	r := NewRouter(d)
	nets, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{s1, s2}}})
	if err != nil {
		t.Fatal(err)
	}
	checkPath(t, d, nets[0].Paths[s1])
	checkPath(t, d, nets[0].Paths[s2])
	// The shared tree should be smaller than two independent paths.
	if len(nets[0].Tree) >= len(nets[0].Paths[s1])+len(nets[0].Paths[s2]) {
		t.Errorf("tree %d nodes not sharing: paths %d + %d",
			len(nets[0].Tree), len(nets[0].Paths[s1]), len(nets[0].Paths[s2]))
	}
}

func TestRoutePadToPin(t *testing.T) {
	d := dev(t)
	pad := fabric.PadRef{Side: West, Pos: 3, K: 0}
	src := d.PadNodeID(pad)
	sink := d.NodeIDAt(fabric.Coord{Row: 3, Col: 4}, fabric.LocalPinI(2, 1))
	r := NewRouter(d)
	nets, err := r.RouteAll([]Net{{Name: "in", Source: src, Sinks: []fabric.NodeID{sink}}})
	if err != nil {
		t.Fatal(err)
	}
	checkPath(t, d, nets[0].Paths[sink])
}

const West = fabric.West // readability alias

func TestRoutePinToPad(t *testing.T) {
	d := dev(t)
	src := d.NodeIDAt(fabric.Coord{Row: 5, Col: 9}, fabric.LocalOutX(3))
	pad := fabric.PadRef{Side: fabric.East, Pos: 5, K: 1}
	sink := d.PadNodeID(pad)
	r := NewRouter(d)
	nets, err := r.RouteAll([]Net{{Name: "out", Source: src, Sinks: []fabric.NodeID{sink}}})
	if err != nil {
		t.Fatal(err)
	}
	path := nets[0].Paths[sink]
	checkPath(t, d, path)
	if path[len(path)-1] != sink {
		t.Error("path does not end at pad")
	}
}

func TestApplyEnablesPIPs(t *testing.T) {
	d := dev(t)
	src := d.NodeIDAt(fabric.Coord{Row: 1, Col: 1}, fabric.LocalOutX(0))
	sink := d.NodeIDAt(fabric.Coord{Row: 1, Col: 3}, fabric.LocalPinI(0, 0))
	r := NewRouter(d)
	nets, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(d, nets); err != nil {
		t.Fatal(err)
	}
	// Walk the configuration from the sink back to the source.
	path := nets[0].Paths[sink]
	for i := len(path) - 1; i >= 1; i-- {
		dst := path[i]
		c, local, _ := d.SplitNode(dst)
		enabled := d.EnabledSourceNodes(c, local)
		found := false
		for _, n := range enabled {
			if n == path[i-1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("PIP %d -> %d not enabled in config", path[i-1], dst)
		}
	}
}

func TestDisjointRoutingNeverShares(t *testing.T) {
	d := dev(t)
	var nets []Net
	for i := 0; i < 4; i++ {
		src := d.NodeIDAt(fabric.Coord{Row: i, Col: 0}, fabric.LocalOutX(0))
		sink := d.NodeIDAt(fabric.Coord{Row: i, Col: 6}, fabric.LocalPinI(0, 0))
		nets = append(nets, Net{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}})
	}
	r := NewRouter(d)
	routed, err := r.RouteDisjoint(nets)
	if err != nil {
		t.Fatal(err)
	}
	used := map[fabric.NodeID]int{}
	for i := range routed {
		for _, n := range routed[i].Tree {
			used[n]++
			if used[n] > 1 {
				t.Fatalf("node %d used by two disjoint nets", n)
			}
		}
	}
}

func TestCongestionNegotiation(t *testing.T) {
	d := dev(t)
	// Many nets crossing the same region: negotiation must find disjoint
	// final assignments.
	var nets []Net
	for i := 0; i < 6; i++ {
		src := d.NodeIDAt(fabric.Coord{Row: 3, Col: 1}, fabric.LocalOutX(i%4))
		if i >= 4 {
			src = d.NodeIDAt(fabric.Coord{Row: 4, Col: 1}, fabric.LocalOutX(i%4))
		}
		sink := d.NodeIDAt(fabric.Coord{Row: 3 + i%2, Col: 9}, fabric.LocalPinI(i%4, i/4))
		nets = append(nets, Net{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}})
	}
	r := NewRouter(d)
	routed, err := r.RouteAll(nets)
	if err != nil {
		t.Fatal(err)
	}
	used := map[fabric.NodeID]bool{}
	for i := range routed {
		for _, n := range routed[i].Tree {
			if n == routed[i].Source {
				continue
			}
			if used[n] {
				t.Fatalf("node %d shared between nets after negotiation", n)
			}
			used[n] = true
		}
	}
}

func TestBlockedNodesAvoided(t *testing.T) {
	d := dev(t)
	src := d.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
	sink := d.NodeIDAt(fabric.Coord{Row: 2, Col: 4}, fabric.LocalPinI(0, 0))
	r := NewRouter(d)
	// Block everything in the direct row corridor except detours.
	for c := 2; c <= 4; c++ {
		for i := 0; i < fabric.SinglesPerDir; i++ {
			r.Block(d.NodeIDAt(fabric.Coord{Row: 2, Col: c}, fabric.LocalSingle(fabric.East, i)))
		}
	}
	nets, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nets[0].Tree {
		if r.Blocked(n) {
			t.Fatal("route used a blocked node")
		}
	}
}

// TestResetReadsBaseInPlace pins a session's blocked set: the base Reset
// takes is read in place, Block stamps the session's changes on top of it
// without writing it, and the next Reset drops those changes.
func TestResetReadsBaseInPlace(t *testing.T) {
	d := dev(t)
	src := d.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
	sink := d.NodeIDAt(fabric.Coord{Row: 2, Col: 4}, fabric.LocalPinI(0, 0))
	nets := []Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}}
	r := NewRouter(d)
	route := func() []fabric.NodeID {
		t.Helper()
		routed, err := r.RouteAll(nets)
		if err != nil {
			t.Fatal(err)
		}
		return routed[0].Paths[sink]
	}
	blocked := func(what string, want bool, nodes ...fabric.NodeID) {
		t.Helper()
		for _, n := range nodes {
			if r.Blocked(n) != want {
				t.Fatalf("%s: node %d blocked %t, want %t", what, n, !want, want)
			}
		}
	}

	base := make([]bool, int(d.PadBase())+d.NumPads())
	r.Reset(base)
	free := route()
	mid := free[1 : len(free)-1]
	if len(mid) < 2 {
		t.Fatalf("path %v has fewer than two intermediate nodes", free)
	}

	r.Reset(base)
	for _, n := range mid {
		base[n] = true
	}
	blocked("base set after Reset", true, mid...)
	for _, n := range route() {
		if slices.Contains(mid, n) {
			t.Fatalf("route through base node %d", n)
		}
	}
	r.Block(free[0])
	blocked("Block on top of the base", true, free[0])
	if base[free[0]] {
		t.Fatalf("Block wrote the base at node %d", free[0])
	}

	r.Reset(base)
	blocked("Block across Reset", false, free[0])
	blocked("base across Reset", true, mid...)
	for _, n := range mid {
		base[n] = false
	}
	blocked("base cleared in place", false, mid...)
	if got := route(); !slices.Equal(got, free) {
		t.Fatalf("with the base cleared the route is %v, want %v", got, free)
	}

	r.Reset(nil)
	blocked("Reset(nil)", false, mid...)
	if got := route(); !slices.Equal(got, free) {
		t.Fatalf("with no base the route is %v, want %v", got, free)
	}
}

func TestRouteFailsWhenFullyBlocked(t *testing.T) {
	d := dev(t)
	src := d.NodeIDAt(fabric.Coord{Row: 2, Col: 2}, fabric.LocalOutX(0))
	sink := d.NodeIDAt(fabric.Coord{Row: 2, Col: 4}, fabric.LocalPinI(0, 0))
	r := NewRouter(d)
	// Block every wire start on the whole device.
	for row := 0; row < d.Rows; row++ {
		for col := 0; col < d.Cols; col++ {
			for dir := fabric.Dir(0); dir < 4; dir++ {
				for i := 0; i < fabric.SinglesPerDir; i++ {
					r.Block(d.NodeIDAt(fabric.Coord{Row: row, Col: col}, fabric.LocalSingle(dir, i)))
				}
			}
		}
	}
	if _, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}}); err == nil {
		t.Fatal("route succeeded through fully blocked fabric")
	}
}

func TestPathDelayGrowsWithDistance(t *testing.T) {
	d := dev(t)
	r := NewRouter(d)
	src := d.NodeIDAt(fabric.Coord{Row: 1, Col: 0}, fabric.LocalOutX(0))
	near := d.NodeIDAt(fabric.Coord{Row: 1, Col: 1}, fabric.LocalPinI(0, 0))
	far := d.NodeIDAt(fabric.Coord{Row: 6, Col: 11}, fabric.LocalPinI(0, 0))
	nets, err := r.RouteAll([]Net{
		{Name: "near", Source: src, Sinks: []fabric.NodeID{near}},
		{Name: "far", Source: d.NodeIDAt(fabric.Coord{Row: 1, Col: 0}, fabric.LocalOutX(1)), Sinks: []fabric.NodeID{far}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dNear := nets[0].DelayTo(d, near)
	dFar := nets[1].DelayTo(d, far)
	if dNear <= 0 || dFar <= dNear {
		t.Errorf("delays near=%.2f far=%.2f", dNear, dFar)
	}
}

func TestRouteNetNoSinks(t *testing.T) {
	d := dev(t)
	r := NewRouter(d)
	src := d.NodeIDAt(fabric.Coord{Row: 0, Col: 0}, fabric.LocalOutX(0))
	if _, err := r.RouteAll([]Net{{Name: "n", Source: src}}); err == nil {
		t.Error("net with no sinks accepted")
	}
}

// TestPadSinkIsTerminal pins the pad-terminal rule: when a multi-sink net
// includes an output pad, the pad must never seed the search for the
// remaining sinks — a signal cannot re-enter the array through an output
// pad, and a path built "through" the pad (pad -> border wire -> pin) is
// electrically dead (the branch would float, and the fabric simulator
// latches the resulting X into downstream state). The second sink here sits
// right next to the pad, so a pad seed would win the search instantly if it
// were allowed.
func TestPadSinkIsTerminal(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	src := dev.NodeIDAt(fabric.Coord{Row: 1, Col: 2}, fabric.LocalOutX(0))
	pad := fabric.PadRef{Side: fabric.East, Pos: 5, K: 0}
	padNode := dev.PadNodeID(pad)
	pin := dev.NodeIDAt(fabric.Coord{Row: 5, Col: 23}, fabric.LocalPinI(0, 0))
	r := NewRouter(dev)
	routed, err := r.RouteAll([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{padNode, pin}}})
	if err != nil {
		t.Fatal(err)
	}
	for sink, path := range routed[0].Paths {
		for i, n := range path {
			if _, isPad := dev.PadOfNode(n); isPad && i != len(path)-1 {
				t.Fatalf("sink %d: pad node %d at position %d of %v — routed through an output pad", sink, n, i, path)
			}
		}
	}
	// The pad must still be part of the net's tree, so disjoint routing of
	// later nets treats it as occupied.
	found := false
	for _, n := range routed[0].Tree {
		if n == padNode {
			found = true
		}
	}
	if !found {
		t.Fatal("pad sink missing from the routed tree")
	}

	// Whitebox: the pad must never have entered the expansion seed list —
	// that is the mechanism by which the dead branch was built (the pad,
	// grafted into the tree by the first sink, seeded the second sink's
	// search and expanded through padFanout back into the array).
	for _, n := range r.seedBuf {
		if n >= dev.PadBase() {
			t.Fatalf("pad node %d used as an expansion seed", n)
		}
	}
}

// TestSearchQueuesNoDeadEnds pins the search's dead-end pruning, which
// TestRouterMatchesReference cannot see: routes are identical either way.
// On an empty XCV200 it routes short seeded nets one RouteDisjoint call at a
// time (cell output to input pin, cell output to output pad, input pad to
// input pin), each short enough that the first, margin-3 search stage
// succeeds. After each call, every node the search stamped must be able to
// relax something when expanded: a seed, the target, a pre-pad wire of a
// pad target, or a non-terminal whose far-end tile lies inside the search
// box or on the sink tile.
func TestSearchQueuesNoDeadEnds(t *testing.T) {
	const margin = 3 // searchMargins[0]
	d := fabric.NewDevice(fabric.XCV200)
	r := NewRouter(d)
	rng := rand.New(rand.NewSource(15))
	clamp := func(v, hi int) int { return max(0, min(hi, v)) }
	near := func(c fabric.Coord) fabric.Coord {
		return fabric.Coord{Row: clamp(c.Row+rng.Intn(2*margin+1)-margin, d.Rows-1),
			Col: clamp(c.Col+rng.Intn(2*margin+1)-margin, d.Cols-1)}
	}
	output := func(c fabric.Coord) fabric.NodeID {
		if rng.Intn(2) == 0 {
			return d.NodeIDAt(c, fabric.LocalOutX(rng.Intn(fabric.CellsPerCLB)))
		}
		return d.NodeIDAt(c, fabric.LocalOutXQ(rng.Intn(fabric.CellsPerCLB)))
	}
	pin := func(c fabric.Coord) fabric.NodeID {
		cell := rng.Intn(fabric.CellsPerCLB)
		switch rng.Intn(3) {
		case 0:
			return d.NodeIDAt(c, fabric.LocalPinBX(cell))
		case 1:
			return d.NodeIDAt(c, fabric.LocalPinCE(cell))
		}
		return d.NodeIDAt(c, fabric.LocalPinI(cell, rng.Intn(fabric.LUTInputs)))
	}
	edgePad := func() fabric.NodeID {
		side := fabric.Dir(rng.Intn(4))
		span := d.Rows
		if side == fabric.North || side == fabric.South {
			span = d.Cols
		}
		return d.PadNodeID(fabric.PadRef{Side: side, Pos: rng.Intn(span), K: rng.Intn(fabric.PadsPerEdgeTile)})
	}

	stamped := 0
	for i := 0; i < 300; i++ {
		var src, sink fabric.NodeID
		switch i % 3 {
		case 0:
			src = output(fabric.Coord{Row: rng.Intn(d.Rows), Col: rng.Intn(d.Cols)})
			sink = pin(near(r.tileOf(src)))
		case 1:
			sink = edgePad()
			src = output(near(r.tileOf(sink)))
		default:
			src = edgePad()
			sink = pin(near(r.tileOf(src)))
		}
		r.Reset(nil)
		routed, err := r.RouteDisjoint([]Net{{Name: "n", Source: src, Sinks: []fabric.NodeID{sink}}})
		if err != nil {
			t.Fatalf("net %d (%d -> %d): %v", i, src, sink, err)
		}

		// The search box of the margin-3 stage, as searchOne stages it.
		srcTile, sinkTile := r.tileOf(src), r.tileOf(sink)
		minR, maxR := max(0, min(srcTile.Row, sinkTile.Row)-margin), min(d.Rows-1, max(srcTile.Row, sinkTile.Row)+margin)
		minC, maxC := max(0, min(srcTile.Col, sinkTile.Col)-margin), min(d.Cols-1, max(srcTile.Col, sinkTile.Col)+margin)
		inBox := func(c fabric.Coord) bool {
			return c.Row >= minR && c.Row <= maxR && c.Col >= minC && c.Col <= maxC
		}
		for _, n := range routed[0].Paths[sink] {
			if n < d.PadBase() && !inBox(r.tileOf(n)) {
				t.Fatalf("net %d: path leaves the margin-%d box, so a later stage ran", i, margin)
			}
		}
		var prePad []fabric.NodeID
		if pad, ok := d.PadOfNode(sink); ok {
			prePad = d.PadOutSourceNodes(pad)
		}
		for n := fabric.NodeID(0); int(n) < len(r.searchAt); n++ {
			if r.searchAt[n] != r.searchEpoch {
				continue
			}
			stamped++
			if n == src || n == sink || slices.Contains(prePad, n) {
				continue
			}
			c, local, ok := d.SplitNode(n)
			if !ok {
				t.Fatalf("net %d: pad %d stamped", i, n)
			}
			fan := fabric.FanoutTemplate(local)
			if len(fan) == 0 {
				t.Fatalf("net %d: terminal %d (%v local %d) stamped", i, n, c, local)
			}
			far := fabric.Coord{Row: c.Row + fan[0].DRow, Col: c.Col + fan[0].DCol}
			if !inBox(far) && far != sinkTile {
				t.Fatalf("net %d: node %d (%v local %d) stamped, its fanout lands at %v outside rows %d-%d cols %d-%d",
					i, n, c, local, far, minR, maxR, minC, maxC)
			}
		}
	}
	if stamped == 0 {
		t.Fatal("no search stamped any node")
	}
}
