package fabric

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDirOps(t *testing.T) {
	cases := []struct {
		d               Dir
		opp, left, rght Dir
		dr, dc          int
	}{
		{North, South, West, East, -1, 0},
		{East, West, North, South, 0, 1},
		{South, North, East, West, 1, 0},
		{West, East, South, North, 0, -1},
	}
	for _, c := range cases {
		if c.d.Opposite() != c.opp {
			t.Errorf("%v.Opposite() = %v, want %v", c.d, c.d.Opposite(), c.opp)
		}
		if c.d.Left() != c.left {
			t.Errorf("%v.Left() = %v, want %v", c.d, c.d.Left(), c.left)
		}
		if c.d.Right() != c.rght {
			t.Errorf("%v.Right() = %v, want %v", c.d, c.d.Right(), c.rght)
		}
		if c.d.DeltaRow() != c.dr || c.d.DeltaCol() != c.dc {
			t.Errorf("%v delta = (%d,%d), want (%d,%d)", c.d, c.d.DeltaRow(), c.d.DeltaCol(), c.dr, c.dc)
		}
	}
}

func TestCoordStep(t *testing.T) {
	c := Coord{Row: 5, Col: 7}
	if got := c.Step(North, 2); got != (Coord{Row: 3, Col: 7}) {
		t.Errorf("Step(North,2) = %v", got)
	}
	if got := c.Step(East, 6); got != (Coord{Row: 5, Col: 13}) {
		t.Errorf("Step(East,6) = %v", got)
	}
	if d := c.ManhattanDist(Coord{Row: 1, Col: 9}); d != 6 {
		t.Errorf("ManhattanDist = %d, want 6", d)
	}
}

func TestLocalIDsRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	check := func(local int, kind NodeKind, wantD Dir, wantIdx int) {
		t.Helper()
		if seen[local] {
			t.Fatalf("local id %d assigned twice", local)
		}
		seen[local] = true
		k, d, idx := DecodeLocal(local)
		if k != kind || d != wantD || idx != wantIdx {
			t.Errorf("DecodeLocal(%d) = (%v,%v,%d), want (%v,%v,%d)", local, k, d, idx, kind, wantD, wantIdx)
		}
	}
	for d := Dir(0); d < 4; d++ {
		for i := 0; i < SinglesPerDir; i++ {
			check(LocalSingle(d, i), KindSingle, d, i)
		}
		for j := 0; j < HexesPerDir; j++ {
			check(LocalHex(d, j), KindHex, d, j)
		}
	}
	for cell := 0; cell < CellsPerCLB; cell++ {
		for k := 0; k < LUTInputs; k++ {
			check(LocalPinI(cell, k), KindPinI, 0, cell*LUTInputs+k)
		}
		check(LocalPinBX(cell), KindPinBX, 0, cell)
		check(LocalPinCE(cell), KindPinCE, 0, cell)
		check(LocalOutX(cell), KindOutX, 0, cell)
		check(LocalOutXQ(cell), KindOutXQ, 0, cell)
	}
	if len(seen) != localNodeCount {
		t.Errorf("enumerated %d locals, want %d", len(seen), localNodeCount)
	}
	if localNodeCount > NodeSlots {
		t.Errorf("localNodeCount %d exceeds NodeSlots %d", localNodeCount, NodeSlots)
	}
}

func TestSinkTemplatesWellFormed(t *testing.T) {
	for s := 0; s < sinkCount; s++ {
		srcs := SinkSources(s)
		if len(srcs) == 0 {
			t.Errorf("sink %d has no sources", s)
		}
		if len(srcs) > maxPIPsPerSink {
			t.Errorf("sink %d has %d sources > max %d", s, len(srcs), maxPIPsPerSink)
		}
		seen := map[SourceRef]bool{}
		for _, src := range srcs {
			if seen[src] {
				t.Errorf("sink %d has duplicate source %+v", s, src)
			}
			seen[src] = true
			kind, _, _ := DecodeLocal(src.Local)
			if kind == KindPinI || kind == KindPinBX || kind == KindPinCE {
				t.Errorf("sink %d lists pin %d as a source", s, src.Local)
			}
		}
	}
	if SinkSources(LocalOutX(0)) != nil {
		t.Error("cell output should have no sources")
	}
}

func TestFanoutTemplateIsInverse(t *testing.T) {
	// Every (sink, bit) pair must appear exactly once in the fanout
	// template of its source local.
	count := 0
	for local := 0; local < localNodeCount; local++ {
		for _, fr := range fanoutTemplate[local] {
			src := sinkSources[fr.SinkLocal][fr.Bit]
			if src.Local != local || src.DRow != -fr.DRow || src.DCol != -fr.DCol {
				t.Errorf("fanout of %d: mismatched inverse %+v vs %+v", local, fr, src)
			}
			count++
		}
	}
	want := 0
	for s := 0; s < sinkCount; s++ {
		want += len(sinkSources[s])
	}
	if count != want {
		t.Errorf("fanout template has %d edges, sink templates %d", count, want)
	}
}

// TestFanoutTemplateMatchesFanoutOf validates the exported fanout template
// by enumeration, on the smallest test device and XCV50. For every tile
// node, walking FanoutTemplate of its local id with the in-array filter must
// yield exactly FanoutOf's edges, in order; and FanoutOf must list exactly
// the (sink, bit) PIPs that enumerating every sink of the array resolves to
// that node. Routers walk the template instead of calling FanoutOf, so the
// two must never drift.
func TestFanoutTemplateMatchesFanoutOf(t *testing.T) {
	for _, p := range []Preset{TestDevice, XCV50} {
		d := NewDevice(p)
		// Reverse enumeration: every configurable PIP of the array, keyed
		// by the tile node it selects.
		selects := make(map[NodeID]map[PIPEdge]bool)
		for tile := 0; tile < d.Rows*d.Cols; tile++ {
			c := d.CoordOfTile(tile)
			for s := 0; s < sinkCount; s++ {
				for b, src := range d.SinkSourceNodes(c, s) {
					if src == InvalidNode || src >= d.PadBase() {
						continue
					}
					if selects[src] == nil {
						selects[src] = make(map[PIPEdge]bool)
					}
					selects[src][PIPEdge{SinkTile: c, SinkLocal: s, Bit: b, Sink: d.NodeIDAt(c, s)}] = true
				}
			}
		}
		for n := NodeID(0); n < d.PadBase(); n++ {
			c, local, _ := d.SplitNode(n)
			var walked []PIPEdge
			for _, fr := range FanoutTemplate(local) {
				st := Coord{Row: c.Row + fr.DRow, Col: c.Col + fr.DCol}
				if d.InBounds(st) {
					walked = append(walked, PIPEdge{SinkTile: st, SinkLocal: fr.SinkLocal, Bit: fr.Bit, Sink: d.NodeIDAt(st, fr.SinkLocal)})
				}
			}
			fanout := d.FanoutOf(n)
			if !slices.Equal(walked, fanout) {
				t.Fatalf("%s: node %d (%v local %d): template walk %v, FanoutOf %v", p.Name, n, c, local, walked, fanout)
			}
			if len(fanout) != len(selects[n]) {
				t.Fatalf("%s: node %d: FanoutOf has %d edges, %d PIPs select it", p.Name, n, len(fanout), len(selects[n]))
			}
			for _, e := range fanout {
				if !selects[n][e] {
					t.Fatalf("%s: node %d: FanoutOf edge %+v selects no such PIP", p.Name, n, e)
				}
			}
		}
	}
	if FanoutTemplate(-1) != nil || FanoutTemplate(NodeSlots) != nil {
		t.Error("FanoutTemplate outside the local id range should be nil")
	}
}

// TestFanoutAllocatesNothing pins the cone walks' fanout iterator on XCV50:
// ranging Fanout over every local id of an interior and a corner tile, and
// over every pad, allocates nothing, and yields FanoutOf's edges in order,
// also when the loop breaks after any prefix.
func TestFanoutAllocatesNothing(t *testing.T) {
	d := NewDevice(XCV50)
	var nodes []NodeID
	for _, c := range []Coord{{Row: d.Rows / 2, Col: d.Cols / 2}, {Row: 0, Col: 0}} {
		for local := 0; local < NodeSlots; local++ {
			nodes = append(nodes, d.NodeIDAt(c, local))
		}
	}
	for i := 0; i < d.NumPads(); i++ {
		nodes = append(nodes, d.PadNodeID(d.PadByIndex(i)))
	}
	edges := 0
	for _, n := range nodes {
		want := d.FanoutOf(n)
		edges += len(want)
		walked := 0
		if allocs := testing.AllocsPerRun(20, func() {
			walked = 0
			for range d.Fanout(n) {
				walked++
			}
		}); allocs != 0 {
			t.Fatalf("node %d: ranging Fanout allocated %.1f times per walk", n, allocs)
		}
		if walked != len(want) {
			t.Fatalf("node %d: Fanout yielded %d edges, FanoutOf %d", n, walked, len(want))
		}
		for k := 0; k <= len(want); k++ {
			var got []PIPEdge
			for e := range d.Fanout(n) {
				if len(got) == k {
					break
				}
				got = append(got, e)
			}
			if !slices.Equal(got, want[:k]) {
				t.Fatalf("node %d: Fanout broken off after %d edges yielded %v, FanoutOf %v", n, k, got, want)
			}
		}
	}
	if edges == 0 {
		t.Fatal("no node fans out")
	}
}

// TestFanoutTemplateOneTilePerLocal pins the invariant the router's
// dead-end pruning rests on: all fanout of one local id lands in a single
// tile offset (a single's in the next tile, a hex's six tiles on, a cell
// output's in its own tile), so one range test per edge decides whether a
// node's expansion can stay inside the search box.
func TestFanoutTemplateOneTilePerLocal(t *testing.T) {
	for local := 0; local < NodeSlots; local++ {
		fan := FanoutTemplate(local)
		for _, fr := range fan {
			if fr.DRow != fan[0].DRow || fr.DCol != fan[0].DCol {
				t.Errorf("local %d: fanout lands at offsets (%d,%d) and (%d,%d)",
					local, fan[0].DRow, fan[0].DCol, fr.DRow, fr.DCol)
			}
		}
	}
}

// TestGetTileFieldMatchesBitReads checks the word-level field read against
// bit-by-bit reads through the same slot-to-frame mapping the writers use,
// over random configuration memory, tiles, slots and widths.
func TestGetTileFieldMatchesBitReads(t *testing.T) {
	d := NewDevice(TestDevice)
	rng := rand.New(rand.NewSource(7))
	for _, f := range d.frames {
		for w := range f {
			f[w] = rng.Uint32()
		}
	}
	for trial := 0; trial < 20000; trial++ {
		c := Coord{Row: rng.Intn(d.Rows), Col: rng.Intn(d.Cols)}
		width := 1 + rng.Intn(32)
		slot := rng.Intn(TileConfigBits - width + 1)
		var want uint32
		for i := 0; i < width; i++ {
			major, minor, bit := d.tileBitAddr(c, slot+i)
			idx, err := d.frameIndex(major, minor)
			if err != nil {
				t.Fatal(err)
			}
			if d.getBitLocked(idx, bit) {
				want |= 1 << i
			}
		}
		if got := d.GetTileField(c, slot, width); got != want {
			t.Fatalf("GetTileField(%v, %d, %d) = %#x, bit reads give %#x", c, slot, width, got, want)
		}
	}
}

func TestNewDeviceGeometry(t *testing.T) {
	d := NewDevice(XCV200)
	if d.Rows != 28 || d.Cols != 42 {
		t.Fatalf("XCV200 geometry %dx%d", d.Rows, d.Cols)
	}
	wantFrames := FramesPerClockColumn + 42*FramesPerCLBColumn + 2*FramesPerIOBColumn + 2*64
	if d.TotalFrames() != wantFrames {
		t.Errorf("TotalFrames = %d, want %d", d.TotalFrames(), wantFrames)
	}
	if d.FrameBits() != (28+2)*BitsPerTileRow {
		t.Errorf("FrameBits = %d", d.FrameBits())
	}
	if d.FrameWords() != (d.FrameBits()+31)/32 {
		t.Errorf("FrameWords = %d", d.FrameWords())
	}
	// Column table sanity.
	cols := d.Columns()
	if cols[0].Kind != ColClock {
		t.Errorf("column 0 kind = %v", cols[0].Kind)
	}
	for c := 0; c < d.Cols; c++ {
		major := d.MajorOfArrayCol(c)
		col, ok := d.ColumnByMajor(major)
		if !ok || col.Kind != ColCLB || col.ArrayCol != c {
			t.Errorf("array col %d -> major %d -> %+v", c, major, col)
		}
	}
}

func TestFrameReadWriteRoundTrip(t *testing.T) {
	d := NewDevice(TestDevice)
	data := make([]uint32, d.FrameWords())
	for i := range data {
		data[i] = uint32(i*2654435761 + 17)
	}
	if err := d.WriteFrame(3, 7, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFrame(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	into := make([]uint32, d.FrameWords())
	if err := d.ReadFrameInto(3, 7, into); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] || into[i] != data[i] {
			t.Fatalf("word %d = %#x (ReadFrame), %#x (ReadFrameInto), want %#x", i, got[i], into[i], data[i])
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = d.ReadFrameInto(3, 7, into) }); n != 0 {
		t.Errorf("ReadFrameInto allocates %.0f times per call, want 0", n)
	}
	// Out-of-range addresses and wrong buffer lengths error.
	if _, err := d.ReadFrame(-1, 0); err == nil {
		t.Error("ReadFrame(-1,0) should fail")
	}
	if _, err := d.ReadFrame(0, FramesPerClockColumn); err == nil {
		t.Error("ReadFrame minor overflow should fail")
	}
	if err := d.ReadFrameInto(0, FramesPerClockColumn, into); err == nil {
		t.Error("ReadFrameInto minor overflow should fail")
	}
	if err := d.ReadFrameInto(3, 7, into[1:]); err == nil {
		t.Error("ReadFrameInto into a short buffer should fail")
	}
	if err := d.WriteFrame(1, 0, make([]uint32, 1)); err == nil {
		t.Error("short frame write should fail")
	}
}

func TestWriteFrameBumpsTileGeneration(t *testing.T) {
	d := NewDevice(TestDevice)
	c := Coord{Row: 2, Col: 5}
	g0 := d.TileGeneration(c)
	major := d.MajorOfArrayCol(5)
	if err := d.WriteFrame(major, 0, make([]uint32, d.FrameWords())); err != nil {
		t.Fatal(err)
	}
	if d.TileGeneration(c) <= g0 {
		t.Error("tile generation not bumped by frame write in its column")
	}
	other := d.TileGeneration(Coord{Row: 2, Col: 6})
	if other != 0 {
		t.Error("frame write touched a tile of another column")
	}
}

func TestCellConfigRoundTrip(t *testing.T) {
	f := func(lut uint16, ff, latch, dbx, ce, init, ram, ceinv bool) bool {
		cc := CellConfig{LUT: lut, FF: ff, Latch: latch, DFromBX: dbx, CEUsed: ce, Init: init, RAM: ram, CEInv: ceinv}
		return decodeCell(cc.encode()) == cc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellReadWriteThroughDevice(t *testing.T) {
	d := NewDevice(TestDevice)
	ref := CellRef{Coord: Coord{Row: 4, Col: 3}, Cell: 2}
	cc := CellConfig{LUT: LUTOr2, FF: true, CEUsed: true, Init: true}
	d.WriteCell(ref, cc)
	if got := d.ReadCell(ref); got != cc {
		t.Errorf("ReadCell = %+v, want %+v", got, cc)
	}
	// The neighbour cell is untouched.
	if got := d.ReadCell(CellRef{Coord: ref.Coord, Cell: 1}); got.InUse() {
		t.Errorf("neighbour cell modified: %+v", got)
	}
	// The config lives in the tile's column frames.
	frames := d.CellConfigFrames(ref)
	if len(frames) == 0 {
		t.Fatal("no frames for cell config")
	}
	for _, fa := range frames {
		if fa.Major != d.MajorOfArrayCol(3) {
			t.Errorf("cell config frame %v outside its column", fa)
		}
	}
}

func TestLUTHelpers(t *testing.T) {
	if !LUTEval(LUTConst1, 0) || LUTEval(LUTConst0, 15) {
		t.Error("const LUTs wrong")
	}
	for v := uint8(0); v < 16; v++ {
		i0 := v&1 == 1
		i1 := v>>1&1 == 1
		if LUTEval(LUTBuf, v) != i0 {
			t.Errorf("LUTBuf(%d)", v)
		}
		if LUTEval(LUTInv, v) != !i0 {
			t.Errorf("LUTInv(%d)", v)
		}
		if LUTEval(LUTOr2, v) != (i0 || i1) {
			t.Errorf("LUTOr2(%d)", v)
		}
		if LUTEval(LUTAnd2, v) != (i0 && i1) {
			t.Errorf("LUTAnd2(%d)", v)
		}
		if LUTEval(LUTXor2, v) != (i0 != i1) {
			t.Errorf("LUTXor2(%d)", v)
		}
	}
}

func TestMuxLUT(t *testing.T) {
	lut := MuxLUT(2, 0, 1) // out = I2 ? I0 : I1
	for v := uint8(0); v < 16; v++ {
		sel := v>>2&1 == 1
		a := v&1 == 1
		b := v>>1&1 == 1
		want := b
		if sel {
			want = a
		}
		if LUTEval(lut, v) != want {
			t.Errorf("MuxLUT(%d) = %v, want %v", v, LUTEval(lut, v), want)
		}
	}
	if lut != LUTMux2 {
		t.Errorf("MuxLUT(2,0,1) = %#x, want LUTMux2 %#x", lut, LUTMux2)
	}
	or := OrLUT(0, 1)
	if or != LUTOr2 {
		t.Errorf("OrLUT(0,1) = %#x, want %#x", or, LUTOr2)
	}
}

func TestPIPMaskRoundTrip(t *testing.T) {
	d := NewDevice(TestDevice)
	c := Coord{Row: 3, Col: 4}
	sink := LocalPinI(1, 2)
	width := len(SinkSources(sink))
	mask := uint16(0b1011) & (1<<width - 1)
	d.SetPIPMask(c, sink, mask)
	if got := d.PIPMask(c, sink); got != mask {
		t.Errorf("PIPMask = %#b, want %#b", got, mask)
	}
	// Other sinks unaffected.
	if got := d.PIPMask(c, LocalPinI(1, 3)); got != 0 {
		t.Errorf("neighbour sink mask = %#b", got)
	}
}

func TestPIPMaskSurvivesFrameRoundTrip(t *testing.T) {
	// Writing a config through SetPIPMask, reading the frames out, zeroing
	// the column and writing the frames back must restore the config: the
	// relocation tool relies on frame-level copies being exact.
	d := NewDevice(TestDevice)
	c := Coord{Row: 1, Col: 2}
	sink := LocalSingle(East, 3)
	d.SetPIPMask(c, sink, 0b101)
	major := d.MajorOfArrayCol(c.Col)
	saved := make([][]uint32, FramesPerCLBColumn)
	for m := 0; m < FramesPerCLBColumn; m++ {
		fr, err := d.ReadFrame(major, m)
		if err != nil {
			t.Fatal(err)
		}
		saved[m] = fr
	}
	zero := make([]uint32, d.FrameWords())
	for m := 0; m < FramesPerCLBColumn; m++ {
		if err := d.WriteFrame(major, m, zero); err != nil {
			t.Fatal(err)
		}
	}
	if d.PIPMask(c, sink) != 0 {
		t.Fatal("mask should be cleared after zeroing column")
	}
	for m := 0; m < FramesPerCLBColumn; m++ {
		if err := d.WriteFrame(major, m, saved[m]); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.PIPMask(c, sink); got != 0b101 {
		t.Errorf("mask after frame restore = %#b, want 0b101", got)
	}
}

func TestSinkSourceNodesBorderRemap(t *testing.T) {
	d := NewDevice(TestDevice)
	// Top-left tile: the straight-through sources of its southward singles
	// come from beyond the north edge and must resolve to north pads.
	c := Coord{Row: 0, Col: 3}
	sink := LocalSingle(South, 2)
	nodes := d.SinkSourceNodes(c, sink)
	foundPad := false
	for _, n := range nodes {
		if n == InvalidNode {
			continue
		}
		if pad, ok := d.PadOfNode(n); ok {
			foundPad = true
			if pad.Side != North || pad.Pos != 3 {
				t.Errorf("remapped pad = %v, want North pos 3", pad)
			}
		}
	}
	if !foundPad {
		t.Error("no pad source found on border sink")
	}
	// An interior tile resolves no pads.
	for _, n := range d.SinkSourceNodes(Coord{Row: 4, Col: 6}, sink) {
		if _, ok := d.PadOfNode(n); ok {
			t.Error("interior tile resolved a pad source")
		}
	}
}

func TestPIPBitForAndEnabledSources(t *testing.T) {
	d := NewDevice(TestDevice)
	c := Coord{Row: 4, Col: 6}
	sink := LocalPinI(0, 0)
	// Source: the local OutX(0) (template entry with DRow=DCol=0).
	src := d.NodeIDAt(c, LocalOutX(0))
	bit, ok := d.PIPBitFor(c, sink, src)
	if !ok {
		t.Fatal("OutX(0) should be a source of PinI(0,0)")
	}
	d.SetPIPMask(c, sink, 1<<bit)
	got := d.EnabledSourceNodes(c, sink)
	if len(got) != 1 || got[0] != src {
		t.Errorf("EnabledSourceNodes = %v, want [%v]", got, src)
	}
	// Enabling a second PIP yields two drivers (parallel connection).
	bit2 := (bit + 1) % len(SinkSources(sink))
	d.SetPIPMask(c, sink, 1<<bit|1<<bit2)
	if n := len(d.EnabledSourceNodes(c, sink)); n < 1 {
		t.Errorf("parallel connection lost sources: %d", n)
	}
}

func TestFanoutMatchesSources(t *testing.T) {
	d := NewDevice(TestDevice)
	// For a sample of nodes: every fanout edge must be confirmed by the
	// sink's resolved source list.
	samples := []NodeID{
		d.NodeIDAt(Coord{Row: 4, Col: 5}, LocalOutX(2)),
		d.NodeIDAt(Coord{Row: 4, Col: 5}, LocalOutXQ(0)),
		d.NodeIDAt(Coord{Row: 3, Col: 3}, LocalSingle(East, 1)),
		d.NodeIDAt(Coord{Row: 2, Col: 2}, LocalHex(South, 0)),
		d.NodeIDAt(Coord{Row: 0, Col: 0}, LocalSingle(North, 0)), // leaves array
	}
	for _, n := range samples {
		for _, e := range d.FanoutOf(n) {
			srcs := d.SinkSourceNodes(e.SinkTile, e.SinkLocal)
			if e.Bit >= len(srcs) || srcs[e.Bit] != n {
				t.Errorf("fanout edge %+v of node %d not confirmed by sink sources", e, n)
			}
		}
	}
}

func TestPadIndexRoundTrip(t *testing.T) {
	d := NewDevice(TestDevice)
	seen := map[int]bool{}
	sides := []Dir{North, South, West, East}
	for _, side := range sides {
		max := d.Cols
		if side == West || side == East {
			max = d.Rows
		}
		for pos := 0; pos < max; pos++ {
			for k := 0; k < PadsPerEdgeTile; k++ {
				p := PadRef{Side: side, Pos: pos, K: k}
				idx := d.PadIndex(p)
				if idx < 0 || idx >= d.NumPads() {
					t.Fatalf("PadIndex(%v) = %d out of range", p, idx)
				}
				if seen[idx] {
					t.Fatalf("PadIndex(%v) = %d duplicated", p, idx)
				}
				seen[idx] = true
				if got := d.PadByIndex(idx); got != p {
					t.Errorf("PadByIndex(%d) = %v, want %v", idx, got, p)
				}
				n := d.PadNodeID(p)
				if got, ok := d.PadOfNode(n); !ok || got != p {
					t.Errorf("PadOfNode(PadNodeID(%v)) = %v,%v", p, got, ok)
				}
			}
		}
	}
	if len(seen) != d.NumPads() {
		t.Errorf("enumerated %d pads, want %d", len(seen), d.NumPads())
	}
}

func TestPadConfigRoundTrip(t *testing.T) {
	d := NewDevice(TestDevice)
	pads := []PadRef{
		{Side: North, Pos: 2, K: 1},
		{Side: South, Pos: 0, K: 0},
		{Side: West, Pos: 5, K: 1},
		{Side: East, Pos: 7, K: 0},
	}
	for _, p := range pads {
		pc := PadConfig{OutMask: 0b0101, Output: true}
		d.WritePad(p, pc)
		if got := d.ReadPad(p); got != pc {
			t.Errorf("ReadPad(%v) = %+v, want %+v", p, got, pc)
		}
	}
	// Configs must not collide.
	for _, p := range pads {
		if got := d.ReadPad(p); !got.Output {
			t.Errorf("pad %v config clobbered", p)
		}
	}
	// Input pad enable.
	in := PadRef{Side: North, Pos: 2, K: 0}
	d.WritePad(in, PadConfig{Input: true})
	if !d.ReadPad(in).Input {
		t.Error("input pad enable lost")
	}
	if got := d.ReadPad(pads[0]); !got.Output {
		t.Error("sibling pad clobbered by input pad write")
	}
}

func TestPadFanoutAndOutSources(t *testing.T) {
	d := NewDevice(TestDevice)
	p := PadRef{Side: West, Pos: 3, K: 1}
	edges := d.FanoutOf(d.PadNodeID(p))
	if len(edges) == 0 {
		t.Fatal("input pad has no fanout")
	}
	for _, e := range edges {
		if e.SinkTile != (Coord{Row: 3, Col: 0}) {
			t.Errorf("pad fanout sink tile %v, want R3C0", e.SinkTile)
		}
		kind, dir, idx := DecodeLocal(e.SinkLocal)
		if kind != KindSingle || dir != East {
			t.Errorf("pad fanout sink %v/%v, want eastward single", kind, dir)
		}
		if idx%PadsPerEdgeTile != p.K {
			t.Errorf("pad fanout index %d does not match K=%d", idx, p.K)
		}
	}
	srcs := d.PadOutSourceNodes(p)
	if len(srcs) != PadOutSources {
		t.Fatalf("PadOutSourceNodes len %d", len(srcs))
	}
	for _, n := range srcs {
		c, local, ok := d.SplitNode(n)
		if !ok {
			t.Fatal("pad out source is not a tile node")
		}
		kind, dir, _ := DecodeLocal(local)
		if c != (Coord{Row: 3, Col: 0}) || kind != KindSingle || dir != West {
			t.Errorf("pad out source %v %v %v", c, kind, dir)
		}
	}
	// Enabled sources follow the mask.
	d.WritePad(p, PadConfig{OutMask: 0b0011, Output: true})
	en := d.PadEnabledSources(p)
	if len(en) != 2 || en[0] != srcs[0] || en[1] != srcs[1] {
		t.Errorf("PadEnabledSources = %v", en)
	}
}

func TestTouchedFramesGranularity(t *testing.T) {
	d := NewDevice(TestDevice)
	c := Coord{Row: 0, Col: 0}
	// One cell config (32 bits starting at a 24-bit row boundary) spans
	// exactly two frames.
	frames := d.TouchedFrames(c, [2]int{cellSlot(0), cellConfigBits})
	if len(frames) != 2 {
		t.Errorf("cell 0 config spans %d frames, want 2", len(frames))
	}
	// The whole tile spans at most FramesPerCLBColumn frames.
	all := d.TouchedFrames(c, [2]int{0, TileConfigBits})
	if len(all) > FramesPerCLBColumn {
		t.Errorf("tile spans %d frames > column size", len(all))
	}
}

func TestNodeIDSplitRoundTrip(t *testing.T) {
	d := NewDevice(TestDevice)
	f := func(r, c, l uint8) bool {
		coord := Coord{Row: int(r) % d.Rows, Col: int(c) % d.Cols}
		local := int(l) % localNodeCount
		n := d.NodeIDAt(coord, local)
		gc, gl, ok := d.SplitNode(n)
		return ok && gc == coord && gl == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireDelays(t *testing.T) {
	if WireDelayNs(KindHex) <= WireDelayNs(KindSingle) {
		t.Error("hex wires must be slower than singles end-to-end per segment")
	}
	if WireDelayNs(KindOutX) != 0 {
		t.Error("outputs contribute no wire delay")
	}
}

func TestConfigBitsAccounting(t *testing.T) {
	d := NewDevice(XCV200)
	if d.ConfigBits() != d.TotalFrames()*d.FrameBits() {
		t.Error("ConfigBits inconsistent")
	}
	// The XCV200 model should hold over a megabit of configuration, in the
	// ballpark of the real part (1.3 Mb).
	if d.ConfigBits() < 1_000_000 {
		t.Errorf("XCV200 config = %d bits, implausibly small", d.ConfigBits())
	}
}

func TestConcurrentConfigAccess(t *testing.T) {
	// The device guards its configuration with a mutex: concurrent
	// readers (simulator, monitoring) during frame writes must be safe.
	d := NewDevice(TestDevice)
	done := make(chan struct{})
	go func() {
		defer close(done)
		data := make([]uint32, d.FrameWords())
		for i := 0; i < 200; i++ {
			data[0] = uint32(i)
			if err := d.WriteFrame(2, i%FramesPerCLBColumn, data); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		c := Coord{Row: i % d.Rows, Col: 1}
		_ = d.ReadCell(CellRef{Coord: c, Cell: i % CellsPerCLB})
		_ = d.PIPMask(c, LocalPinI(0, 0))
		_ = d.TileGeneration(c)
	}
	<-done
}

// TestOwnerOfBitInvertsLayout decodes every bit of every frame: each cell
// slot, PIP-mask bit and pad-config bit that BitAddr or PadBitAddr places
// decodes back to the resource it came from, a PIP bit's source is the
// sink's resolved template entry, and every other bit is BitUnused.
func TestOwnerOfBitInvertsLayout(t *testing.T) {
	for _, p := range []Preset{TestDevice, XCV50} {
		d := NewDevice(p)
		base := map[int]int{} // major -> linear index of its first frame
		n := 0
		for _, col := range d.Columns() {
			base[col.Major] = n
			n += col.Frames
		}
		placed := make([]bool, n*d.FrameBits())
		place := func(major, minor, bit int, want BitOwner) {
			t.Helper()
			addr := FrameAddr{Major: major, Minor: minor}
			i := (base[major]+minor)*d.FrameBits() + bit
			if bit < 0 || bit >= d.FrameBits() || placed[i] {
				t.Fatalf("%s: %+v placed at %v bit %d twice or out of the frame", p.Name, want, addr, bit)
			}
			placed[i] = true
			if got := d.OwnerOfBit(addr, bit); got != want {
				t.Fatalf("%s: %v bit %d decodes to %+v, want %+v", p.Name, addr, bit, got, want)
			}
		}
		for row := 0; row < d.Rows; row++ {
			for col := 0; col < d.Cols; col++ {
				c := Coord{Row: row, Col: col}
				for cell := 0; cell < CellsPerCLB; cell++ {
					start, width := d.CellSlotRange(cell)
					for i := 0; i < width; i++ {
						major, minor, bit := d.BitAddr(c, start+i)
						place(major, minor, bit, BitOwner{Kind: BitCell, Tile: c, Local: cell})
					}
				}
				for local := 0; IsLocalSink(local); local++ {
					start, width := d.PIPSlotRange(local)
					srcs := d.SinkSourceNodes(c, local)
					for b := 0; b < width; b++ {
						major, minor, bit := d.BitAddr(c, start+b)
						place(major, minor, bit, BitOwner{Kind: BitPIP, Tile: c, Local: local, PIP: b})
						if got := d.PIPSource(c, local, b); got != srcs[b] {
							t.Fatalf("%s: PIPSource(%v, %d, %d) = %d, want %d", p.Name, c, local, b, got, srcs[b])
						}
					}
				}
			}
		}
		for i := 0; i < d.NumPads(); i++ {
			pad := d.PadByIndex(i)
			major, minor, bit := d.PadBitAddr(pad)
			for k := 0; k < padConfigBits; k++ {
				place(major, minor, bit+k, BitOwner{Kind: BitPad, Pad: pad})
			}
		}
		for _, col := range d.Columns() {
			for minor := 0; minor < col.Frames; minor++ {
				addr := FrameAddr{Major: col.Major, Minor: minor}
				for bit := 0; bit < d.FrameBits(); bit++ {
					if placed[(base[col.Major]+minor)*d.FrameBits()+bit] {
						continue
					}
					if got := d.OwnerOfBit(addr, bit); got != (BitOwner{}) {
						t.Fatalf("%s: unplaced %v bit %d decodes to %+v", p.Name, addr, bit, got)
					}
				}
			}
		}
		if len(placed) != d.ConfigBits() {
			t.Fatalf("%s: walked %d bits, the device has %d", p.Name, len(placed), d.ConfigBits())
		}
	}
}
