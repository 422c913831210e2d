package relocate

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

// TestFindFreeCLBMatchesFullScan pins the row-bucketed expanding-ring lookup
// to the reference semantics: the nearest free CLB by Manhattan distance,
// ties broken by smaller row then smaller column, exclusions honoured —
// exactly what the previous full scan over the free set computed.
func TestFindFreeCLBMatchesFullScan(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	v := newView(dev)
	rng := rand.New(rand.NewSource(42))

	reference := func(near fabric.Coord, exclude ...fabric.Coord) (fabric.Coord, bool) {
		ex := map[fabric.Coord]bool{}
		for _, c := range exclude {
			ex[c] = true
		}
		best := fabric.Coord{Row: -1}
		bestDist := 1 << 30
		for i, free := range v.freeCLB {
			c := fabric.Coord{Row: i / dev.Cols, Col: i % dev.Cols}
			if !free || ex[c] {
				continue
			}
			d := c.ManhattanDist(near)
			if d < bestDist ||
				(d == bestDist && (c.Row < best.Row || (c.Row == best.Row && c.Col < best.Col))) {
				best, bestDist = c, d
			}
		}
		return best, best.Row >= 0
	}

	for trial := 0; trial < 300; trial++ {
		// Random occupancy churn: configure or clear a random cell so the
		// free set (and its row buckets) evolves through markTileFree.
		c := fabric.Coord{Row: rng.Intn(dev.Rows), Col: rng.Intn(dev.Cols)}
		ref := fabric.CellRef{Coord: c, Cell: rng.Intn(fabric.CellsPerCLB)}
		if rng.Intn(2) == 0 {
			dev.WriteCell(ref, fabric.CellConfig{Used: true, LUT: fabric.LUTConst1})
		} else {
			dev.WriteCell(ref, fabric.CellConfig{})
		}
		v.refresh()

		near := fabric.Coord{Row: rng.Intn(dev.Rows), Col: rng.Intn(dev.Cols)}
		var exclude []fabric.Coord
		for n := rng.Intn(3); n > 0; n-- {
			exclude = append(exclude, fabric.Coord{Row: rng.Intn(dev.Rows), Col: rng.Intn(dev.Cols)})
		}
		want, wantOK := reference(near, exclude...)
		got, err := v.findFreeCLB(near, exclude...)
		if wantOK != (err == nil) {
			t.Fatalf("trial %d: ring found=%v, scan found=%v", trial, err == nil, wantOK)
		}
		if wantOK && got != want {
			t.Fatalf("trial %d: near=%v exclude=%v: ring %v, scan %v", trial, near, exclude, got, want)
		}
	}
}
