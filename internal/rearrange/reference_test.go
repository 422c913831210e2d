package rearrange

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/area"
	"repro/internal/fabric"
)

// findOutsideScan is the full grid scan findOutside replaced, kept verbatim
// as its reference: every position is tested with a full Fits, and the
// nearest fit wins, ties to the first in row-major order.
func findOutsideScan(m *area.Manager, id, h, w int, window fabric.Rect) (fabric.Rect, bool) {
	old, _ := m.Rect(id)
	best := fabric.Rect{}
	bestScore := math.MaxInt
	for r := 0; r+h <= m.Rows; r++ {
		for c := 0; c+w <= m.Cols; c++ {
			rect := fabric.Rect{Row: r, Col: c, H: h, W: w}
			if rect.Overlaps(window) || !m.Fits(rect) {
				continue
			}
			score := abs(rect.Row-old.Row) + abs(rect.Col-old.Col)
			if score < bestScore {
				bestScore, best = score, rect
			}
		}
	}
	return best, bestScore < math.MaxInt
}

// TestRingSearchMatchesFullScan is the ring search's exactness gate. Over
// seeded layouts of 4-23 x 4-27 CLBs, a quarter of them with a quarantined
// column, every lookup of every task against a spread of windows returns
// what the full scan returns, and LocalRepacking's Plans and Plan, the ring
// search's only callers, return exactly the plans they return when every
// evicted task's target comes from the full scan.
func TestRingSearchMatchesFullScan(t *testing.T) {
	lookups, plans := 0, 0
	for seed := uint64(1); seed <= 48; seed++ {
		rows, cols := 4+int(seed*7%20), 4+int(seed*11%24)
		m := randomLayout(seed, rows, cols, seed%4 == 0)
		for _, id := range m.Allocations() {
			old, _ := m.Rect(id)
			for _, win := range []fabric.Rect{
				old,
				{Row: 0, Col: 0, H: rows / 2, W: cols / 2},
				{Row: rows / 3, Col: cols / 3, H: rows / 3, W: cols / 2},
				{Row: rows - 1, Col: 0, H: 1, W: cols},
			} {
				got, gotOK := findOutside(m, id, old.H, old.W, win)
				want, wantOK := findOutsideScan(m, id, old.H, old.W, win)
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d, task %d at %v, window %v: ring search %v %v, full scan %v %v\n%s",
						seed, id, old, win, got, gotOK, want, wantOK, m)
				}
				lookups++
			}
		}
		for _, req := range [][2]int{{rows / 2, cols / 2}, {rows / 3, cols - 2}, {rows - 1, 2}} {
			h, w := max(req[0], 1), max(req[1], 1)
			want := repackPlans(m, h, w, 0, findOutsideScan)
			if got := (LocalRepacking{}).Plans(m, h, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %dx%d: Plans differs from the full-scan reference\n%s", seed, h, w, m)
			}
			got, ok := LocalRepacking{}.Plan(m, h, w)
			if ok != (len(want) > 0) || ok && !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("seed %d, %dx%d: Plan differs from the full-scan reference\n%s", seed, h, w, m)
			}
			for _, p := range want {
				if len(p.Steps) > 0 {
					plans++
				}
			}
		}
	}
	if plans < 100 {
		t.Fatalf("only %d plans with evictions compared: the layouts no longer exercise the search", plans)
	}
	t.Logf("%d lookups and %d plans with evictions matched the full scan", lookups, plans)
}
