package rearrange

import (
	"testing"

	"repro/internal/area"
	"repro/internal/fabric"
)

func benchGrid() *area.Manager {
	m := area.NewManager(28, 42)
	s := uint64(9)
	for i := 0; i < 50; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		h := 2 + int(s>>40)%4
		w := 2 + int(s>>50)%4
		m.Allocate(h, w, area.Policy(int(s>>60)%3))
	}
	return m
}

func BenchmarkOrderedCompactionPlan(b *testing.B) {
	m := benchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrderedCompaction{}.Plan(m, 10, 12)
	}
}

func BenchmarkLocalRepackingPlan(b *testing.B) {
	m := benchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalRepacking{}.Plan(m, 10, 12)
	}
}

// randomLayout fills a rows x cols manager with seeded 1- to 5-CLB tasks at
// random positions, to about 62% utilisation, then frees every third task.
// With quarantine set, one random column is condemned first.
func randomLayout(seed uint64, rows, cols int, quarantine bool) *area.Manager {
	m := area.NewManager(rows, cols)
	s := seed*0x9E3779B97F4A7C15 + 1
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int(s>>33) % n
	}
	if quarantine {
		m.Quarantine(fabric.Rect{Row: 0, Col: next(cols), H: rows, W: 1})
	}
	shapes := [][2]int{{1, 1}, {1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 2}, {1, 4}, {4, 1}, {1, 5}, {5, 1}}
	var ids []int
	for used, tries := 0, 0; 100*used < 62*rows*cols && tries < 20*rows*cols; tries++ {
		sh := shapes[next(len(shapes))]
		if id, err := m.AllocateAt(fabric.Rect{Row: next(rows), Col: next(cols), H: sh[0], W: sh[1]}); err == nil {
			ids = append(ids, id)
			used += sh[0] * sh[1]
		}
	}
	for i := 0; i < len(ids); i += 3 {
		m.Free(ids[i])
	}
	return m
}

// BenchmarkLocalRepackingPlansXCV800 is one Need-mode planning pass at
// XCV800 scale: every repacking plan for a 10x12 request on a 56x84 layout
// of 1- to 5-CLB tasks with every third task freed, as Defragment runs it
// under the facade's write lock.
func BenchmarkLocalRepackingPlansXCV800(b *testing.B) {
	m := randomLayout(1, 56, 84, false)
	if m.CanFit(10, 12) {
		b.Fatal("setup: a 10x12 region is already free")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(LocalRepacking{}.Plans(m, 10, 12)) == 0 {
			b.Fatal("no plan")
		}
	}
}
