package rlm

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/itc99"
)

// loadGrid loads n small generated designs onto a fresh XCV50 system.
func loadGrid(t testing.TB, n int) *System {
	t.Helper()
	sys, err := New(WithDevice(fabric.XCV50), WithPort(SelectMAP))
	if err != nil {
		t.Fatal(err)
	}
	slots := []fabric.Rect{
		{Row: 1, Col: 2, H: 4, W: 4}, {Row: 1, Col: 8, H: 4, W: 4},
		{Row: 1, Col: 14, H: 4, W: 4}, {Row: 6, Col: 2, H: 4, W: 4},
		{Row: 6, Col: 8, H: 4, W: 4}, {Row: 6, Col: 14, H: 4, W: 4},
		{Row: 11, Col: 2, H: 4, W: 4}, {Row: 11, Col: 8, H: 4, W: 4},
	}
	if n > len(slots) {
		t.Fatalf("loadGrid supports up to %d designs", len(slots))
	}
	for i := 0; i < n; i++ {
		nl := itc99.Generate(itc99.GenConfig{
			Name: fmt.Sprintf("d%d", i), Inputs: 2, Outputs: 1, FFs: 4, LUTs: 8,
			Seed: uint64(100 + i), Style: itc99.FreeRunning,
		})
		if _, err := sys.Load(nl, slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestCheckpointAllocsIndependentOfResidentDesigns pins the host-side
// O(change) contract for book-keeping checkpoints: a no-op operation (a
// staged move with zero hops) opens and releases a full checkpoint, and its
// allocation cost must not grow with the number of resident designs — the
// old checkpoint cloned the area grid plus every design's CellOf/SourceOf
// tables up front.
func TestCheckpointAllocsIndependentOfResidentDesigns(t *testing.T) {
	measure := func(designs int) float64 {
		sys := loadGrid(t, designs)
		region, ok := sys.Region("d0")
		if !ok {
			t.Fatal("d0 not loaded")
		}
		return testing.AllocsPerRun(200, func() {
			if err := sys.MoveStaged("d0", region, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	few := measure(2)
	many := measure(8)
	// Identical op, 4x the resident designs: the checkpoint must not scale
	// with them. Allow a small fixed wiggle for runtime noise.
	if many > few+8 {
		t.Errorf("checkpoint allocations scale with resident designs: %v allocs with 2 designs, %v with 8", few, many)
	}
	// Also pin the absolute cost: a no-op checkpoint is a handful of allocs
	// (the checkpoint struct and its design map; arming the frame tool and
	// marking the area manager allocate nothing). This matters
	// because BenchmarkCheckpoint's values sit below the CI mem gate's
	// noise floors — a reintroduced fixed per-checkpoint clone would slip
	// past benchdiff, so it must fail here instead.
	if many > 16 {
		t.Errorf("no-op checkpoint costs %v allocs, want a small constant (was 4 when pinned)", many)
	}
}
