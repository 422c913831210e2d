package rlm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/place"
	"repro/internal/template"
)

// auditView checks the relocation engine's occupancy view against a fresh
// rescan of the configuration memory, under the facade's lock.
func auditView(s *System) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.AuditView()
}

// TestViewMatchesRescanAfterFacadeOps guards the footprint a load declares
// instead of re-deriving the columns its placement dirtied: after every
// facade operation — cold and warm loads, moves, unloads, and the refused
// loads and moves that roll back — the engine's incrementally kept view must
// equal a rescan of the configuration memory. A declaration that misses
// anything the placement wrote (a routed node, a pad) fails it.
func TestViewMatchesRescanAfterFacadeOps(t *testing.T) {
	for _, cached := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cache=%v/seed=%d", cached, seed), func(t *testing.T) {
				opts := []Option{WithDevice(fabric.XCV50), WithPort(SelectMAP)}
				if cached {
					opts = append(opts, WithTemplateCache(&template.Policy{}))
				}
				s, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				rows, cols := s.Device().Rows, s.Device().Cols
				rng := rand.New(rand.NewSource(seed))
				var loaded []string
				for op := 0; op < 60; op++ {
					var what string
					switch k := rng.Intn(3); {
					case k == 0 || len(loaded) == 0:
						h, w := 2+rng.Intn(2), 2+rng.Intn(2)
						cfg := itc99.GenConfig{
							Name: fmt.Sprintf("d%d", op), Inputs: 3, Outputs: 2,
							Style: itc99.FreeRunning, Seed: uint64(rng.Intn(5)),
						}.SizedTo(h*w*fabric.CellsPerCLB, 0.6)
						r := fabric.Rect{Row: rng.Intn(rows - h + 1), Col: rng.Intn(cols - w + 1), H: h, W: w}
						what = fmt.Sprintf("load %s at %v", cfg.Name, r)
						if _, err := s.Load(itc99.Generate(cfg), r); err == nil {
							loaded = append(loaded, cfg.Name)
						}
					case k == 1:
						name := loaded[rng.Intn(len(loaded))]
						from, _ := s.Region(name)
						to := fabric.Rect{Row: rng.Intn(rows - from.H + 1), Col: rng.Intn(cols - from.W + 1), H: from.H, W: from.W}
						what = fmt.Sprintf("move %s to %v", name, to)
						_ = s.Move(name, to)
					default:
						i := rng.Intn(len(loaded))
						what = "unload " + loaded[i]
						if err := s.Unload(loaded[i]); err != nil {
							t.Fatalf("op %d (%s): %v", op, what, err)
						}
						loaded = append(loaded[:i], loaded[i+1:]...)
					}
					if err := auditView(s); err != nil {
						t.Fatalf("op %d (%s): %v", op, what, err)
					}
				}
				if st, ok := s.TemplateStats(); ok && st.Hits == 0 {
					t.Fatalf("the op mix missed the warm path: %+v", st)
				}
			})
		}
	}
	t.Run("contained-retry", viewAfterContainedRetry)
}

// viewAfterContainedRetry covers the one load whose placement writes the
// fabric twice: the region-contained attempt fails after writing the cells
// and input pads, and the unconstrained retry rewrites them and routes. The
// load succeeds uncached (one miss, no store) and the view it declares still
// equals a rescan.
func viewAfterContainedRetry(t *testing.T) {
	region := fabric.Rect{Row: 5, Col: 6, H: 2, W: 1}
	cfg := itc99.GenConfig{Name: "tall", Inputs: 3, Outputs: 2, Style: itc99.FreeRunning}.
		SizedTo(region.Area()*fabric.CellsPerCLB, 0.6)
	twin := fabric.NewDevice(fabric.XCV50)
	if _, err := place.Place(twin, itc99.Generate(cfg), place.Options{Region: region, Contain: true}); err == nil {
		t.Fatal("the contained attempt routes; the test no longer exercises the retry")
	}
	s, err := New(WithDevice(fabric.XCV50), WithPort(SelectMAP), WithTemplateCache(&template.Policy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before, _ := s.TemplateStats()
	if _, err := s.Load(itc99.Generate(cfg), region); err != nil {
		t.Fatalf("load after the contained attempt failed: %v", err)
	}
	after, _ := s.TemplateStats()
	if after.Misses != before.Misses+1 || after.Stores != before.Stores {
		t.Fatalf("template stats %+v -> %+v, want one more miss and no store", before, after)
	}
	if err := auditView(s); err != nil {
		t.Fatal(err)
	}
}
