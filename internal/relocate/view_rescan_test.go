package relocate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/place"
)

// TestRescanMatchesTileWalk pins the frame decode that builds the view (and
// rebuilds it on a full recovery or an undeclared change) to the tile walk,
// which derives the same picture with no frame decoding: one table over
// every device size crossed with configurations from an empty device to raw
// random frame content, in the dateilager TestDirOperations idiom. In every
// row the decoded view must equal the walk in its used nodes, free CLBs,
// per-row free counts and free total.
func TestRescanMatchesTileWalk(t *testing.T) {
	configs := []struct {
		name string
		// build configures dev and returns the device to view.
		build func(t *testing.T, dev *fabric.Device, rng *rand.Rand) *fabric.Device
	}{
		{"empty", func(_ *testing.T, dev *fabric.Device, _ *rand.Rand) *fabric.Device { return dev }},
		{"placed", func(t *testing.T, dev *fabric.Device, _ *rand.Rand) *fabric.Device {
			placeDesigns(t, dev)
			return dev
		}},
		{"random-words", func(t *testing.T, dev *fabric.Device, rng *rand.Rand) *fabric.Device {
			rewriteFrames(t, dev, func(frame []uint32) {
				for w := range frame {
					frame[w] = rng.Uint32()
				}
			})
			return dev
		}},
		{"sparse-bits", func(t *testing.T, dev *fabric.Device, rng *rand.Rand) *fabric.Device {
			sprinkleBits(t, dev, rng)
			return dev
		}},
		// The crash-recover benchmark's clone: a fresh device that took
		// every frame of a configured one through WriteFrame.
		{"cloned", func(t *testing.T, dev *fabric.Device, rng *rand.Rand) *fabric.Device {
			placeDesigns(t, dev)
			sprinkleBits(t, dev, rng)
			clone := fabric.NewDevice(dev.Preset)
			for _, col := range dev.Columns() {
				for minor := 0; minor < col.Frames; minor++ {
					data, err := dev.ReadFrame(col.Major, minor)
					if err != nil {
						t.Fatal(err)
					}
					if err := clone.WriteFrame(col.Major, minor, data); err != nil {
						t.Fatal(err)
					}
				}
			}
			return clone
		}},
	}
	for _, preset := range []fabric.Preset{fabric.TestDevice, fabric.XCV50, fabric.XCV800} {
		for i, cfg := range configs {
			t.Run(preset.Name+"/"+cfg.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(3800 + i)))
				dev := cfg.build(t, fabric.NewDevice(preset), rng)
				decoded, walked := newView(dev), tileWalk(dev)
				if err := decoded.compare(walked); err != nil {
					t.Fatalf("frame decode against tile walk: %v", err)
				}
				if walked.freeCount == 0 && cfg.name != "random-words" {
					t.Fatal("no CLB is free: the configuration no longer leaves free space to compare")
				}
			})
		}
	}
}

// placeDesigns places a few small designs spread over the device through
// place.Place, routing each around the ones before it and binding pads on
// both edges.
func placeDesigns(t *testing.T, dev *fabric.Device) {
	t.Helper()
	eng, err := NewEngine(dev, bitstream.NewParallelPort(bitstream.NewController(dev), 50e6))
	if err != nil {
		t.Fatal(err)
	}
	reserved := map[fabric.PadRef]bool{}
	placed := 0
	for row := 0; row+3 <= dev.Rows; row += dev.Rows / 2 {
		for col := 0; col+3 <= dev.Cols; col += dev.Cols / 3 {
			nl := itc99.Generate(itc99.GenConfig{
				Name: fmt.Sprintf("d%d", placed), Inputs: 2, Outputs: 1, FFs: 2, LUTs: 3,
				Seed: uint64(placed + 1), Style: itc99.FreeRunning,
			})
			region := fabric.Rect{Row: row + 1, Col: col + 1, H: 2, W: 2}
			if _, err := place.Place(dev, nl, place.Options{Region: region, ReservePads: reserved, Router: eng.FreeRouter()}); err != nil {
				t.Fatalf("placing %s at %v: %v", nl.Name, region, err)
			}
			placed++
		}
	}
	if placed < 4 {
		t.Fatalf("placed %d designs, want at least 4", placed)
	}
}

// rewriteFrames rewrites every frame of the device through fill, which
// edits the frame's current content in place.
func rewriteFrames(t *testing.T, dev *fabric.Device, fill func(frame []uint32)) {
	t.Helper()
	for _, col := range dev.Columns() {
		for minor := 0; minor < col.Frames; minor++ {
			data, err := dev.ReadFrame(col.Major, minor)
			if err != nil {
				t.Fatal(err)
			}
			fill(data)
			if err := dev.WriteFrame(col.Major, minor, data); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sprinkleBits sets about one configuration bit in 500, at random.
func sprinkleBits(t *testing.T, dev *fabric.Device, rng *rand.Rand) {
	t.Helper()
	rewriteFrames(t, dev, func(frame []uint32) {
		for bit := rng.Intn(500); bit < dev.FrameBits(); bit += 1 + rng.Intn(1000) {
			frame[bit/32] |= 1 << (bit % 32)
		}
	})
}
