package relocate_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/relocate"
)

// TestShadowCopiesEveryFrame validates the frame tool's copy of the
// configuration by enumeration, in wpk's CheckPackage idiom: on every device
// size, with random words in every frame, it walks every frame address and
// compares the copy with the device it was taken from and with a device
// restored from it.
//   - Right after NewFrameTool, Frame equals Device.ReadFrame.
//   - After the device is clobbered, the full recovery stream built from
//     ShadowUpdates restores every frame.
//   - A frame never staged keeps its construction content as its confirmed
//     delta baseline, also once a staged frame has built the records.
func TestShadowCopiesEveryFrame(t *testing.T) {
	for i, preset := range []fabric.Preset{fabric.TestDevice, fabric.XCV50, fabric.XCV800} {
		t.Run(preset.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3900 + i)))
			dev := fabric.NewDevice(preset)
			orig := make([][]uint32, dev.TotalFrames())
			for j := range orig {
				a := dev.FrameAddrAt(j)
				orig[j] = make([]uint32, dev.FrameWords())
				for w := range orig[j] {
					orig[j][w] = rng.Uint32()
				}
				if err := dev.WriteFrame(a.Major, a.Minor, orig[j]); err != nil {
					t.Fatal(err)
				}
			}
			ctrl := bitstream.NewController(dev)
			ft, err := relocate.NewFrameTool(dev, bitstream.NewParallelPort(ctrl, 50e6))
			if err != nil {
				t.Fatal(err)
			}
			for j := range orig {
				a := dev.FrameAddrAt(j)
				if !slices.Equal(ft.Frame(a), readFrame(t, dev, a)) {
					t.Fatalf("frame %v: the copy differs from the device it was taken from", a)
				}
			}

			k := len(orig) / 2
			staged := dev.FrameAddrAt(k)
			if err := ft.Apply([]relocate.Edit{{Addr: staged, Bit: 0, On: orig[k][0]&1 == 0}}); err != nil {
				t.Fatal(err)
			}
			if err := ft.AwaitStream(); err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(orig)
			want[k] = slices.Clone(orig[k])
			want[k][0] ^= 1
			for j := range orig {
				a := dev.FrameAddrAt(j)
				if !slices.Equal(ft.ConfirmedBaseline(a), want[j]) {
					t.Fatalf("frame %v: confirmed baseline is not the frame's last delivered content", a)
				}
			}

			zero := make([]uint32, dev.FrameWords())
			for j := range orig {
				a := dev.FrameAddrAt(j)
				if err := dev.WriteFrame(a.Major, a.Minor, zero); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctrl.Feed(bitstream.Partial(dev, ft.ShadowUpdates())...); err != nil {
				t.Fatalf("full recovery stream rejected: %v", err)
			}
			for j := range orig {
				a := dev.FrameAddrAt(j)
				if got := readFrame(t, dev, a); !slices.Equal(got, want[j]) || !slices.Equal(ft.Frame(a), want[j]) {
					t.Fatalf("frame %v: not restored from the copy", a)
				}
			}
		})
	}
}
