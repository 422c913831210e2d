package relocate_test

import (
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/relocate"
)

// checkpointTool builds a frame tool over a fresh test device, with the
// controller its port feeds.
func checkpointTool(t *testing.T) (*fabric.Device, *bitstream.Controller, *relocate.FrameTool) {
	t.Helper()
	dev := fabric.NewDevice(fabric.TestDevice)
	ctrl := bitstream.NewController(dev)
	ft, err := relocate.NewFrameTool(dev, bitstream.NewParallelPort(ctrl, 50e6))
	if err != nil {
		t.Fatal(err)
	}
	return dev, ctrl, ft
}

// readFrame returns a copy of a frame's device content.
func readFrame(t *testing.T, dev *fabric.Device, addr fabric.FrameAddr) []uint32 {
	t.Helper()
	f, err := dev.ReadFrame(addr.Major, addr.Minor)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// setBit writes one configuration bit through the tool.
func setBit(t *testing.T, ft *relocate.FrameTool, addr fabric.FrameAddr, bit int) {
	t.Helper()
	if err := ft.Apply([]relocate.Edit{{Addr: addr, Bit: bit, On: true}}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFirstWriteWins: a frame's pre-image is its content when the
// checkpoint was armed, saved by its first write since — a staged write or
// a designer-path write the tool adopts at its next sync — and later writes
// leave it alone.
func TestCheckpointFirstWriteWins(t *testing.T) {
	dev, _, ft := checkpointTool(t)
	staged := fabric.FrameAddr{Major: 1, Minor: 2}
	designer := fabric.FrameAddr{Major: 4, Minor: 0}
	origStaged, origDesigner := readFrame(t, dev, staged), readFrame(t, dev, designer)

	if err := ft.Arm(); err != nil {
		t.Fatal(err)
	}
	if got := ft.DirtyFrames(); len(got) != 0 {
		t.Fatalf("freshly armed tool has dirty frames %v", got)
	}
	setBit(t, ft, staged, 5)
	setBit(t, ft, staged, 7)
	mut := slices.Clone(origDesigner)
	mut[0] ^= 1
	if err := dev.WriteFrame(designer.Major, designer.Minor, mut); err != nil {
		t.Fatal(err)
	}
	mut = slices.Clone(mut)
	mut[1] ^= 1
	if err := dev.WriteFrame(designer.Major, designer.Minor, mut); err != nil {
		t.Fatal(err)
	}
	if err := ft.Sync(); err != nil {
		t.Fatal(err)
	}
	setBit(t, ft, designer, 9)

	for addr, orig := range map[fabric.FrameAddr][]uint32{staged: origStaged, designer: origDesigner} {
		pre, ok := ft.Preimage(addr)
		if !ok {
			t.Fatalf("no pre-image for %v", addr)
		}
		if !slices.Equal(pre, orig) {
			t.Fatalf("pre-image of %v is not its content at Arm", addr)
		}
	}
	if got := ft.DirtyFrames(); !slices.Equal(got, []fabric.FrameAddr{staged, designer}) {
		t.Fatalf("dirty frames = %v", got)
	}
}

// TestCheckpointRollbackRestoresAndStaysArmed: a rollback brings the device
// and the shadow back to the checkpoint and leaves the tool armed with
// nothing dirty, so the same checkpoint backs a second attempt.
func TestCheckpointRollbackRestoresAndStaysArmed(t *testing.T) {
	dev, ctrl, ft := checkpointTool(t)
	addr := fabric.FrameAddr{Major: 2, Minor: 0}
	orig := readFrame(t, dev, addr)
	if err := ft.Arm(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		setBit(t, ft, addr, 33)
		words, err := ft.RecoveryWords()
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Feed(words...); err != nil {
			t.Fatalf("round %d: recovery stream rejected: %v", round, err)
		}
		ft.CompleteRestore()
		sh := ft.Frame(addr)
		if !slices.Equal(readFrame(t, dev, addr), orig) || !slices.Equal(sh, orig) {
			t.Fatalf("round %d: rollback did not restore device and shadow", round)
		}
		if got := ft.DirtyFrames(); len(got) != 0 {
			t.Fatalf("round %d: dirty frames %v after rollback", round, got)
		}
	}
	// Still armed: the next write saves a pre-image again.
	setBit(t, ft, addr, 33)
	if _, ok := ft.Preimage(addr); !ok {
		t.Fatal("tool not armed after rollback")
	}
}

// TestDisarmedToolSavesNothing: writes outside a checkpoint, before the
// first Arm or after Disarm, save no pre-image and build no recovery stream.
func TestDisarmedToolSavesNothing(t *testing.T) {
	_, _, ft := checkpointTool(t)
	addr := fabric.FrameAddr{Major: 3, Minor: 1}
	setBit(t, ft, addr, 0)
	if err := ft.Arm(); err != nil {
		t.Fatal(err)
	}
	ft.Disarm()
	ft.Disarm() // idempotent
	setBit(t, ft, addr, 1)
	if _, ok := ft.Preimage(addr); ok {
		t.Fatal("disarmed tool saved a pre-image")
	}
	if got := ft.DirtyFrames(); len(got) != 0 {
		t.Fatalf("disarmed tool has dirty frames %v", got)
	}
	if words, err := ft.RecoveryWords(); err != nil || words != nil {
		t.Fatalf("disarmed tool built a recovery stream (%d words, %v)", len(words), err)
	}
	// Re-arming after Disarm opens a fresh checkpoint.
	if err := ft.Arm(); err != nil {
		t.Fatal(err)
	}
	ft.Disarm()
}

// TestCheckpointRecoveryWordsRoundTrip streams the recovery stream of a
// scattered dirty set (consecutive and isolated frames) through the
// controller and checks every frame comes back bit-identical, on the device
// and in the shadow.
func TestCheckpointRecoveryWordsRoundTrip(t *testing.T) {
	dev, ctrl, ft := checkpointTool(t)
	addrs := []fabric.FrameAddr{
		{Major: 1, Minor: 3}, {Major: 1, Minor: 4}, {Major: 1, Minor: 5},
		{Major: 4, Minor: 0}, {Major: 6, Minor: 7},
	}
	orig := map[fabric.FrameAddr][]uint32{}
	for _, addr := range addrs {
		orig[addr] = readFrame(t, dev, addr)
	}
	if err := ft.Arm(); err != nil {
		t.Fatal(err)
	}
	for i, addr := range addrs {
		setBit(t, ft, addr, 3*i+1)
	}
	words, err := ft.RecoveryWords()
	if err != nil {
		t.Fatal(err)
	}
	if len(words) == 0 {
		t.Fatal("no recovery stream for a dirty checkpoint")
	}
	if err := ctrl.Feed(words...); err != nil {
		t.Fatalf("recovery stream rejected: %v", err)
	}
	ft.CompleteRestore()
	for _, addr := range addrs {
		sh := ft.Frame(addr)
		if got := readFrame(t, dev, addr); !slices.Equal(got, orig[addr]) || !slices.Equal(sh, got) {
			t.Fatalf("frame %v not restored on device and shadow", addr)
		}
	}
	if words, err := ft.RecoveryWords(); err != nil || words != nil {
		t.Fatalf("clean checkpoint built a recovery stream (%d words, %v)", len(words), err)
	}
}

// TestArmOnArmedToolPanics: one checkpoint is open at a time. With this
// panic in place, every other test also checks that nothing nests
// checkpoints.
func TestArmOnArmedToolPanics(t *testing.T) {
	_, _, ft := checkpointTool(t)
	if err := ft.Arm(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Arm on an armed tool did not panic")
		}
	}()
	_ = ft.Arm()
}
