package faultport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/jtag"
)

func newPort(t *testing.T, seed uint64) (*Port, *jtag.Port, *fabric.Device) {
	t.Helper()
	dev := fabric.NewDevice(fabric.TestDevice)
	inner := jtag.NewPort(bitstream.NewController(dev), jtag.DefaultTCKHz)
	return New(inner, seed), inner, dev
}

func frameUpdate(dev *fabric.Device, major, minor int, fill uint32) bitstream.FrameUpdate {
	words, err := dev.ReadFrame(major, minor)
	if err != nil {
		panic(err)
	}
	data := make([]uint32, len(words))
	for i := range data {
		data[i] = fill
	}
	return bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: major, Minor: minor}, Data: data}
}

// TestTripAfterBudgetAcrossBursts: the transient budget counts frames across
// deliveries, the trip fires once on the burst that crosses it, stays sticky
// until the next AwaitStream, and the fault heals itself.
func TestTripAfterBudgetAcrossBursts(t *testing.T) {
	p, _, dev := newPort(t, 1)
	p.TripAfter(3)

	// Two frames: under budget, enqueues cleanly.
	p.StreamUpdates([]bitstream.FrameUpdate{frameUpdate(dev, 0, 0, 1), frameUpdate(dev, 0, 1, 1)})
	// Two more: crosses the budget of 3 — the error arms, sticky.
	p.StreamUpdates([]bitstream.FrameUpdate{frameUpdate(dev, 0, 2, 1), frameUpdate(dev, 0, 3, 1)})
	err := p.AwaitStream()
	if err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("await after trip: %v, want injected transient failure", err)
	}
	if p.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", p.Faults())
	}
	// The await consumed the sticky error, and the trip self-disarmed: the
	// same traffic now succeeds.
	p.StreamUpdates([]bitstream.FrameUpdate{frameUpdate(dev, 0, 4, 1)})
	if err := p.AwaitStream(); err != nil {
		t.Fatalf("await after self-heal: %v", err)
	}
	// Even the "failed" burst was enqueued in full on the inner transport
	// (write-through: the fault poisons the error signal, never the data),
	// so all three bursts completed at the protocol level.
	if n := p.CompletedBursts(); n != 3 {
		t.Fatalf("completed bursts = %d, want 3", n)
	}
}

// TestFenceSkipsStallKeepsError: Fence waits for the inner worker without
// the harvest's stall and without consuming the sticky injected error,
// which the next AwaitStream still reports.
func TestFenceSkipsStallKeepsError(t *testing.T) {
	p, inner, dev := newPort(t, 1)
	p.TripAfter(0)
	p.StreamUpdates([]bitstream.FrameUpdate{frameUpdate(dev, 0, 0, 3)})
	p.SetStall(time.Minute)
	start := time.Now()
	p.Fence()
	if d := time.Since(start); d > 10*time.Second || inner.StreamInFlight() {
		t.Fatalf("Fence took %v, inner in flight after it: %v", d, inner.StreamInFlight())
	}
	p.SetStall(0)
	if err := p.AwaitStream(); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("await after fence: %v, want the injected transient failure", err)
	}
}

// TestDisarmCancelsTrip: a disarmed trip never fires.
func TestDisarmCancelsTrip(t *testing.T) {
	p, _, dev := newPort(t, 1)
	p.TripAfter(0)
	p.Disarm()
	p.StreamUpdates([]bitstream.FrameUpdate{frameUpdate(dev, 0, 0, 2)})
	if err := p.AwaitStream(); err != nil {
		t.Fatalf("await after disarm: %v", err)
	}
	if p.Faults() != 0 {
		t.Fatalf("faults = %d, want 0", p.Faults())
	}
}

// TestPersistentFailure: writes touching a condemned frame error (and the
// synchronous path delivers nothing), readback is deterministically
// corrupted by the seed, and HealFrames lifts it all.
func TestPersistentFailure(t *testing.T) {
	p, _, dev := newPort(t, 42)
	bad := fabric.FrameAddr{Major: 1, Minor: 0}
	p.FailFrames(bad)

	if err := p.WriteUpdates([]bitstream.FrameUpdate{frameUpdate(dev, 1, 0, 3)}); err == nil {
		t.Fatal("write to condemned frame succeeded")
	}
	// Nothing was delivered: the device still holds the original content.
	orig, err := dev.ReadFrame(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range orig {
		if w == 3 {
			t.Fatalf("word %d delivered despite the synchronous failure", i)
		}
	}

	// Readback corruption is deterministic in the seed.
	c1, err := p.ReadFrame(bad)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _ := newPort(t, 42)
	p2.FailFrames(bad)
	c2, err := p2.ReadFrame(bad)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	differsFromDevice := false
	for i := range c1 {
		if c1[i] != c2[i] {
			same = false
		}
		if c1[i] != orig[i] {
			differsFromDevice = true
		}
	}
	if !same {
		t.Fatal("same seed produced different corruption")
	}
	if !differsFromDevice {
		t.Fatal("condemned readback not corrupted")
	}
	p3, _, _ := newPort(t, 43)
	p3.FailFrames(bad)
	c3, err := p3.ReadFrame(bad)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range c1 {
		if c1[i] != c3[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical corruption")
	}

	p.HealFrames(bad)
	if err := p.WriteUpdates([]bitstream.FrameUpdate{frameUpdate(dev, 1, 0, 3)}); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	got, err := p.ReadFrame(bad)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range got {
		if w != 3 {
			t.Fatalf("word %d after heal = %#x, want 3", i, w)
		}
	}
}

// TestFlipBit: an SEU shows only on readback, a write covering the frame
// clears it, and flipping the same bit twice cancels out.
func TestFlipBit(t *testing.T) {
	p, _, dev := newPort(t, 7)
	addr := fabric.FrameAddr{Major: 2, Minor: 1}
	clean, err := p.ReadFrame(addr)
	if err != nil {
		t.Fatal(err)
	}
	clean = append([]uint32(nil), clean...)

	p.FlipBit(addr, 1, 5)
	got, err := p.ReadFrame(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != clean[1]^(1<<5) {
		t.Fatalf("word 1 = %#x, want %#x", got[1], clean[1]^(1<<5))
	}
	for i := range got {
		if i != 1 && got[i] != clean[i] {
			t.Fatalf("word %d disturbed by a single-bit flip", i)
		}
	}
	// The device model itself is untouched: the flip lives in the readback
	// signal only.
	devWords, err := dev.ReadFrame(addr.Major, addr.Minor)
	if err != nil {
		t.Fatal(err)
	}
	if devWords[1] != clean[1] {
		t.Fatal("SEU leaked into the device model")
	}

	// A rewrite of the frame refreshes the memory: the flip clears.
	if err := p.WriteUpdates([]bitstream.FrameUpdate{{Addr: addr, Data: clean}}); err != nil {
		t.Fatal(err)
	}
	got, err = p.ReadFrame(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != clean[1] {
		t.Fatal("write did not clear the SEU")
	}

	// Double flip cancels.
	p.FlipBit(addr, 2, 9)
	p.FlipBit(addr, 2, 9)
	got, err = p.ReadFrame(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != clean[2] {
		t.Fatal("double flip did not cancel")
	}
}

// TestAccountingPassthrough: the wrapper is accounting-transparent — cycles,
// elapsed time, the meter and the port name all come from the inner
// transport, and a healthy wrapped run matches an unwrapped twin bit for bit.
func TestAccountingPassthrough(t *testing.T) {
	p, inner, dev := newPort(t, 9)
	twinDev := fabric.NewDevice(fabric.TestDevice)
	twin := jtag.NewPort(bitstream.NewController(twinDev), jtag.DefaultTCKHz)

	burst := []bitstream.FrameUpdate{frameUpdate(dev, 0, 0, 5), frameUpdate(dev, 0, 1, 6)}
	p.StreamUpdates(burst)
	if err := p.AwaitStream(); err != nil {
		t.Fatal(err)
	}
	twin.StreamUpdates(burst)
	if err := twin.AwaitStream(); err != nil {
		t.Fatal(err)
	}
	if p.Cycles() != twin.Cycles() || p.Cycles() != inner.Cycles() {
		t.Fatalf("cycles: wrapped %d, inner %d, twin %d", p.Cycles(), inner.Cycles(), twin.Cycles())
	}
	if p.Elapsed() != twin.Elapsed() {
		t.Fatalf("elapsed: wrapped %v, twin %v", p.Elapsed(), twin.Elapsed())
	}
	if p.Name() != twin.Name() {
		t.Fatalf("name: wrapped %q, twin %q", p.Name(), twin.Name())
	}
	if p.Meter() != inner.Meter() {
		t.Fatal("Meter() is not the inner port's meter")
	}
}
