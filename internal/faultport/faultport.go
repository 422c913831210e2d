// Package faultport wraps a configuration port with deterministic, seedable
// fault injection. It is the single fault model the facade's robustness
// tests, the fuzz harness, and chaos experiments share — promoting what used
// to be ad-hoc per-test flaky ports into one composable plan:
//
//   - a transient stream failure after N delivered frames (TripAfter): the
//     transport error surfaces once and then heals, the model of a glitched
//     shift;
//   - persistent per-frame write failure (FailFrames): every delivery
//     touching a condemned frame errors, and readback of the frame returns
//     deterministically corrupted content — the model of stuck configuration
//     memory;
//   - silent SEU bit-flips (FlipBit): readback shows the flipped bit, writes
//     succeed and clear it — the model a scrubber exists to repair;
//   - stalls (SetStall): wall-clock delay on every harvest (AwaitStream), a
//     hung-transport model with no cycle-accounting effect — the facade's
//     stall watchdog exists to bound it.
//
// The wrapper exploits the pipeline's write-through staging contract
// (bitstream.AsyncPort): the device model already holds every frame's final
// content before delivery starts, so a "failed" burst is still enqueued in
// full on the inner port. Cycle accounting and device content therefore stay
// bit-identical to a fault-free twin; only the error signal differs, which is
// exactly what the facade's retry ladder consumes. Transient faults are
// sticky until harvested by AwaitStream, mirroring the transport contract.
//
// All mutators are safe to call while bursts are in flight; a fixed seed
// makes every injected corruption reproducible.
package faultport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// Inner is the port being wrapped: an asynchronous configuration port that
// keeps a per-class meter (both jtag.Port and bitstream.ParallelPort
// qualify).
type Inner interface {
	bitstream.AsyncPort
	bitstream.Metered
}

// Port is a fault-injecting bitstream.AsyncPort wrapper. The zero fault plan
// is fully healthy; compose faults with TripAfter, FailFrames, FlipBit and
// SetStall at any time.
type Port struct {
	inner Inner

	mu     sync.Mutex
	seed   uint64
	budget int // frames until a transient trip; < 0 = disarmed
	bad    map[fabric.FrameAddr]bool
	flips  map[fabric.FrameAddr]map[int]uint32 // addr -> word index -> xor mask
	stall  time.Duration
	err    error // sticky until the next AwaitStream
	faults int
}

// New wraps inner. The seed drives the deterministic readback corruption of
// persistently failed frames; the same seed reproduces the same bit pattern.
func New(inner Inner, seed uint64) *Port {
	return &Port{inner: inner, seed: seed, budget: -1}
}

// TripAfter arms a transient stream fault: once `frames` more frames have
// been accepted, the delivery that crosses the budget reports a transport
// error (sticky until AwaitStream) and the fault clears itself — a retry of
// the same content succeeds. TripAfter(0) trips on the next delivery.
func (f *Port) TripAfter(frames int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = frames
}

// Disarm cancels a pending transient trip.
func (f *Port) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = -1
}

// FailFrames condemns frames persistently: every write touching one errors,
// and readback returns seed-deterministic corruption until HealFrames.
func (f *Port) FailFrames(addrs ...fabric.FrameAddr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bad == nil {
		f.bad = make(map[fabric.FrameAddr]bool, len(addrs))
	}
	for _, a := range addrs {
		f.bad[a] = true
	}
}

// HealFrames lifts the persistent failure from the given frames.
func (f *Port) HealFrames(addrs ...fabric.FrameAddr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range addrs {
		delete(f.bad, a)
	}
}

// FlipBit injects a silent SEU: readback of addr shows the given bit
// inverted, writes succeed normally, and any write covering the frame clears
// the flip (the configuration memory was rewritten). Flipping the same bit
// twice cancels out.
func (f *Port) FlipBit(addr fabric.FrameAddr, word, bit int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.flips == nil {
		f.flips = make(map[fabric.FrameAddr]map[int]uint32)
	}
	m := f.flips[addr]
	if m == nil {
		m = make(map[int]uint32)
		f.flips[addr] = m
	}
	m[word] ^= 1 << uint(bit%32)
	if m[word] == 0 {
		delete(m, word)
	}
	if len(m) == 0 {
		delete(f.flips, addr)
	}
}

// SetStall delays every harvest (AwaitStream) by d of wall-clock time
// (0 disables) — the model of a hung transport that stops responding at
// exactly the point the host blocks on it. Stalls never change cycle
// accounting or delivered content; they exist so a stall watchdog has
// something to catch.
func (f *Port) SetStall(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stall = d
}

// Faults returns the number of faults injected so far (trips plus persistent
// write failures; silent flips are not counted until something reads them).
func (f *Port) Faults() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// inject applies the armed fault plan to one outgoing delivery and returns
// the injected error, if any. Caller holds f.mu.
func (f *Port) inject(updates []bitstream.FrameUpdate) error {
	var err error
	if f.budget >= 0 {
		if len(updates) <= f.budget {
			f.budget -= len(updates)
		} else {
			// Transient: the trip fires once and the fault heals itself.
			n := f.budget
			f.budget = -1
			f.faults++
			err = fmt.Errorf("faultport: injected transient stream failure after %d frames", n)
		}
	}
	for _, u := range updates {
		if f.bad[u.Addr] {
			f.faults++
			if err == nil {
				err = fmt.Errorf("faultport: persistent write failure at frame F%d.%d", u.Addr.Major, u.Addr.Minor)
			}
		}
		// A rewrite refreshes the frame's configuration memory: SEUs clear.
		delete(f.flips, u.Addr)
	}
	return err
}

// WriteUpdates implements bitstream.Port. An injected fault fails the write
// synchronously; nothing is delivered for a faulted write.
func (f *Port) WriteUpdates(updates []bitstream.FrameUpdate) error {
	f.mu.Lock()
	err := f.inject(updates)
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.WriteUpdates(updates)
}

// StreamUpdates implements bitstream.AsyncPort. The burst is always enqueued
// in full on the inner port — write-through staging means the device already
// holds the streamed content, so a fault only poisons the error signal (and
// the accounting stays identical to a fault-free run). The injected error is
// sticky until the next AwaitStream.
func (f *Port) StreamUpdates(updates []bitstream.FrameUpdate) {
	f.mu.Lock()
	if err := f.inject(updates); err != nil && f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.inner.StreamUpdates(updates)
}

// AwaitStream implements bitstream.AsyncPort: it drains the inner queue and
// surfaces (then clears) any injected sticky error. An armed stall sleeps
// here, before the drain — the hung-harvest model the watchdog bounds.
func (f *Port) AwaitStream() error {
	f.mu.Lock()
	stall := f.stall
	f.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	err := f.inner.AwaitStream()
	f.mu.Lock()
	if err == nil {
		err = f.err
	}
	f.err = nil
	f.mu.Unlock()
	return err
}

// Fence implements bitstream.AsyncPort: it waits for the inner worker to go
// idle. A stall models a slow harvest, not a slow shift, so none applies
// here, and the sticky errors stay for the next AwaitStream.
func (f *Port) Fence() { f.inner.Fence() }

// ReadFrame implements bitstream.Port, applying the readback fault model:
// persistent-bad frames come back seed-deterministically corrupted, SEU
// flips show their inverted bits.
func (f *Port) ReadFrame(addr fabric.FrameAddr) ([]uint32, error) {
	words, err := f.inner.ReadFrame(addr)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.bad[addr] && f.flips[addr] == nil {
		return words, nil
	}
	out := make([]uint32, len(words))
	copy(out, words)
	if f.bad[addr] {
		for i := range out {
			out[i] ^= corruptMask(f.seed, addr, i)
		}
	}
	for w, mask := range f.flips[addr] {
		if w >= 0 && w < len(out) {
			out[w] ^= mask
		}
	}
	return out, nil
}

// corruptMask is the deterministic per-word corruption pattern of a
// persistently failed frame: a splitmix64 of (seed, addr, word index), with
// bit 0 forced so every word visibly differs.
func corruptMask(seed uint64, addr fabric.FrameAddr, word int) uint32 {
	x := seed ^ uint64(addr.Major)<<40 ^ uint64(addr.Minor)<<20 ^ uint64(word)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return uint32(x^(x>>31)) | 1
}

// StreamInFlight implements bitstream.AsyncPort.
func (f *Port) StreamInFlight() bool { return f.inner.StreamInFlight() }

// CompletedBursts implements bitstream.AsyncPort.
func (f *Port) CompletedBursts() uint64 { return f.inner.CompletedBursts() }

// Elapsed implements bitstream.Port.
func (f *Port) Elapsed() float64 { return f.inner.Elapsed() }

// Name implements bitstream.Port (the inner transport's name: the wrapper is
// invisible to reports and journal init records).
func (f *Port) Name() string { return f.inner.Name() }

// Cycles exposes the inner port's foreground cycle count.
func (f *Port) Cycles() uint64 { return f.inner.Meter().Usage(bitstream.Foreground).Cycles }

// Meter implements bitstream.Metered: the wrapper charges nothing of its
// own, so its meter is the inner port's.
func (f *Port) Meter() *bitstream.Meter { return f.inner.Meter() }

// SetCompress forwards compression control to the inner port, so a
// fault-injected system can run compressed streams. Faults are injected on
// the update list BEFORE encoding (see inject), which keeps persistent frame
// faults visible even when compression elides the frame's words entirely.
// No-op when the inner port does not implement bitstream.CompressPort.
func (f *Port) SetCompress(on bool) {
	if tp, ok := f.inner.(bitstream.CompressPort); ok {
		tp.SetCompress(on)
	}
}

// Compressed reports the inner port's compression mode (false when the inner
// port does not implement bitstream.CompressPort).
func (f *Port) Compressed() bool {
	if tp, ok := f.inner.(bitstream.CompressPort); ok {
		return tp.Compressed()
	}
	return false
}

// Traffic exposes the inner port's foreground write-traffic counters.
func (f *Port) Traffic() bitstream.Traffic {
	return f.inner.Meter().Usage(bitstream.Foreground).Traffic
}

var _ bitstream.AsyncPort = (*Port)(nil)
var _ Inner = (*Port)(nil)
var _ bitstream.CompressPort = (*Port)(nil)
