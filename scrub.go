package rlm

import (
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/health"
)

// This file is the configuration-memory scrubber: a maintenance pass that
// readback-compares frames against the golden shadow content — the same bits
// the journal's dirty-frame digests attest — and rewrites any frame that
// silently diverged (the single-event-upset model: a bit flips in the
// configuration memory with no transport error to announce it). The journal
// digests catch corruption of an operation's own frames at its commit
// boundary; the scrubber is the steady-state complement, sweeping the whole
// device round-robin between operations.

// ScrubReport summarises one scrub pass.
type ScrubReport struct {
	// FramesChecked counts the frames read back and compared this pass.
	FramesChecked int
	// Repairs lists the frames found diverging and rewritten.
	Repairs []fabric.FrameAddr
	// Skipped reports that the pass yielded without checking anything
	// because a foreground operation's stream was in flight: the scrubber
	// must not race the port with a live burst.
	Skipped bool
}

// Scrub runs one scrub pass over at most maxFrames frames (0 sweeps the
// whole device), resuming round-robin where the previous pass stopped. The
// pass yields — returns with Skipped set — when a background stream is in
// flight. The port meter charges scrub traffic to its scrub class (reported
// as Stats.ScrubSeconds), so foreground accounting stays bit-identical to an
// unscrubbed twin's.
func (s *System) Scrub(maxFrames int) (*ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrubLocked(maxFrames)
}

func (s *System) scrubLocked(maxFrames int) (*ScrubReport, error) {
	rep := &ScrubReport{}
	if s.engine.Tool.StreamInFlight() {
		rep.Skipped = true
		return rep, nil
	}
	addrs := s.frameAddrsLocked()
	if len(addrs) == 0 {
		return rep, nil
	}
	if maxFrames <= 0 || maxFrames > len(addrs) {
		maxFrames = len(addrs)
	}
	var changes []*health.Change
	err := s.charge(bitstream.Scrub, func() error {
		for i := 0; i < maxFrames; i++ {
			addr := addrs[s.scrubCursor%len(addrs)]
			s.scrubCursor = (s.scrubCursor + 1) % len(addrs)
			if s.masked(addr.Major) {
				continue
			}
			want, ok := s.engine.Tool.Shadow().Frame(addr)
			if !ok {
				continue
			}
			got, err := s.port.ReadFrame(addr)
			if err != nil {
				return err
			}
			rep.FramesChecked++
			s.engine.Stats.ScrubChecked++
			if frameWordsEqual(got, want) {
				changes = append(changes, s.health.NoteClean(addr.Major))
				continue
			}
			// The diverged readback is the repair's delta baseline: on a
			// compressed port only the flipped word runs ship.
			if err := s.port.WriteUpdates([]bitstream.FrameUpdate{{Addr: addr, Data: want, Prev: got}}); err != nil {
				return err
			}
			rep.Repairs = append(rep.Repairs, addr)
			s.engine.Stats.ScrubRepairs++
			s.publish(Event{Kind: ScrubRepair, Frame: addr})
			changes = append(changes, s.health.NoteRepair(addr))
		}
		return nil
	})
	// Apply tracker decisions outside the scrub charge: a preemptive
	// condemnation evacuates residents, and that traffic is a real foreground
	// relocation, not scrub overhead.
	s.applyHealthChangesLocked(changes)
	if err != nil {
		return rep, err
	}
	s.probeQuarantinedLocked()
	return rep, nil
}

// probeQuarantinedLocked is the release half of the health lifecycle: each
// quarantined column is exercised with a test pattern (write the bit-inverse
// of the golden content, read it back, restore golden, read that back), one
// probe per column per scrub pass. A column that accumulates the policy's
// streak of clean probes is released into probation. The port meter charges
// probe traffic to its probe class (reported as Stats.ProbeSeconds); probes
// only touch quarantined frames, which carry no live design.
func (s *System) probeQuarantinedLocked() {
	if s.health.Policy().ProbesToRelease <= 0 {
		return
	}
	majors := s.health.QuarantinedMajors()
	if len(majors) == 0 {
		return
	}
	var changes []*health.Change
	for _, major := range majors {
		col, ok := s.dev.ColumnByMajor(major)
		if !ok {
			continue
		}
		clean := true
		_ = s.charge(bitstream.Probe, func() error {
			for minor := 0; minor < col.Frames; minor++ {
				fa := fabric.FrameAddr{Major: major, Minor: minor}
				golden, ok := s.engine.Tool.Shadow().Frame(fa)
				if !ok {
					continue
				}
				if !s.probeFrameLocked(fa, golden) {
					clean = false
					s.engine.Stats.ProbeFailures++
					s.publish(Event{Kind: ProbeFailed, Frame: fa})
					return nil // one bad frame fails the whole column probe
				}
			}
			return nil
		})
		s.engine.Stats.Probes++
		changes = append(changes, s.health.NoteProbe(major, clean))
	}
	// Probe writes bumped the device generation behind the frame tool's back
	// (they bypass staging on purpose: quarantined frames are masked out of
	// delivery). Reconcile before anything journals or checkpoints, so the
	// shadow's view and any crash-consistency mirror re-confirm the golden
	// content the probes restored.
	_ = s.engine.Tool.Sync()
	s.applyHealthChangesLocked(changes)
}

// probeFrameLocked runs the pattern test on one frame and reports whether it
// passed. The device model itself always accepts direct writes, so on any
// failure after the pattern write the golden content is restored through the
// device (bypassing the faulty transport) — the probe must never leave its
// test pattern behind where a later Sync would absorb it.
func (s *System) probeFrameLocked(fa fabric.FrameAddr, golden []uint32) bool {
	pattern := make([]uint32, len(golden))
	for i, w := range golden {
		pattern[i] = ^w
	}
	restore := func() { _ = s.dev.WriteFrame(fa.Major, fa.Minor, golden) }
	// A failed write delivers nothing: the device still holds golden.
	if err := s.port.WriteUpdates([]bitstream.FrameUpdate{{Addr: fa, Data: pattern}}); err != nil {
		return false
	}
	got, err := s.port.ReadFrame(fa)
	if err != nil || !frameWordsEqual(got, pattern) {
		restore()
		return false
	}
	if err := s.port.WriteUpdates([]bitstream.FrameUpdate{{Addr: fa, Data: golden}}); err != nil {
		restore()
		return false
	}
	got, err = s.port.ReadFrame(fa)
	if err != nil || !frameWordsEqual(got, golden) {
		// The restore write itself succeeded; only the readback lies.
		return false
	}
	return true
}

// frameAddrsLocked returns the device's full frame address space in address
// order (major by major, minor by minor), built once and cached (the
// geometry never changes). The scrubber walks it round-robin, and a full
// recovery reports the shadow in this order.
func (s *System) frameAddrsLocked() []fabric.FrameAddr {
	if s.frameAddrs != nil {
		return s.frameAddrs
	}
	var addrs []fabric.FrameAddr
	for major := 0; major < s.dev.NumMajors(); major++ {
		col, ok := s.dev.ColumnByMajor(major)
		if !ok {
			continue
		}
		for minor := 0; minor < col.Frames; minor++ {
			addrs = append(addrs, fabric.FrameAddr{Major: major, Minor: minor})
		}
	}
	s.frameAddrs = addrs
	return addrs
}

// startScrubber launches the background scrub goroutine WithScrubber asked
// for. Idempotent-safe at construction time only (called once from New or
// Recover, after the system is fully built).
func (s *System) startScrubber(interval time.Duration, batch int) {
	if interval <= 0 {
		return
	}
	if batch <= 0 {
		batch = 32
	}
	s.scrubStop = make(chan struct{})
	s.scrubDone = make(chan struct{})
	go func() {
		defer close(s.scrubDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.scrubStop:
				return
			case <-t.C:
				// Errors are not fatal to the scrubber: a pass that trips on
				// a transport fault simply retries next tick (a persistent
				// one is the retry ladder's business, on the foreground path).
				_, _ = s.Scrub(batch)
			}
		}
	}()
}

// Close stops the background scrubber (if one was started), waits for it to
// exit, and drains the in-flight background configuration stream, so no
// goroutine the system spawned outlives it. Safe to call on a system built
// without WithScrubber, and safe to call more than once. It does not close
// the journal — the journal's file lifetime follows the process.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		if s.scrubStop != nil {
			close(s.scrubStop)
			<-s.scrubDone
		}
		s.mu.Lock()
		s.engine.Tool.HarvestPending()
		s.mu.Unlock()
	})
	return nil
}
