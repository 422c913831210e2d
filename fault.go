package rlm

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/health"
)

// This file is the facade's transport fault-tolerance ladder. With a
// RetryPolicy armed, the ladder installs itself as the frame tool's Retry
// delegate: the frame tool delivers every flush through the port's stream,
// so every transport fault of an operation's delivery surfaces at a
// Tool.AwaitStream — an operation's end-of-op harvest, the stage gate's
// serial drain or, under serial commit, the Flush that enqueued the burst —
// and the delegate re-delivers the unharvested frames from the host shadow
// (the paper's complete configuration copy), escalating to per-frame
// readback-verify. Only when every attempt fails does the operation roll
// back — and the columns of the frames the final verify condemned are
// quarantined in the health ledger, which masks them out of the frame tool's
// delivery and (for CLB columns) out of the area manager's logic space, and
// resident designs are evacuated to healthy space.
//
// The write-through staging model makes the re-delivery set well-defined
// even though the port cannot say WHICH burst failed (its drain continues
// past errors and counts failed bursts completed): the shadow and device
// model take every write at stage time, so re-delivering the whole
// unharvested superset re-sends correct final content, and re-sending an
// already-delivered frame is a glitch-free identical rewrite.

// RetryPolicy bounds the fault-tolerance ladder WithRetryPolicy arms.
type RetryPolicy struct {
	// MaxRetries is the number of re-delivery attempts after a transport
	// fault before the operation is failed (and rolled back).
	MaxRetries int
	// Backoff is the wait before the first retry, doubling per attempt.
	// Zero retries immediately — what the deterministic tests use.
	Backoff time.Duration
	// VerifyAfter escalates re-delivery to per-frame readback-verify from
	// this attempt number on (1 verifies every retry; 0 defaults to 2, so
	// the first retry is a cheap blind re-send and persistent faults are
	// caught on the second).
	VerifyAfter int
}

// DefaultRetryPolicy is a sensible production ladder: three attempts, one
// millisecond initial backoff, readback-verify from the second attempt.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond, VerifyAfter: 2}
}

// armRetryLadder installs the ladder as the frame tool's Retry delegate
// (newSystem calls it when WithRetryPolicy was given).
func (s *System) armRetryLadder() {
	if s.retry == nil || s.retry.MaxRetries <= 0 {
		return
	}
	s.engine.Tool.Retry = s.retryDeliveryLocked
}

// finishOpLocked is txLocked's success epilogue: harvest the batched stream
// while the checkpoint can still roll it back (a transport failure of the
// background shift-out belongs to this operation, and the retry ladder fires
// inside the await when armed), then seal the commit. A load streams nothing
// through the port (placement, the warm splice and template capture write
// the device directly, after draining the stream), so for a load only the
// seal does work. The caller rolls back and seals an abort when it returns
// an error; a second call after a successful one is a no-op.
func (s *System) finishOpLocked() error {
	if err := s.engine.Tool.Flush(); err != nil {
		return err
	}
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return err
	}
	return s.journalCommitLocked()
}

// retryDeliveryLocked is the bounded re-delivery ladder, installed as the
// frame tool's Retry delegate: cause surfaced at an AwaitStream and addrs is
// the unharvested frame set. It runs under the operation's lock (every tool
// call path holds it). On success the operation proceeds as if the fault
// never happened (the port meter charges the retry traffic to its retry
// class, not the foreground). On exhaustion a final readback-verify
// condemns the frames that still fail, parks them in s.pendingBad for the
// quarantine sweep that ends the operation's transaction, and the returned
// error wraps ErrRetriesExhausted.
func (s *System) retryDeliveryLocked(cause error, addrs []fabric.FrameAddr) error {
	pol := *s.retry
	s.engine.Stats.FaultsDetected++
	s.publish(Event{Kind: FaultDetected, Err: cause})
	s.noteFaultEvidenceLocked(addrs)
	verifyFrom := pol.VerifyAfter
	if verifyFrom <= 0 {
		verifyFrom = 2
	}
	updates := s.redeliverySetLocked(addrs)
	backoff := pol.Backoff
	err := cause
	for attempt := 1; attempt <= pol.MaxRetries; attempt++ {
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		s.crash("retry")
		s.engine.Stats.FaultRetries++
		err = s.charge(bitstream.Retry, func() error {
			return s.redeliver(updates, attempt >= verifyFrom)
		})
		if err == nil {
			s.publish(Event{Kind: RetrySucceeded, Steps: attempt})
			return nil
		}
	}
	s.engine.Stats.RetriesExhausted++
	var bad []fabric.FrameAddr
	_ = s.charge(bitstream.Retry, func() error {
		var verr error
		bad, verr = s.verifyFrames(updates)
		return verr
	})
	s.pendingBad = append(s.pendingBad, bad...)
	err = fmt.Errorf("%w after %d attempt(s): %v", ErrRetriesExhausted, pol.MaxRetries, err)
	s.publish(Event{Kind: RetriesExhausted, Steps: pol.MaxRetries, Err: err})
	return err
}

// noteFaultEvidenceLocked feeds a transport fault into the health tracker's
// per-column error rate, one observation per distinct column of the
// unharvested set. The only transition fault evidence can drive is
// healthy → suspect (advisory, no masking), so applying the changes here —
// inside an active operation — never touches the journal.
func (s *System) noteFaultEvidenceLocked(addrs []fabric.FrameAddr) {
	seen := make(map[int]bool)
	var changes []*health.Change
	for _, a := range addrs {
		if seen[a.Major] {
			continue
		}
		seen[a.Major] = true
		changes = append(changes, s.health.NoteFault(a.Major))
	}
	s.applyHealthChangesLocked(changes)
}

// redeliverySetLocked builds the sorted re-delivery set from the unharvested
// frames, minus quarantined memory, each with its current (golden) shadow
// content. Each update carries the tool's confirmed baseline as its delta
// Prev, so a compressed port re-ships exactly the runs the failed burst was
// carrying instead of whole frames.
func (s *System) redeliverySetLocked(unharvested []fabric.FrameAddr) []bitstream.FrameUpdate {
	addrs := append([]fabric.FrameAddr(nil), unharvested...)
	slices.SortFunc(addrs, fabric.FrameAddr.Compare)
	updates := make([]bitstream.FrameUpdate, 0, len(addrs))
	for _, a := range addrs {
		if s.masked(a.Major) {
			continue
		}
		if data, ok := s.engine.Tool.Shadow().Frame(a); ok {
			u := bitstream.FrameUpdate{Addr: a, Data: data}
			if prev, ok := s.engine.Tool.ConfirmedBaseline(a); ok {
				u.Prev = prev
			}
			updates = append(updates, u)
		}
	}
	return updates
}

// redeliver re-sends the set synchronously (no background stream: the retry
// must know the outcome), readback-verifying each frame when asked. An empty
// set means the fault belonged to a burst whose frames all committed already
// — under write-through staging the device content is correct and there is
// nothing to re-send, so the retry trivially succeeds.
func (s *System) redeliver(updates []bitstream.FrameUpdate, verify bool) error {
	if len(updates) == 0 {
		return nil
	}
	if err := s.port.WriteUpdates(updates); err != nil {
		return err
	}
	if !verify {
		return nil
	}
	_, err := s.verifyFrames(updates)
	return err
}

// verifyFrames reads each frame back through the port and compares against
// the intended content, returning the frames that diverge (or fail to read).
func (s *System) verifyFrames(updates []bitstream.FrameUpdate) ([]fabric.FrameAddr, error) {
	var bad []fabric.FrameAddr
	for _, u := range updates {
		got, err := s.port.ReadFrame(u.Addr)
		if err != nil || !frameWordsEqual(got, u.Data) {
			bad = append(bad, u.Addr)
		}
	}
	if len(bad) > 0 {
		return bad, fmt.Errorf("rlm: %d frame(s) failed readback-verify", len(bad))
	}
	return nil, nil
}

// charge runs fn with the port meter charging class c, so maintenance
// traffic (retries, scrubs, probes, recovery) never counts as foreground and
// the foreground accounting stays bit-identical to a fault-free twin's.
func (s *System) charge(c bitstream.Class, fn func() error) error {
	m := s.port.Meter()
	prev := m.SetClass(c)
	defer m.SetClass(prev)
	return fn()
}

// quarantineSweepLocked consumes the verified-bad frames left in
// s.pendingBad. txLocked runs it on every exit of every operation, after the
// commit or abort seal, so the sweep's own journaled operations
// (evacuations) open on a sealed journal. No-op when nothing is pending.
func (s *System) quarantineSweepLocked() {
	bad := s.pendingBad
	s.pendingBad = nil
	added := false
	for _, addr := range bad {
		// A frame carries bits of every row of its column, so the whole
		// column is condemned: finer masking could still route live logic
		// through the bad memory.
		if s.health.Condemn(addr.Major) != nil {
			s.quarantineColumnLocked(addr)
			added = true
		}
	}
	if added {
		s.evacuateLocked()
		// The mask changed outside any journaled op (the operation already
		// sealed); seal the new mask so a crash cannot lose it.
		s.journalHealthLocked()
	}
}

// quarantineColumnLocked is the side effect of the health ledger moving the
// column of addr to quarantined: the ledger itself masks the column out of
// the frame tool's delivery, so what is left is masking a CLB column out of
// the area manager's logic space, counting its frames and publishing the
// events (addr is the frame that condemned the column).
func (s *System) quarantineColumnLocked(addr fabric.FrameAddr) {
	col, ok := s.dev.ColumnByMajor(addr.Major)
	if !ok {
		return
	}
	if col.Kind == fabric.ColCLB {
		s.area.Quarantine(fabric.Rect{Row: 0, Col: col.ArrayCol, H: s.dev.Rows, W: 1})
	}
	s.engine.Stats.FramesQuarantined += col.Frames
	s.publish(Event{Kind: FrameQuarantined, Frame: addr})
	s.publish(Event{Kind: CapacityChanged, Capacity: s.capacityLocked()})
}

// evacuateLocked relocates every design whose region now overlaps
// quarantined logic space to healthy space, best-effort and in name order.
// It runs from the quarantine sweep and from a scrub-driven quarantine.
// Each evacuation is its own transaction; a fault during one engages the
// ladder like any other delivery, but evacuations never sweep (s.evacuating
// holds for the whole pass): what they condemn stays pending for the next
// operation's sweep, so the quarantine cannot recurse. A design with no
// healthy placement stays where it is (its configuration is still
// host-coherent; only its physical substrate is suspect), which the
// caller's event stream makes observable.
func (s *System) evacuateLocked() {
	s.evacuating = true
	defer func() { s.evacuating = false }()
	names := make([]string, 0, len(s.designs))
	for name := range s.designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := s.designs[name]
		if !s.area.QuarantineOverlaps(d.Region) {
			continue
		}
		from := d.Region
		to, ok := s.area.FindPlacement(d.Region.H, d.Region.W, area.BestFit)
		if !ok {
			continue
		}
		err := s.txLocked("evacuate", name, to, "", func() error { return s.moveRaw(name, to) })
		if err == nil {
			s.engine.Stats.DesignsEvacuated++
			s.publish(Event{Kind: DesignEvacuated, Design: name, From: from, Region: to})
		}
	}
}
