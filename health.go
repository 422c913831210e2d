package rlm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/health"
)

// This file glues the per-column health lifecycle (internal/health) into
// the facade: the tracker decides WHEN a column changes state from the
// evidence the retry ladder and the scrubber feed it, and it is the one
// owner of column state: the frame tool's delivery mask reads it directly
// (masked). The code here owns the side effects of its transitions —
// masking and unmasking logic space, evacuating residents, journaling the
// transition, publishing events and counting Stats. See fault.go for the
// evidence from foreground faults and scrub.go for scrub/probe evidence.

// HealthPolicy is the threshold set driving the health lifecycle; see
// WithHealthPolicy. The zero value reproduces the legacy permanent
// quarantine.
type HealthPolicy = health.Policy

// ColumnHealth is one entry of the per-column health ledger System.Health
// returns.
type ColumnHealth = health.Column

// Health states of a column, re-exported for callers inspecting the
// ledger.
const (
	ColumnHealthy     = health.Healthy
	ColumnSuspect     = health.Suspect
	ColumnQuarantined = health.Quarantined
	ColumnProbation   = health.Probation
)

// DefaultHealthPolicy returns the stock lifecycle thresholds.
func DefaultHealthPolicy() HealthPolicy { return health.DefaultPolicy() }

// Health returns the per-column health ledger, sorted by column major.
// Columns that never produced evidence are absent (implicitly healthy).
func (s *System) Health() []ColumnHealth {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.health.Columns()
}

// Capacity returns the current logic-space capacity census.
func (s *System) Capacity() Capacity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.capacityLocked()
}

// capacityLocked builds the census: quarantined CLBs are masked out of the
// area manager; probation columns are in service (and counted healthy).
func (s *System) capacityLocked() Capacity {
	total := s.dev.Rows * s.dev.Cols
	quar := s.area.QuarantinedCLBs()
	prob := 0
	for _, major := range s.health.MajorsIn(health.Probation) {
		if col, ok := s.dev.ColumnByMajor(major); ok && col.Kind == fabric.ColCLB {
			prob += s.dev.Rows
		}
	}
	return Capacity{HealthyCLBs: total - quar, QuarantinedCLBs: quar, ProbationCLBs: prob}
}

// admitLocked is the degraded-mode admission gate: with a watermark
// configured, a Load (direct or inside a Plan) fails fast with ErrDegraded
// while healthy capacity is below watermark × total.
func (s *System) admitLocked() error {
	pol := s.health.Policy()
	if pol.DegradedBelow <= 0 {
		return nil
	}
	cap := s.capacityLocked()
	total := s.dev.Rows * s.dev.Cols
	if float64(cap.HealthyCLBs) < pol.DegradedBelow*float64(total) {
		return fmt.Errorf("%w: %d/%d CLBs healthy (watermark %.0f%%)",
			ErrDegraded, cap.HealthyCLBs, total, 100*pol.DegradedBelow)
	}
	return nil
}

// masked reports whether a column is quarantined in the health ledger: its
// frames are condemned memory, left out of delivery, re-delivery, scrubbing
// and the journal's digests.
func (s *System) masked(major int) bool { return s.health.State(major) == health.Quarantined }

// applyHealthChangesLocked performs the side effects of tracker decisions.
func (s *System) applyHealthChangesLocked(changes []*health.Change) {
	masked := false
	for _, ch := range changes {
		if ch == nil {
			continue
		}
		switch ch.To {
		case health.Suspect:
			s.engine.Stats.ColumnsSuspected++
			s.publish(Event{Kind: FrameSuspect, Frame: fabric.FrameAddr{Major: ch.Major}})
		case health.Quarantined:
			// Preemptive condemnation (scrub evidence) or a probation
			// column's one-strike return: mask the column and evacuate.
			s.quarantineColumnLocked(fabric.FrameAddr{Major: ch.Major})
			s.evacuateLocked()
			masked = true
		case health.Probation:
			// Released from quarantine: unmask the column.
			s.releaseColumnLocked(ch.Major)
			masked = true
		case health.Healthy:
			if ch.From == health.Probation {
				s.publish(Event{Kind: CapacityChanged, Capacity: s.capacityLocked()})
			}
		}
	}
	if masked {
		// The quarantine mask moved outside any journaled operation; seal
		// it now so a crash before the next op cannot lose it.
		s.journalHealthLocked()
	}
}

// releaseColumnLocked is the side effect of the health ledger releasing a
// quarantined column into probation: the ledger itself returns its frames
// to port delivery, so what is left is unmasking a CLB column's logic space
// so placements may cover it again.
func (s *System) releaseColumnLocked(major int) {
	col, ok := s.dev.ColumnByMajor(major)
	if !ok {
		return
	}
	if col.Kind == fabric.ColCLB {
		s.area.Unquarantine(fabric.Rect{Row: 0, Col: col.ArrayCol, H: s.dev.Rows, W: 1})
	}
	s.engine.Stats.QuarantinesReleased++
	s.publish(Event{Kind: QuarantineReleased, Frame: fabric.FrameAddr{Major: major}})
	s.publish(Event{Kind: CapacityChanged, Capacity: s.capacityLocked()})
}

// journalHealthLocked seals the current health/quarantine state into the
// journal as a standalone committed mini-operation. Health transitions
// driven by the scrubber or by the quarantine sweep that ends a transaction
// happen outside any journaled operation, and until now were only persisted
// by the NEXT committed op's Post record — a crash in between would recover
// a stale mask. The mini-op closes that window: Begin("health") + Post(full
// state) + Commit, with no frame deliveries of its own, over a checkpoint of
// its own (no other is armed: txLocked releases its checkpoint before the
// sweep). No-op without a journal or inside an active operation (its Post
// will carry the state).
func (s *System) journalHealthLocked() {
	js := s.jrnl
	if js == nil || js.active {
		return
	}
	if err := s.checkpointLocked(); err != nil {
		return
	}
	defer s.releaseCheckpointLocked()
	if err := s.journalBeginLocked("health", "", fabric.Rect{}, ""); err != nil {
		return
	}
	if err := s.journalCommitLocked(); err != nil {
		s.journalAbortLocked()
	}
}
