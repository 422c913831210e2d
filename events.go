package rlm

import (
	"fmt"

	"repro/internal/fabric"
)

// EventKind tags the typed events a System emits while it works.
type EventKind uint8

const (
	// DesignLoaded: a design was placed, routed and checkpointed.
	DesignLoaded EventKind = iota
	// DesignUnloaded: a design was decommissioned and its region freed.
	DesignUnloaded
	// DesignMoved: a whole design finished relocating to a new region.
	DesignMoved
	// CLBRelocated: one live CLB finished its two-phase relocation.
	CLBRelocated
	// RearrangeStarted: a defragmentation / rearrangement plan begins.
	RearrangeStarted
	// RearrangeFinished: the plan completed; Steps and CLBs are final.
	RearrangeFinished
	// Recovered: the system streamed a recovery bitstream, either on
	// request (Recover) or while rolling back a failed operation (Err is
	// then the failure that triggered the rollback).
	Recovered
	// TemplateHit: a Load found a pre-routed template and took the warm
	// path (frame splicing plus boundary routing; no interior place/route).
	TemplateHit
	// TemplateMiss: a Load with the template cache enabled found no entry
	// and fell through to the cold place-and-route path.
	TemplateMiss
	// TemplateStored: a cold load captured its design into the cache.
	TemplateStored
	// TemplateEvicted: the cache dropped an entry to make room; Design
	// holds the evicted key.
	TemplateEvicted
	// FaultDetected: a transport fault surfaced at an operation's harvest
	// point and the retry ladder is engaging (Err is the fault).
	FaultDetected
	// RetrySucceeded: a re-delivery attempt converged; Steps is the number
	// of attempts it took.
	RetrySucceeded
	// RetriesExhausted: every allowed re-delivery attempt failed; the
	// operation rolls back and persistently bad frames are quarantined.
	RetriesExhausted
	// FrameQuarantined: a configuration frame failed readback-verify
	// persistently and was masked out of the logic space (Frame names it).
	FrameQuarantined
	// DesignEvacuated: a design resident on newly-quarantined logic space
	// was relocated to healthy space (From -> Region).
	DesignEvacuated
	// ScrubRepair: the background scrubber found a frame diverging from the
	// golden shadow content and rewrote it (Frame names it).
	ScrubRepair
	// FrameSuspect: the health tracker's error rate for a column crossed
	// the suspect threshold (Frame.Major names the column). Advisory: the
	// column stays in service.
	FrameSuspect
	// QuarantineReleased: a quarantined column passed its probes and was
	// released back into the logic space on probation (Frame.Major names
	// the column).
	QuarantineReleased
	// ProbeFailed: a test-pattern probe of a quarantined column failed
	// (Frame names the frame that failed); the release streak resets.
	ProbeFailed
	// CapacityChanged: the healthy/quarantined/probation capacity split
	// moved (a column was condemned or released); Capacity carries the
	// new census.
	CapacityChanged
)

var eventKindNames = [...]string{
	"design-loaded", "design-unloaded", "design-moved", "clb-relocated",
	"rearrange-started", "rearrange-finished", "recovered",
	"template-hit", "template-miss", "template-stored", "template-evicted",
	"fault-detected", "retry-succeeded", "retries-exhausted",
	"frame-quarantined", "design-evacuated", "scrub-repair",
	"frame-suspect", "quarantine-released", "probe-failed",
	"capacity-changed",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", k)
}

// Event is one observation from the run-time manager's event stream.
type Event struct {
	Kind   EventKind
	Design string      // design involved, when applicable
	Region fabric.Rect // design region after the event (load/unload/move)
	From   fabric.Rect // previous region (DesignMoved)
	// CLBFrom/CLBTo are the CLB coordinates of a CLBRelocated event.
	CLBFrom, CLBTo fabric.Coord
	Steps          int              // planned design moves (Rearrange*), or retry attempts
	CLBs           int              // CLBs physically relocated (RearrangeFinished)
	Frame          fabric.FrameAddr // frame involved (FrameQuarantined, ScrubRepair, health events)
	Capacity       Capacity         // capacity census (CapacityChanged)
	Err            error            // failure that triggered the event (Recovered, FaultDetected)
}

// Capacity is the logic-space capacity census a CapacityChanged event
// carries: CLBs in service and healthy, CLBs masked out by quarantine, and
// CLBs back in service on probation (counted inside HealthyCLBs too —
// probation columns take placements).
type Capacity struct {
	HealthyCLBs     int
	QuarantinedCLBs int
	ProbationCLBs   int
}

func (e Event) String() string {
	switch e.Kind {
	case DesignLoaded, DesignUnloaded:
		return fmt.Sprintf("%s %s %v", e.Kind, e.Design, e.Region)
	case DesignMoved:
		return fmt.Sprintf("%s %s %v -> %v", e.Kind, e.Design, e.From, e.Region)
	case TemplateHit, TemplateMiss, TemplateStored, TemplateEvicted:
		return fmt.Sprintf("%s %s", e.Kind, e.Design)
	case CLBRelocated:
		return fmt.Sprintf("%s %s %v -> %v", e.Kind, e.Design, e.CLBFrom, e.CLBTo)
	case RearrangeStarted:
		return fmt.Sprintf("%s steps=%d", e.Kind, e.Steps)
	case RearrangeFinished:
		return fmt.Sprintf("%s steps=%d clbs=%d", e.Kind, e.Steps, e.CLBs)
	case Recovered:
		if e.Err != nil {
			return fmt.Sprintf("%s after: %v", e.Kind, e.Err)
		}
		return e.Kind.String()
	case FaultDetected:
		return fmt.Sprintf("%s: %v", e.Kind, e.Err)
	case RetrySucceeded:
		return fmt.Sprintf("%s after %d attempt(s)", e.Kind, e.Steps)
	case RetriesExhausted:
		return fmt.Sprintf("%s after %d attempt(s): %v", e.Kind, e.Steps, e.Err)
	case FrameQuarantined, ScrubRepair:
		return fmt.Sprintf("%s F%d.%d", e.Kind, e.Frame.Major, e.Frame.Minor)
	case DesignEvacuated:
		return fmt.Sprintf("%s %s %v -> %v", e.Kind, e.Design, e.From, e.Region)
	case FrameSuspect, QuarantineReleased:
		return fmt.Sprintf("%s column F%d", e.Kind, e.Frame.Major)
	case ProbeFailed:
		return fmt.Sprintf("%s F%d.%d", e.Kind, e.Frame.Major, e.Frame.Minor)
	case CapacityChanged:
		return fmt.Sprintf("%s healthy=%d quarantined=%d probation=%d",
			e.Kind, e.Capacity.HealthyCLBs, e.Capacity.QuarantinedCLBs, e.Capacity.ProbationCLBs)
	}
	return e.Kind.String()
}

// Subscribe registers a new listener and returns its channel plus a cancel
// function. Events are delivered best-effort: when a listener's buffer is
// full the event is dropped for that listener rather than stalling a
// relocation mid-stream (the configuration port does not wait for
// observers). A buffer of 0 uses a sensible default.
func (s *System) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.subMu.Unlock()
	cancel := func() {
		s.subMu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
		s.subMu.Unlock()
	}
	return ch, cancel
}

// publish delivers an event to every subscriber without ever blocking.
func (s *System) publish(e Event) {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- e:
		default: // listener too slow: drop rather than stall the port
		}
	}
	s.subMu.Unlock()
}
