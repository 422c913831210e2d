package rlm

import "errors"

// Sentinel errors returned by the run-time manager. Every error that leaves
// the public API wraps one of these, so callers dispatch with errors.Is
// instead of matching strings.
var (
	// ErrNoSpace: no contiguous region satisfies the request, even after
	// the configured rearrangement policy was consulted.
	ErrNoSpace = errors.New("rlm: no region available")
	// ErrUnknownDesign: the named design is not resident.
	ErrUnknownDesign = errors.New("rlm: unknown design")
	// ErrDuplicateDesign: a design with that name is already resident.
	ErrDuplicateDesign = errors.New("rlm: design already loaded")
	// ErrRegionMismatch: the target rectangle's shape differs from the
	// design's current region (relocation preserves shape).
	ErrRegionMismatch = errors.New("rlm: target region does not match design shape")
	// ErrRegionBusy: the requested rectangle overlaps another allocation
	// (or, for staged moves, an intermediate hop does).
	ErrRegionBusy = errors.New("rlm: target region is not free")
	// ErrPlanInvalid: a transaction failed dry-run validation before any
	// frame was streamed; the system is untouched.
	ErrPlanInvalid = errors.New("rlm: plan fails dry-run validation")
	// ErrRetriesExhausted: a transport fault survived every re-delivery
	// attempt the retry policy allows; the operation rolled back and any
	// frames that failed readback-verify were quarantined.
	ErrRetriesExhausted = errors.New("rlm: delivery retries exhausted")
	// ErrQuarantined: the requested rectangle overlaps logic space that was
	// masked out after persistent configuration-frame failures.
	ErrQuarantined = errors.New("rlm: target region overlaps quarantined logic space")
	// ErrDegraded: healthy logic capacity is below the health policy's
	// admission watermark; Load and Plan fail fast instead of thrashing
	// placement retries on a mostly-condemned device.
	ErrDegraded = errors.New("rlm: healthy capacity below admission watermark")
)
