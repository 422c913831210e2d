package rlm

import (
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/template"
)

// PortKind selects the configuration interface.
type PortKind uint8

const (
	// BoundaryScan is the paper's IEEE 1149.1 port (default 20 MHz TCK).
	BoundaryScan PortKind = iota
	// SelectMAP is a byte-parallel port (default 50 MHz), for the
	// interface-comparison ablation.
	SelectMAP
)

// config collects the construction parameters; it is only reachable through
// the With* functional options.
type config struct {
	device       fabric.Preset
	port         PortKind
	clockHz      float64
	serialCommit bool // test hook: see withSerialCommit in pipeline_test.go
	portFactory  func(*bitstream.Controller) bitstream.Port
	tmplPolicy   *template.Policy
	journalPath  string
	retry        *RetryPolicy
	scrubEvery   time.Duration
	scrubBatch   int
	journalRot   int64
	health       *HealthPolicy
	compress     bool
	portWidth    int
}

// Option configures a System at construction time.
type Option func(*config)

// WithDevice selects the device preset (default fabric.XCV200).
func WithDevice(p fabric.Preset) Option {
	return func(c *config) { c.device = p }
}

// WithPort selects the configuration interface (default BoundaryScan).
func WithPort(k PortKind) Option {
	return func(c *config) { c.port = k }
}

// WithClock sets the configuration-port clock in Hz (0 = port default:
// 20 MHz TCK for Boundary-Scan, 50 MHz for SelectMAP).
func WithClock(hz float64) Option {
	return func(c *config) { c.clockHz = hz }
}

// WithTemplateCache enables the content-addressed template cache: cold
// loads capture their pre-routed, translation-invariant frame image, and a
// later Load of a netlist hashing to the same circuit and region shape
// takes the warm path (frame splicing plus boundary-net routing, zero
// interior place/route). A load starts its design from Init, so a warm load
// is exact. Moves never use the cache: every relocation is the cell-by-cell
// replica path, which keeps live state. A nil policy leaves the cache off —
// behaviour is then bit-identical to a system built without this option.
func WithTemplateCache(p *template.Policy) Option {
	return func(c *config) { c.tmplPolicy = p }
}

// WithJournal enables the durable operation journal at the given path: every
// mutating facade operation writes its intent, frame pre-images and post
// state ahead of the configuration port, so a host crash at any point can be
// reconciled against the device readback with rlm.Recover. New refuses a
// path that already holds journal history (journal.ErrExists, wrapped) —
// recover from it instead of truncating it.
func WithJournal(path string) Option {
	return func(c *config) { c.journalPath = path }
}

// WithPortModel substitutes a custom configuration port built over the
// system's controller — fault-injection harnesses wrap the stock ports this
// way (internal/faultport is the stock wrapper). A system built this way
// journals its port kind as "custom"; rlm.Recover of such a journal needs
// the factory passed again as a recover option (the journal cannot persist
// a closure) and falls back to Boundary-Scan when it is not.
func WithPortModel(factory func(*bitstream.Controller) bitstream.Port) Option {
	return func(c *config) { c.portFactory = factory }
}

// WithRetryPolicy arms the facade's fault-tolerance ladder: when an
// operation's harvest surfaces a transport fault, the frames of the
// operation are re-delivered from the host shadow up to MaxRetries times
// (with doubling backoff), escalating to readback-verify; only when every
// attempt fails does the operation roll back — and frames that failed the
// verify are quarantined, with resident designs evacuated. Without this
// option any transport fault strictly rolls the operation back (the
// pre-PR-8 behaviour).
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *config) { c.retry = &p }
}

// WithScrubber starts the background configuration-memory scrubber: every
// interval, a maintenance pass readback-compares a batch of frames against
// the golden shadow content (the same bits the journal's dirty-frame digests
// attest) and rewrites any frame that silently diverged (the SEU model),
// emitting ScrubRepair events. The scrubber yields to foreground work — a
// pass is skipped while an operation's stream is in flight — and the port
// meter charges its transport traffic to the scrub class, not the
// foreground (Stats.ScrubSeconds reports it). Stop it with System.Close.
// batchFrames bounds the frames checked per pass (0 = a default of 32).
func WithScrubber(interval time.Duration, batchFrames int) Option {
	return func(c *config) { c.scrubEvery, c.scrubBatch = interval, batchFrames }
}

// WithHealthPolicy arms the per-column health lifecycle (healthy → suspect
// → quarantined → probation → healthy): foreground faults drive an EWMA
// error rate that marks columns suspect, repeated scrub repairs of one
// frame condemn its column preemptively, the scrubber probes quarantined
// columns with test patterns and releases those that pass back into the
// logic space, and Load/Plan fail fast with ErrDegraded once healthy
// capacity falls below the policy's watermark. Without this option (or
// with the zero policy) behaviour is the legacy one: quarantine is
// permanent and admission is never gated. Like WithRetryPolicy the policy
// is not journaled — pass it again when recovering with rlm.Recover.
func WithHealthPolicy(p HealthPolicy) Option {
	return func(c *config) { c.health = &p }
}

// WithCompression switches the configuration port to compressed write
// streams: each delivered frame is diffed against its last-sent baseline and
// only the changed word runs ship (partial-frame delta packets), repeated
// identical payloads within one coalesced burst collapse into a single
// multi-frame write, and frames whose content did not change are elided
// entirely. Verification stays CRC-only on this hot path — the full
// readback-verify remains the escalation tier of WithRetryPolicy's ladder,
// and re-deliveries and scrubber repairs ship deltas too. Configuration
// memory is frame-bit-identical to uncompressed delivery (the property tests
// pin it); only the transport time and Traffic counters change. The port
// kind and compression flag are journaled, so rlm.Recover rebuilds a
// compressed system compressed.
func WithCompression() Option {
	return func(c *config) { c.compress = true }
}

// WithPortWidth sets the SelectMAP data-port width in bits: 8 (the default,
// one byte per clock), 16 or 32. A wider port moves proportionally more of
// each word per clock, modelling the parallel-port members of the family.
// Only valid together with WithPort(SelectMAP); New fails otherwise.
func WithPortWidth(bits int) Option {
	return func(c *config) { c.portWidth = bits }
}

// WithJournalRotation enables automatic journal compaction: after a commit
// seal, if the journal file exceeds limitBytes it is compacted in place
// (journal.Compact — the sealed history collapses into one Init + state
// snapshot) and appending resumes on the compacted file. Off by default:
// rotation rewrites the file, which breaks byte-offset-based external
// observers of a live journal; opt in for long-running systems.
func WithJournalRotation(limitBytes int64) Option {
	return func(c *config) { c.journalRot = limitBytes }
}
