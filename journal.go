package rlm

import (
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/netlist"
)

// sysJournal is the facade's write-ahead journal state. Each mutating facade
// operation journals Begin (intent) right after its checkpoint arms, Undo
// records (frame pre-images from the frame tool's armed checkpoint) before
// every flush delivers frames through the port, Post (the host
// book-keeping of journalStateLocked plus dirty-frame digests) once the
// operation's stream has fully shifted out, and a Commit or Abort seal.
// Recovery (rlm.Recover) reconciles an unsealed tail against device
// readback; a design's routing is read from configuration memory, never
// from the journal.
type sysJournal struct {
	j      *journal.Journal
	seq    uint64
	active bool
	op     string
	// seen dedups undo records per operation: one pre-image per frame, the
	// first one journaled (which is the checkpoint-epoch content — retries
	// inside one op re-dirty frames without changing their epoch image).
	// Made at the first Begin, and cleared at every later one.
	seen map[fabric.FrameAddr]bool
	// path/rotate drive opt-in journal rotation (WithJournalRotation): after
	// a commit seal, a file past rotate bytes is compacted in place. path is
	// empty when the journal was attached without a known file path.
	path   string
	rotate int64
}

// sysBarrier adapts the System to the frame tool's flush-ordering barrier.
type sysBarrier struct{ s *System }

// PreDeliver journals the pre-image of every not-yet-covered frame of the
// delivery and forces the records to stable storage — the write-ahead
// contract: by the time the port can have changed the device, the journal
// can undo it. The pre-images come from the frame tool's armed checkpoint.
func (b sysBarrier) PreDeliver(addrs []fabric.FrameAddr) error {
	s := b.s
	js := s.jrnl
	if js == nil || !js.active {
		return nil
	}
	wrote := false
	for _, addr := range addrs {
		if js.seen[addr] {
			continue
		}
		pre, ok := s.engine.Tool.Preimage(addr)
		if !ok {
			// The frame was not written since the checkpoint armed;
			// nothing to undo.
			continue
		}
		js.seen[addr] = true
		if err := js.j.Append(journal.RecUndo, journal.Undo{Seq: js.seq, Addr: addr, Words: pre}); err != nil {
			return err
		}
		wrote = true
	}
	if wrote {
		if err := js.j.Sync(); err != nil {
			return err
		}
		s.crash("undo")
	}
	return nil
}

// Delivered mirrors the delivered configuration out to the crash-torture
// hook (the harness maintains a "what the fabric holds" device from exactly
// these notifications).
func (b sysBarrier) Delivered(updates []bitstream.FrameUpdate) {
	s := b.s
	if s.onDelivered != nil {
		s.onDelivered(updates)
	}
	s.crash("delivered")
}

// crash invokes the crash-simulation hook (tests only; nil in production).
func (s *System) crash(stage string) {
	if s.crashHook != nil {
		s.crashHook(stage)
	}
}

// attachJournalLocked wires an open journal into the system: barrier on the
// frame tool, recovery notifications on.
func (s *System) attachJournal(j *journal.Journal, seq uint64) {
	s.jrnl = &sysJournal{j: j, seq: seq}
	s.engine.Tool.SetBarrier(sysBarrier{s})
}

// journalInit appends the opening record of a fresh journal.
func (s *System) journalInit(cfg *config) error {
	portKind := "jtag"
	switch {
	case cfg.portFactory != nil:
		portKind = "custom"
	case cfg.port == SelectMAP:
		portKind = "selectmap"
	}
	init := journal.Init{
		Preset:    s.dev.Name,
		Rows:      s.dev.Rows,
		Cols:      s.dev.Cols,
		Port:      portKind,
		ClockHz:   cfg.clockHz,
		Compress:  cfg.compress,
		PortWidth: cfg.portWidth,
	}
	if err := s.jrnl.j.Append(journal.RecInit, init); err != nil {
		return err
	}
	return s.jrnl.j.Sync()
}

// journalBeginLocked opens one journaled operation over the armed
// checkpoint. Returns nil (no-op) on an unjournaled system. An error means
// the intent could not be made durable; the caller must fail the operation
// before any physical work.
func (s *System) journalBeginLocked(op, design string, region fabric.Rect, detail string) error {
	js := s.jrnl
	if js == nil {
		return nil
	}
	js.seq++
	js.active = true
	js.op = op
	if js.seen == nil {
		js.seen = map[fabric.FrameAddr]bool{}
	}
	clear(js.seen)
	err := js.j.Append(journal.RecBegin, journal.Begin{
		Seq: js.seq, Op: op, Design: design, Region: region, Detail: detail,
	})
	if err == nil {
		err = js.j.Sync()
	}
	if err != nil {
		js.active = false
		return fmt.Errorf("rlm: journaling %s: %w", op, err)
	}
	s.crash("begin")
	return nil
}

// journalCommitLocked seals the active operation as committed: any straggler
// frames flush (their undo records journal through the barrier), the stream
// drains, then the post-operation state and the dirty-frame digests land,
// then the commit seal. An error leaves the operation unsealed; the
// caller rolls back physically and seals with journalAbortLocked, keeping
// journal and fabric in agreement.
func (s *System) journalCommitLocked() error {
	js := s.jrnl
	if js == nil || !js.active {
		return nil
	}
	if err := s.engine.Tool.Flush(); err != nil {
		return err
	}
	if err := s.engine.Tool.AwaitStream(); err != nil {
		return err
	}
	state := s.journalStateLocked()
	state.Seq = js.seq
	dirty := s.engine.Tool.DirtyFrames()
	digests := make([]journal.FrameDigest, 0, len(dirty))
	for _, addr := range dirty {
		if s.masked(addr.Major) {
			// Condemned memory reads back garbage; a digest over it could
			// never match and would force recovery into a spurious roll-back.
			continue
		}
		data, ok := s.engine.Tool.Shadow().Frame(addr)
		if !ok {
			return fmt.Errorf("rlm: journal digest: frame %v missing from shadow", addr)
		}
		digests = append(digests, journal.FrameDigest{Addr: addr, CRC: crcFrame(data)})
	}
	err := js.j.Append(journal.RecPost, journal.Post{Seq: js.seq, State: state, Dirty: digests})
	if err == nil {
		err = js.j.Sync()
	}
	if err != nil {
		return fmt.Errorf("rlm: journaling post state: %w", err)
	}
	s.crash("post")
	err = js.j.Append(journal.RecCommit, journal.Seal{Seq: js.seq})
	if err == nil {
		err = js.j.Sync()
	}
	if err != nil {
		return fmt.Errorf("rlm: sealing commit: %w", err)
	}
	js.active = false
	s.crash("commit")
	s.maybeRotateLocked()
	return nil
}

// maybeRotateLocked compacts the journal file in place once it has grown
// past the opt-in rotation threshold. It runs only on a freshly sealed
// commit — never with an open tail, so the file Compact sees is sealed by
// construction. Best-effort: a failed compaction keeps appending to the
// original file; a failed reopen leaves the journal closed, so the next
// journaled operation fails with a typed error instead of losing records
// silently.
func (s *System) maybeRotateLocked() {
	js := s.jrnl
	if js == nil || js.rotate <= 0 || js.path == "" || js.j.Offset() < js.rotate {
		return
	}
	validLen := js.j.Offset()
	js.j.Close()
	if n, err := journal.Compact(js.path); err == nil {
		validLen = n
	}
	if j, err := journal.OpenAppend(js.path, validLen); err == nil {
		js.j = j
	}
}

// journalAbortLocked seals the active operation as rolled back (the physical
// rollback has already run). Best-effort: a failing abort append leaves the
// tail unsealed, which recovery resolves to the same roll-back outcome.
func (s *System) journalAbortLocked() {
	js := s.jrnl
	if js == nil || !js.active {
		return
	}
	if err := js.j.Append(journal.RecAbort, journal.Seal{Seq: js.seq}); err == nil {
		_ = js.j.Sync()
	}
	js.active = false
	s.crash("abort")
}

func crcFrame(words []uint32) uint32 {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	return crc32.ChecksumIEEE(buf)
}

// journalStateLocked serialises the host book-keeping a Post carries: each
// resident design's netlist and placement tables, the area allocations, the
// health ledger and the accounting counters. Routing is left out, since
// configuration memory records it, and so are pad reservations, which are
// the designs' PadOf tables. The host timing counters are journaled as zero:
// PlanSeconds is wall-clock time and OverlappedOps/SerialFallbacks depend on
// how far the shift-out got, so a recovered host restarts them at zero, like
// any restarted process, and the journal repeats byte for byte at a fixed
// input.
func (s *System) journalStateLocked() journal.State {
	st := journal.State{
		Stats:    s.engine.Stats,
		LastTick: s.engine.LastTick(),
	}
	st.Stats.FramesWritten = s.engine.Tool.FramesWritten()
	st.Stats.PlanSeconds, st.Stats.OverlappedOps, st.Stats.SerialFallbacks = 0, 0, 0
	st.Port = s.port.Meter().Usages()
	names := make([]string, 0, len(s.designs))
	for name := range s.designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := s.designs[name]
		ds := journal.DesignState{
			Name:     name,
			Region:   d.Region,
			Alloc:    s.regions[name],
			Nodes:    append([]netlist.Node(nil), d.NL.Nodes...),
			CellOf:   d.CellOf,
			PadOf:    d.PadOf,
			SourceOf: d.SourceOf,
		}
		st.Designs = append(st.Designs, ds)
	}
	st.Allocs = make([]journal.Alloc, 0)
	allocs, next := s.area.Export()
	for _, a := range allocs {
		st.Allocs = append(st.Allocs, journal.Alloc{ID: a.ID, Rect: a.Rect})
	}
	st.NextAlloc = next
	for _, c := range s.health.Columns() {
		st.Health = append(st.Health, journal.ColumnHealth{
			Major:       c.Major,
			State:       uint8(c.State),
			Rate:        c.Rate,
			CleanProbes: c.CleanProbes,
			CleanChecks: c.CleanChecks,
			Probes:      c.Probes,
			ProbeFails:  c.ProbeFails,
			Repairs:     c.Repairs,
		})
	}
	return st
}
