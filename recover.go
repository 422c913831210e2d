package rlm

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/place"
)

// ErrDeviceMismatch re-exports the journal's readback-mismatch sentinel: the
// journal's state references configuration the device readback does not show
// (wrong device, or the fabric lost state while the host was down).
var ErrDeviceMismatch = journal.ErrDeviceMismatch

// RecoverReport describes what Recover did to reconcile the journal tail
// against the device.
type RecoverReport struct {
	// Action is "clean" (the journal ended on a seal), "rolled-forward"
	// (the tail's shift had fully landed: its post state was installed and
	// sealed committed) or "rolled-back" (the tail was undone frame by frame
	// from its journaled pre-images and sealed aborted).
	Action string
	// Seq is the operation sequence number the installed state corresponds
	// to (0 when nothing ever committed).
	Seq uint64
	// TailOp names the unsealed tail operation that was reconciled ("" for a
	// clean journal).
	TailOp string
	// FramesChecked counts the frames read back through the configuration
	// port for the digest comparison.
	FramesChecked int
	// FramesRestored counts the frames rewritten through the port by a
	// roll-back (0 for clean and rolled-forward recoveries).
	FramesRestored int
	// RecoverySeconds is the configuration-port transport time the
	// reconciliation itself consumed: the port meter's recovery class. It is
	// reported here and NOT kept in the recovered system's accounting: the
	// restored meter is the never-crashed twin's, which is what makes
	// recovery transparent to the paper's cost model.
	RecoverySeconds float64
	// Designs lists the designs live in the recovered system.
	Designs []string
}

// Recover rebuilds a System from a crashed host's operation journal,
// reconciling the journal tail against the device readback. dev is the live
// device the crashed system was driving (in this reproduction the simulated
// fabric outlives the host model; a crash-torture harness hands in its
// mirror of everything the port delivered).
//
// The decision table:
//
//   - journal ends on a Commit/Abort seal → install the last committed
//     state; the device already matches it.
//   - unsealed tail WITH a Post record whose dirty-frame digests all match
//     the device readback → the shift completed before the crash: roll
//     forward (install the tail's post state, seal Commit).
//   - unsealed tail otherwise → the shift was interrupted: roll back by
//     rewriting every journaled pre-image the device diverges from, install
//     the last committed state, seal Abort.
//
// Either way the journal is left sealed and the returned System journals
// onto it, so recovery is idempotent and crash-safe itself. A journal whose
// committed state references designs the device readback no longer shows
// fails with ErrDeviceMismatch (wrapped), as does a device-geometry mismatch.
//
// Options are applied over the journal's recorded configuration; the journal
// records only the port KIND, so a system built with WithPortModel must pass
// the factory again to recover onto the same port model.
//
// Recover decodes the journal while a helper goroutine builds the System,
// and joins the helper before it does anything else. A WithPortModel
// factory therefore runs on the helper, and it may run even when the journal
// then fails to decode; a panic in it is re-raised on the caller. The errors
// and their order are those of replaying the journal and then building the
// System: a journal that fails to replay wins over a bad option.
func Recover(dev *fabric.Device, journalPath string, opts ...Option) (*System, *RecoverReport, error) {
	prep, err := prepareJournal(journalPath)
	if err != nil {
		return nil, nil, err
	}
	init := prep.Init
	if init.Preset != dev.Name || init.Rows != dev.Rows || init.Cols != dev.Cols {
		if _, err := prep.Decode(); err != nil {
			return nil, nil, fmt.Errorf("rlm: replaying journal: %w", err)
		}
		return nil, nil, fmt.Errorf("%w: journal for %s %dx%d, device is %s %dx%d",
			ErrDeviceMismatch, init.Preset, init.Rows, init.Cols, dev.Name, dev.Rows, dev.Cols)
	}
	cfg := configFromInit(init)
	for _, o := range opts {
		o(&cfg)
	}
	// Construction and decoding share no data: build on a helper while this
	// goroutine decodes, and join it on every path.
	done := make(chan built, 1)
	go buildSystem(&cfg, dev, done)
	rs, err := prep.Decode()
	b := <-done
	if b.panicked != nil {
		panic(b.panicked)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("rlm: replaying journal: %w", err)
	}
	if b.err != nil {
		return nil, nil, b.err
	}
	s := b.sys
	j, err := journal.OpenAppend(journalPath, rs.ValidLen)
	if err != nil {
		return nil, nil, fmt.Errorf("rlm: reopening journal: %w", err)
	}
	rep := &RecoverReport{Action: "clean"}
	target := rs.State
	if rs.Tail != nil {
		rep.TailOp = rs.Tail.Begin.Op
		err = s.charge(bitstream.Recovery, func() (err error) {
			forward := false
			if rs.Tail.Post != nil {
				if forward, err = s.digestsMatch(rs.Tail.Post.Dirty, rep); err != nil {
					return err
				}
			}
			if forward {
				rep.Action = "rolled-forward"
				target = rs.Tail.Post.State
				return sealTail(j, journal.RecCommit, rs.Tail.Begin.Seq)
			}
			rep.Action = "rolled-back"
			if err = s.applyUndo(rs.Tail.Undo, rep); err != nil {
				return err
			}
			return sealTail(j, journal.RecAbort, rs.Tail.Begin.Seq)
		})
		if err != nil {
			j.Close()
			return nil, nil, err
		}
	}
	if err := s.installState(&target); err != nil {
		j.Close()
		return nil, nil, err
	}
	rep.Seq = target.Seq
	for _, ds := range target.Designs {
		rep.Designs = append(rep.Designs, ds.Name)
	}
	// Read the reconciliation's own transport cost before the restored meter
	// overwrites it. With nothing ever committed there is nothing to
	// restore: the fresh port's construction traffic is the never-crashed
	// twin's too, and the reconciliation never left the recovery class.
	rep.RecoverySeconds = s.port.Meter().Seconds(bitstream.Recovery)
	if target.Seq > 0 {
		s.engine.RestoreAccounting(target.Stats, target.LastTick)
		s.port.Meter().Restore(target.Port)
	}
	s.attachJournal(j, rs.LastSeq)
	s.jrnl.path = journalPath
	s.jrnl.rotate = cfg.journalRot
	s.startScrubber(cfg.scrubEvery, cfg.scrubBatch)
	return s, rep, nil
}

// prepareJournal scans the journal and runs Replay's grammar pass. The
// scanned image is garbage once it returns: Recover then allocates a whole
// System while it decodes, and must not keep the image live meanwhile.
func prepareJournal(path string) (*journal.Prepared, error) {
	log, err := journal.Scan(path)
	if err != nil {
		return nil, fmt.Errorf("rlm: scanning journal: %w", err)
	}
	p, err := journal.Prepare(log)
	if err != nil {
		return nil, fmt.Errorf("rlm: replaying journal: %w", err)
	}
	return p, nil
}

// built is newSystem's outcome on Recover's helper goroutine, including a
// panic (a WithPortModel factory runs there), which Recover re-raises.
type built struct {
	sys      *System
	err      error
	panicked any
}

// buildSystem runs newSystem and sends its outcome on done.
func buildSystem(cfg *config, dev *fabric.Device, done chan<- built) {
	var b built
	defer func() {
		b.panicked = recover()
		done <- b
	}()
	b.sys, b.err = newSystem(cfg, dev)
}

// configFromInit rebuilds the construction parameters the journal recorded.
func configFromInit(init journal.Init) config {
	var cfg config
	switch init.Port {
	case "selectmap":
		cfg.port = SelectMAP
	default:
		// "custom" without a re-supplied factory falls back to the default
		// Boundary-Scan port: recovery must not fail on a missing closure,
		// and the accounting is restored from the journal regardless.
		cfg.port = BoundaryScan
	}
	cfg.clockHz = init.ClockHz
	cfg.compress = init.Compress
	cfg.portWidth = init.PortWidth
	return cfg
}

// digestsMatch compares the tail's dirty-frame digests against device
// readback through the configuration port.
func (s *System) digestsMatch(dirty []journal.FrameDigest, rep *RecoverReport) (bool, error) {
	for _, d := range dirty {
		data, err := s.port.ReadFrame(d.Addr)
		if err != nil {
			return false, fmt.Errorf("%w: reading frame %v: %v", ErrDeviceMismatch, d.Addr, err)
		}
		rep.FramesChecked++
		if crcFrame(data) != d.CRC {
			return false, nil
		}
	}
	return true, nil
}

// applyUndo rewrites every journaled pre-image the device diverges from,
// first record per frame wins (the writer dedups, so this is belt and
// braces).
func (s *System) applyUndo(undo []journal.Undo, rep *RecoverReport) error {
	done := make(map[fabric.FrameAddr]bool, len(undo))
	for _, u := range undo {
		if done[u.Addr] {
			continue
		}
		done[u.Addr] = true
		cur, err := s.port.ReadFrame(u.Addr)
		if err != nil {
			return fmt.Errorf("%w: reading frame %v: %v", ErrDeviceMismatch, u.Addr, err)
		}
		rep.FramesChecked++
		if frameWordsEqual(cur, u.Words) {
			continue
		}
		// The diverged readback is the restore's delta baseline: a compressed
		// port ships only the runs the interrupted shift actually changed.
		if err := s.port.WriteUpdates([]bitstream.FrameUpdate{{Addr: u.Addr, Data: u.Words, Prev: cur}}); err != nil {
			return fmt.Errorf("rlm: restoring frame %v: %w", u.Addr, err)
		}
		rep.FramesRestored++
	}
	return nil
}

func frameWordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sealTail appends and syncs the reconciliation seal.
func sealTail(j *journal.Journal, t journal.RecType, seq uint64) error {
	if err := j.Append(t, journal.Seal{Seq: seq}); err != nil {
		return fmt.Errorf("rlm: sealing recovered tail: %w", err)
	}
	if err := j.Sync(); err != nil {
		return fmt.Errorf("rlm: sealing recovered tail: %w", err)
	}
	return nil
}

// installState rebuilds the host book-keeping from a journaled state and
// validates it against the (already reconciled) device: every design the
// state claims must still show its cells in the readback. A recovered
// design's Nets stay empty: its routing is in configuration memory, where
// the occupancy view reads it.
func (s *System) installState(st *journal.State) error {
	for _, ds := range st.Designs {
		nl, err := netlist.FromNodes(ds.Name, ds.Nodes)
		if err != nil {
			return fmt.Errorf("%w: design %q: %v", journal.ErrMalformed, ds.Name, err)
		}
		for id, ref := range ds.CellOf {
			if !ds.Region.Contains(ref.Coord) {
				return fmt.Errorf("%w: design %q cell %v outside region %v",
					journal.ErrMalformed, ds.Name, ref, ds.Region)
			}
			if !s.dev.ReadCell(ref).InUse() {
				return fmt.Errorf("%w: design %q node %d expects cell %v, readback shows it empty",
					ErrDeviceMismatch, ds.Name, id, ref)
			}
		}
		d := &place.Design{
			Name:     ds.Name,
			Dev:      s.dev,
			NL:       nl,
			Region:   ds.Region,
			CellOf:   ds.CellOf,
			PadOf:    ds.PadOf,
			SourceOf: ds.SourceOf,
		}
		if d.CellOf == nil {
			d.CellOf = map[netlist.ID]fabric.CellRef{}
		}
		if d.PadOf == nil {
			d.PadOf = map[netlist.ID]fabric.PadRef{}
		}
		if d.SourceOf == nil {
			d.SourceOf = map[netlist.ID]fabric.NodeID{}
		}
		s.designs[ds.Name] = d
		s.regions[ds.Name] = ds.Alloc
	}
	// A zero-valued state (nothing ever committed) leaves the fresh area
	// manager alone; NextAlloc is 1 from the first commit on.
	if st.NextAlloc > 0 {
		allocs := make([]area.Alloc, 0, len(st.Allocs))
		for _, a := range st.Allocs {
			allocs = append(allocs, area.Alloc{ID: a.ID, Rect: a.Rect})
		}
		if err := s.area.Restore(allocs, st.NextAlloc); err != nil {
			return fmt.Errorf("%w: %v", journal.ErrMalformed, err)
		}
	}
	// Restore the health ledger — the frame tool's delivery mask reads it —
	// and re-apply the area mask of its quarantined CLB columns before
	// anything else delivers frames. The journaled Stats already count the
	// quarantine.
	if len(st.Health) > 0 {
		cols := make([]health.Column, 0, len(st.Health))
		for _, h := range st.Health {
			cols = append(cols, health.Column{
				Major:       h.Major,
				State:       health.State(h.State),
				Rate:        h.Rate,
				CleanProbes: h.CleanProbes,
				CleanChecks: h.CleanChecks,
				Probes:      h.Probes,
				ProbeFails:  h.ProbeFails,
				Repairs:     h.Repairs,
			})
		}
		s.health.Restore(cols)
	}
	for _, major := range s.health.QuarantinedMajors() {
		if col, ok := s.dev.ColumnByMajor(major); ok && col.Kind == fabric.ColCLB {
			s.area.Quarantine(fabric.Rect{Row: 0, Col: col.ArrayCol, H: s.dev.Rows, W: 1})
		}
	}
	// Capture the reconciled device into the tool's shadow (the paper's
	// complete configuration copy).
	return s.engine.Tool.Sync()
}
