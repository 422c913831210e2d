package main

import (
	"fmt"
	"os"
	"slices"

	rlm "repro"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/journal"
)

// journalRecordHeader is internal/journal's record framing: a type byte,
// the uint32 payload length and the uint32 CRC. Set-up checks the cut it
// makes with it by scanning the result.
const journalRecordHeader = 9

// crash measures host restart latency. Set-up builds a journaled XCV50
// history — four fixed designs loaded, sixteen moves, Close — and cuts the
// final commit seal off the journal, so its tail is an unsealed move with
// its post state: the crash-at-post case, which rolls forward after
// reading back every dirty frame. Each unit writes that image to a fresh
// file and clones the device's frames (untimed), then times rlm.Recover.
type crash struct {
	c *config

	image   []byte             // the journal with its last commit seal cut
	addrs   []fabric.FrameAddr // non-zero frames of the crashed device
	frames  [][]uint32
	designs []string // resident before the crash
	path    string   // the file each recovery reads and seals
	plan    []int    // the move order

	recovers, framesChecked int
	recoverySim             float64
	auditErr                error
}

func newCrash(c *config) bench { return &crash{c: c} }

func (w *crash) setup() error {
	hist, err := scratchFile(w.c.dir, "history-*.journal")
	if err != nil {
		return err
	}
	defer os.Remove(hist)
	sys, err := rlm.New(rlm.WithDevice(fabric.XCV50), rlm.WithJournal(hist))
	if err != nil {
		return err
	}
	// Eight 3x3 slots on two rows; design i moves between slots i and i+4.
	slot := func(i int) fabric.Rect { return fabric.Rect{Row: 2 + 7*(i/4), Col: 3 + 5*(i%4), H: 3, W: 3} }
	names := make([]string, 4)
	for i := range names {
		style := itc99.GatedClock
		if i%2 == 1 {
			style = itc99.FreeRunning
		}
		nl := itc99.Generate(itc99.GenConfig{
			Name: fmt.Sprintf("d%d", i), Inputs: 2, Outputs: 2, FFs: 5, LUTs: 10,
			Seed: uint64(100 + i), Style: style, CEFraction: 0.75,
		})
		names[i] = nl.Name
		if _, err := sys.Load(nl, slot(i)); err != nil {
			return fmt.Errorf("loading %s: %w", nl.Name, err)
		}
	}
	// Four passes move every design once each: the first three in an order
	// the seed draws, the last in a fixed order, so the cut tail — and the
	// frames recovery reads back — is the same move for every seed.
	away := make([]bool, 4)
	passes := 4
	if w.c.tiny {
		passes = 2
	}
	rng := newRNG(w.c.seed)
	for pass := 0; pass < passes; pass++ {
		order := []int{0, 1, 2, 3}
		if pass < passes-1 {
			order = rng.perm(4)
		}
		for _, i := range order {
			w.plan = append(w.plan, i)
			to := slot(i + 4)
			if away[i] {
				to = slot(i)
			}
			if err := sys.Move(names[i], to); err != nil {
				return fmt.Errorf("moving %s: %w", names[i], err)
			}
			away[i] = !away[i]
		}
	}
	if err := sys.Close(); err != nil {
		return err
	}
	w.designs = sys.Designs()

	img, err := os.ReadFile(hist)
	if err != nil {
		return err
	}
	log, err := journal.ScanBytes(img)
	if err != nil {
		return err
	}
	last := log.Records[len(log.Records)-1]
	if last.Type != journal.RecCommit {
		return fmt.Errorf("history ends on a %v record, want commit", last.Type)
	}
	w.image = img[:len(img)-journalRecordHeader-len(last.Payload)]
	cut, err := journal.ScanBytes(w.image)
	if err != nil {
		return fmt.Errorf("scanning the cut journal: %w", err)
	}
	if cut.Torn || len(cut.Records) != len(log.Records)-1 {
		return fmt.Errorf("cut journal holds %d records (torn %v), want %d", len(cut.Records), cut.Torn, len(log.Records)-1)
	}
	rs, err := journal.Replay(cut)
	if err != nil {
		return err
	}
	if rs.Tail == nil || rs.Tail.Post == nil {
		return fmt.Errorf("cut journal has no unsealed post-state tail")
	}

	dev := sys.Device()
	for _, a := range frameAddrs(dev) {
		data, err := dev.ReadFrame(a.Major, a.Minor)
		if err != nil {
			return err
		}
		if slices.ContainsFunc(data, func(x uint32) bool { return x != 0 }) {
			w.addrs, w.frames = append(w.addrs, a), append(w.frames, data)
		}
	}
	w.path, err = scratchFile(w.c.dir, "crash-*.journal")
	return err
}

func (w *crash) unit(r *recorder, i int) error {
	if err := os.Remove(w.path); err != nil {
		return err
	}
	if err := os.WriteFile(w.path, w.image, 0o644); err != nil {
		return err
	}
	dev := fabric.NewDevice(fabric.XCV50)
	for k, a := range w.addrs {
		if err := dev.WriteFrame(a.Major, a.Minor, w.frames[k]); err != nil {
			return err
		}
	}
	var sys *rlm.System
	var rep *rlm.RecoverReport
	err := r.call("rlm.Recover", int64(i+1), func() (err error) {
		sys, rep, err = rlm.Recover(dev, w.path)
		return err
	})
	if err != nil {
		w.fail(err)
		return nil
	}
	defer sys.Close()
	w.recovers++
	w.framesChecked += rep.FramesChecked
	w.recoverySim += rep.RecoverySeconds
	got := slices.Sorted(slices.Values(rep.Designs))
	if rep.Action != "rolled-forward" || !slices.Equal(got, w.designs) {
		r.failed++
		w.fail(fmt.Errorf("recovery %d: %s with %v, want rolled-forward with %v", i, rep.Action, got, w.designs))
	}
	return nil
}

func (w *crash) fail(err error) {
	if w.auditErr == nil {
		w.auditErr = err
	}
}

func (w *crash) finish(*recorder) error { return nil }

func (w *crash) audit(r *recorder) error {
	if w.auditErr != nil {
		return w.auditErr
	}
	if w.recovers == 0 || r.failed > 0 {
		return fmt.Errorf("%d recoveries, %d failed", w.recovers, r.failed)
	}
	return nil
}

func (w *crash) counters() counters {
	return counters{
		recovers:      w.recovers,
		framesChecked: w.framesChecked,
		portSim:       w.recoverySim,
		imageBytes:    len(w.image),
	}
}

func (w *crash) inputs() string { return fmt.Sprint(w.plan) }

func (w *crash) close() {}
