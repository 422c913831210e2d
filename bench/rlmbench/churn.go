package main

import (
	"fmt"
	"os"
	"slices"

	rlm "repro"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/itc99"
	"repro/internal/journal"
	"repro/internal/netlist"
)

// churnRoundsPerUnit is one transient-trip period: the trip is armed on
// the first round of every unit.
const churnRoundsPerUnit = 5

// churn drives the facade calls of taskStream the way a long-running
// journaled system uses them: an XCV50 with the operation journal, the
// retry ladder (three attempts, verify from the second, no backoff),
// compressed streams and a fault-injecting SelectMAP-32 port. Three small
// gated-clock designs are moved between two slots each every round, in an
// order the seed draws; one is unloaded and loaded again; one silent SEU at
// a seeded frame, word and bit is flipped before the ops and a full scrub
// sweep runs after them; the first round of each unit arms a transient
// stream fault. This puts fsync'd journal writes beside scrub
// readback, the retry ladder, compensated maintenance traffic and delta
// encoding.
type churn struct {
	c    *config
	sys  *rlm.System
	fp   *faultport.Port
	path string
	ev   eventCounter

	nls        []*netlist.Netlist
	home, away []fabric.Rect
	frames     []fabric.FrameAddr
	rng        *rng // the seeded SEU targets and move order
	round      int
	trips      int
	// Fault counters at the end of set-up, so the audit compares the
	// measured units alone.
	detected0, faults0 int
}

func newChurn(c *config) bench { return &churn{c: c} }

func (w *churn) setup() error {
	var err error
	if w.path, err = scratchFile(w.c.dir, "churn-*.journal"); err != nil {
		return err
	}
	w.sys, err = rlm.New(
		rlm.WithDevice(fabric.XCV50),
		rlm.WithJournal(w.path),
		rlm.WithRetryPolicy(rlm.RetryPolicy{MaxRetries: 3, VerifyAfter: 2}),
		rlm.WithCompression(),
		rlm.WithPortModel(func(ctrl *bitstream.Controller) bitstream.Port {
			pp := bitstream.NewParallelPort(ctrl, 50e6)
			pp.WidthBits = 32
			w.fp = faultport.New(pp, w.c.seed)
			return w.fp
		}),
	)
	if err != nil {
		return err
	}
	w.ev = subscribe(w.sys)
	w.frames = frameAddrs(w.sys.Device())
	w.rng = newRNG(w.c.seed)
	for i := 0; i < 3; i++ {
		w.home = append(w.home, fabric.Rect{Row: 2 + 5*i, Col: 4, H: 3, W: 3})
		w.away = append(w.away, fabric.Rect{Row: 2 + 5*i, Col: 15, H: 3, W: 3})
		w.nls = append(w.nls, itc99.Generate(itc99.GenConfig{
			Name: fmt.Sprintf("c%d", i), Inputs: 2, Outputs: 2, FFs: 4, LUTs: 8,
			Seed: uint64(200 + i), Style: itc99.GatedClock, CEFraction: 0.75,
		}))
		if _, err := w.sys.Load(w.nls[i], w.home[i]); err != nil {
			return fmt.Errorf("loading %s: %w", w.nls[i].Name, err)
		}
	}
	w.detected0, w.faults0 = w.sys.Stats().FaultsDetected, w.fp.Faults()
	return nil
}

func (w *churn) unit(r *recorder, _ int) error {
	for k := 0; k < churnRoundsPerUnit; k++ {
		op := int64(w.round + 1)
		w.fp.FlipBit(w.frames[w.rng.intn(len(w.frames))], w.rng.intn(w.sys.Device().FrameWords()), w.rng.intn(32))
		if k == 0 {
			w.fp.TripAfter(3)
			w.trips++
		}
		for _, i := range w.rng.perm(len(w.nls)) {
			nl := w.nls[i]
			to := w.home[i]
			if at, _ := w.sys.Region(nl.Name); at == to {
				to = w.away[i]
			}
			_ = r.call("rlm.Move", op, func() error { return w.sys.Move(nl.Name, to) })
		}
		nl := w.nls[w.round%len(w.nls)]
		at, _ := w.sys.Region(nl.Name)
		if r.call("rlm.Unload", op, func() error { return w.sys.Unload(nl.Name) }) == nil {
			_ = r.call("rlm.Load", op, func() error {
				_, err := w.sys.Load(nl, at)
				return err
			})
		}
		_ = r.call("rlm.Scrub", op, func() error {
			_, err := w.sys.Scrub(0)
			return err
		})
		w.round++
	}
	w.ev.count() // keep the subscriber's buffer from filling
	return nil
}

func (w *churn) finish(r *recorder) error { return r.drain(w.sys.Engine().Tool.AwaitStream) }

// audit: no call failed, every injected fault was detected, a back-to-back
// second scrub sweep finds nothing left to repair, and the journal replays
// to exactly the resident designs.
func (w *churn) audit(r *recorder) error {
	if r.failed > 0 {
		return fmt.Errorf("%d calls failed", r.failed)
	}
	detected, injected := w.sys.Stats().FaultsDetected-w.detected0, w.fp.Faults()-w.faults0
	if detected != injected || injected != w.trips {
		return fmt.Errorf("%d faults detected, %d injected, %d trips armed", detected, injected, w.trips)
	}
	for pass := 1; pass <= 2; pass++ {
		rep, err := w.sys.Scrub(0)
		if err != nil {
			return fmt.Errorf("audit scrub: %w", err)
		}
		if pass == 2 && (rep.Skipped || len(rep.Repairs) > 0) {
			return fmt.Errorf("second scrub sweep: skipped=%v, %d repairs", rep.Skipped, len(rep.Repairs))
		}
	}
	log, err := journal.Scan(w.path)
	if err != nil {
		return err
	}
	rs, err := journal.Replay(log)
	if err != nil {
		return err
	}
	var names []string
	for _, d := range rs.State.Designs {
		names = append(names, d.Name)
	}
	slices.Sort(names)
	if rs.Tail != nil || !slices.Equal(names, w.sys.Designs()) {
		return fmt.Errorf("journal replays to %v (open tail: %v), System holds %v", names, rs.Tail != nil, w.sys.Designs())
	}
	return nil
}

func (w *churn) counters() counters {
	c := counters{st: w.sys.Stats(), traffic: w.sys.Traffic(), faults: w.fp.Faults(), events: w.ev.count()}
	c.portSim, c.cycles, c.bursts = w.fp.Elapsed(), w.fp.Cycles(), w.fp.CompletedBursts()
	if st, err := os.Stat(w.path); err == nil {
		c.journalBytes = st.Size()
	}
	if log, err := journal.Scan(w.path); err == nil {
		c.journalRecords = len(log.Records)
	}
	return c
}

// inputs is the first round's SEU target and move order.
func (w *churn) inputs() string {
	r := newRNG(w.c.seed)
	return fmt.Sprint(r.intn(len(w.frames)), r.intn(w.sys.Device().FrameWords()), r.intn(32), r.perm(len(w.nls)))
}

func (w *churn) close() {
	if w.sys != nil {
		w.ev.cancel()
		_ = w.sys.Close()
	}
}

// eventCounter counts the events a System publishes, drained without a
// goroutine between units.
type eventCounter struct {
	ch     <-chan rlm.Event
	cancel func()
	n      int
}

func subscribe(sys *rlm.System) eventCounter {
	ch, cancel := sys.Subscribe(1 << 14)
	return eventCounter{ch: ch, cancel: cancel}
}

func (e *eventCounter) count() int {
	for {
		select {
		case <-e.ch:
			e.n++
		default:
			return e.n
		}
	}
}

// scratchFile creates an empty file in dir for a journal and returns its
// path.
func scratchFile(dir, pattern string) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	return f.Name(), f.Close()
}

// frameAddrs lists a device's configuration frames in address order.
func frameAddrs(dev *fabric.Device) []fabric.FrameAddr {
	var out []fabric.FrameAddr
	for major := 0; major < dev.NumMajors(); major++ {
		col, ok := dev.ColumnByMajor(major)
		if !ok {
			continue
		}
		for minor := 0; minor < col.Frames; minor++ {
			out = append(out, fabric.FrameAddr{Major: major, Minor: minor})
		}
	}
	return out
}
