package main

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/jtag"
	"repro/internal/place"
	"repro/internal/relocate"
	"repro/internal/sim"
)

// tab2 is the paper's Tab. 2 experiment at the relocation engine: the
// gated-clock ITC'99 b03 circuit is placed once on an XCV200, then every
// occupied CLB is relocated over Boundary-Scan at 20 MHz to a far slot grid
// and back, one unit being one round trip. No placement, journal,
// checkpoint or facade work runs in the timed loop, so router and
// relocation-planning changes show here first.
type tab2 struct {
	c    *config
	dev  *fabric.Device
	port *jtag.Port
	eng  *relocate.Engine
	d    *place.Design

	region fabric.Rect
	home   []fabric.Coord
	cells  map[fabric.CellRef]fabric.CellConfig // home cells before the run
	rng    *rng
	rounds int
}

// tab2Offsets is the number of slot-grid offsets the units cycle through:
// every other row and column below the design, shifted by 0 to 2 rows and
// 0 to 2 columns.
const tab2Offsets = 9

func newTab2(c *config) bench { return &tab2{c: c} }

func (w *tab2) setup() error {
	w.dev = fabric.NewDevice(fabric.XCV200)
	nl, err := itc99.Get("b03")
	if err != nil {
		return err
	}
	region, err := place.AutoRegion(w.dev, nl, 4, 4, 0.35)
	if err != nil {
		return err
	}
	if w.d, err = place.Place(w.dev, nl, place.Options{Region: region}); err != nil {
		return err
	}
	w.port = jtag.NewPort(bitstream.NewController(w.dev), jtag.DefaultTCKHz)
	if w.eng, err = relocate.NewEngine(w.dev, w.port); err != nil {
		return err
	}
	w.eng.MaxCyclesPerWait = 0 // no simulation load: host time is the engine's own

	seen := map[fabric.Coord]bool{}
	for _, ref := range w.d.OccupiedCells() {
		if !seen[ref.Coord] {
			seen[ref.Coord] = true
			w.home = append(w.home, ref.Coord)
		}
	}
	if w.c.tiny {
		w.home = w.home[:8]
	}
	w.region, w.rng = region, newRNG(w.c.seed)
	for k := 0; k < tab2Offsets; k++ {
		if far := w.slots(k); far[len(far)-1].Row >= w.dev.Rows {
			return fmt.Errorf("slot grid %d overruns the device at %v", k, far[len(far)-1])
		}
	}
	w.cells = map[fabric.CellRef]fabric.CellConfig{}
	for _, c := range w.home {
		for cell := 0; cell < fabric.CellsPerCLB; cell++ {
			ref := fabric.CellRef{Coord: c, Cell: cell}
			w.cells[ref] = w.dev.ReadCell(ref)
		}
	}
	return nil
}

// slots is the far slot grid with offset k: home CLB j goes to slot j.
func (w *tab2) slots(k int) []fabric.Coord {
	row, col0 := w.region.Row+w.region.H+3+k/3, w.region.Col+k%3
	col := col0
	far := make([]fabric.Coord, len(w.home))
	for j := range far {
		far[j] = fabric.Coord{Row: row, Col: col}
		if col += 2; col >= w.dev.Cols-2 {
			col, row = col0, row+2
		}
	}
	return far
}

// unit relocates every CLB to the slot grid and back. Unit i uses grid
// offset i mod 9, so runs of one length cover the same offsets; the seed
// permutes the order the CLBs move in.
func (w *tab2) unit(r *recorder, i int) error {
	far := w.slots(i % tab2Offsets)
	order := w.rng.perm(len(w.home))
	for leg := 0; leg < 2; leg++ {
		for _, j := range order {
			from, to := w.home[j], far[j]
			if leg == 1 {
				from, to = to, from
			}
			err := r.call("relocate.RelocateCLB", int64(w.rounds*len(w.home)+j+1), func() error {
				_, err := w.eng.RelocateCLB(from, to)
				return err
			})
			if err != nil {
				return err
			}
			for cell := 0; cell < fabric.CellsPerCLB; cell++ {
				w.d.Rebind(fabric.CellRef{Coord: from, Cell: cell}, fabric.CellRef{Coord: to, Cell: cell})
			}
		}
		w.rounds++
	}
	return nil
}

func (w *tab2) finish(r *recorder) error { return r.drain(w.eng.Tool.AwaitStream) }

// audit: after the round trips every home CLB reads back its pre-run cell
// configuration, and the design still matches its golden model.
func (w *tab2) audit(*recorder) error {
	if w.rounds%2 != 0 {
		return fmt.Errorf("odd round count %d", w.rounds)
	}
	for ref, want := range w.cells {
		if got := w.dev.ReadCell(ref); got != want {
			return fmt.Errorf("cell %v reads %+v after the round trips, want %+v", ref, got, want)
		}
	}
	return lockStep(w.d, 256, w.c.seed)
}

// lockStep runs a design against its golden model for cycles cycles of
// seeded random inputs.
func lockStep(d *place.Design, cycles int, seed uint64) error {
	ls, err := sim.NewLockStep(d)
	if err != nil {
		return err
	}
	rng := newRNG(seed ^ 0x10c57e9)
	in := make([]bool, len(d.NL.Inputs()))
	for i := 0; i < cycles; i++ {
		for k := range in {
			in[k] = rng.next()&1 == 1
		}
		if err := ls.Step(in); err != nil {
			return fmt.Errorf("lock-step cycle %d: %w", i, err)
		}
	}
	return ls.CheckState()
}

func (w *tab2) counters() counters {
	return counters{
		st:      w.eng.Stats,
		traffic: w.port.Traffic(),
		cycles:  w.port.Cycles(),
		bursts:  w.port.CompletedBursts(),
		portSim: w.port.Elapsed(),
	}
}

// inputs is the first unit's move order.
func (w *tab2) inputs() string { return fmt.Sprint(newRNG(w.c.seed).perm(len(w.home))) }

func (w *tab2) close() {
	if w.eng != nil {
		_ = w.eng.Tool.AwaitStream() // stop the stream worker; errors were harvested by finish
	}
}
