package main

import (
	"fmt"
	"slices"

	rlm "repro"
	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/netlist"
	"repro/internal/rearrange"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// taskStream is the manager's real job (the paper's Fig. 1 / §4 world):
// sched.Simulator runs the bimodal scenario of sched.ScenarioMatrix over a
// live XCV50 System on Boundary-Scan, so every placed task is a cold
// place-and-route Load, every departure an Unload, and every rearrangement
// physical Moves of running designs. A unit is one task stream (see
// scenario); the fabric is empty again when each stream has drained. Loads and moves the fabric refuses
// (routing congestion, exhausted pads) roll back and count as refusals.
// The seed orders the streams a run covers (see streamOrder).
type taskStream struct {
	c   *config
	sys *rlm.System
	ev  eventCounter
	r   *recorder

	tasksPerUnit int
	order        []int // base stream of each unit
	unitIdx      int
	seq          int            // design name counter
	placed       int            // designs placed in the current unit
	names        map[int]string // allocation id -> design name
	ops          map[int]int64  // allocation id -> op id of its task
	totals       counters       // sched metrics summed over units
	auditErr     error
}

var _ sched.Space = (*taskStream)(nil)

func newTaskStream(c *config) bench {
	w := &taskStream{c: c, tasksPerUnit: 24, names: map[int]string{}, ops: map[int]int64{}}
	if c.tiny {
		w.tasksPerUnit = 6
	}
	return w
}

func (w *taskStream) setup() error {
	var err error
	if w.sys, err = rlm.New(rlm.WithDevice(fabric.XCV50), rlm.WithPort(rlm.BoundaryScan)); err != nil {
		return err
	}
	w.ev = subscribe(w.sys)
	w.order = streamOrder(w.c.seed, w.c.planned)
	return nil
}

// taskStreams is the number of base task streams the units cycle through.
const taskStreams = 10

// taskCircuits seeds the circuit of every task. The circuits do not follow
// the run's seed: with circuits drawn from it, ten seeds spread ops_per_s by
// 0.12 to 0.17 of its median, because another circuit that a router refuses
// sends the scheduler down another path of loads, moves and rejections.
const taskCircuits = 1

// streamOrder is the base stream each of a run's n units runs: the streams
// 0..n-1 mod 10 in an order the seed permutes. Every run of one length thus
// covers the same streams, and the fabric is empty between them. n <= 0
// orders the ten base streams.
func streamOrder(seed uint64, n int) []int {
	if n <= 0 {
		n = taskStreams
	}
	order := newRNG(seed).perm(n)
	for k := range order {
		order[k] %= taskStreams
	}
	return order
}

// scenario is base stream s of the bimodal scenario, whose task shapes,
// profiles and timing are fixed, with every task's circuit (its generator
// seed) drawn from taskCircuits.
func (w *taskStream) scenario(s int) (sched.Scenario, []workload.Task) {
	base := uint64(s)
	sc, _ := sched.ScenarioByName(sched.ScenarioMatrix(base+1, w.tasksPerUnit, 1.0), "bimodal")
	tasks := workload.Stream(sc.Workload)
	circuits := newRNG(taskCircuits ^ base*0x9e3779b97f4a7c15)
	for k := range tasks {
		tasks[k].Profile.Seed = circuits.next()
	}
	return sc, tasks
}

func (w *taskStream) unit(r *recorder, i int) error {
	w.r, w.unitIdx, w.placed = r, i, 0
	sc, tasks := w.scenario(w.order[i%len(w.order)])
	cfg := sc.Config()
	cfg.Planner = tracedPlanner{cfg.Planner, r}
	var m sched.Metrics
	r.region("sched.Run", int64(i+1)<<20, func() { m = sched.NewSimulatorOn(cfg, w).Run(tasks) })
	if got := m.Placed + m.PlacedAfterRearrange + m.PlacedAfterWait + m.Rejected; got != m.Submitted {
		w.fail(fmt.Errorf("unit %d: %d tasks accounted, %d submitted", i, got, m.Submitted))
	}
	t := &w.totals
	t.sched.Submitted += m.Submitted
	t.sched.Placed += m.Placed
	t.sched.PlacedAfterRearrange += m.PlacedAfterRearrange
	t.sched.PlacedAfterWait += m.PlacedAfterWait
	t.sched.Rejected += m.Rejected
	t.sched.RelocatedCLBs += m.RelocatedCLBs
	t.sched.PhysicalPlaceFailures += m.PhysicalPlaceFailures
	t.fragSum += m.MeanFragmentation * float64(m.Submitted)
	t.utilSum += m.MeanUtilisation * float64(m.Submitted)
	w.ev.count() // keep the subscriber's buffer from filling
	return nil
}

// op is the op id shared by the spans serving one task.
func (w *taskStream) op(taskID int) int64 { return int64(w.unitIdx+1)<<20 | int64(taskID) }

// Manager implements sched.Space.
func (w *taskStream) Manager() *area.Manager { return w.sys.Area() }

// Place implements sched.Space: the task's netlist is generated (untimed),
// then loaded (timed).
func (w *taskStream) Place(t workload.Task, rect fabric.Rect) (int, error) {
	w.seq++
	name := fmt.Sprintf("t%05d", w.seq)
	var nl *netlist.Netlist
	w.r.untimed("itc99.Generate", func() { nl = itc99.Generate(t.GenConfig(name, rect.Area()*fabric.CellsPerCLB)) })
	err := w.r.call("rlm.Load", w.op(t.ID), func() error {
		_, err := w.sys.Load(nl, rect)
		return err
	})
	if err != nil {
		w.r.untimed("audit", func() {
			if _, loaded := w.sys.Design(name); !loaded && w.sys.Area().Fits(rect) {
				w.r.refusal()
			} else {
				w.fail(fmt.Errorf("refused load of %s left it resident or %v occupied: %w", name, rect, err))
			}
		})
		return 0, err
	}
	id, ok := w.sys.Allocation(name)
	if !ok {
		w.fail(fmt.Errorf("%s loaded but not allocated", name))
		return 0, fmt.Errorf("%s loaded but not allocated", name)
	}
	w.names[id], w.ops[id] = name, w.op(t.ID)
	if w.placed++; w.placed == (w.tasksPerUnit+1)/2 {
		w.r.untimed("audit", w.checkResidents)
	}
	return id, nil
}

// Remove implements sched.Space.
func (w *taskStream) Remove(id int) error {
	name, ok := w.names[id]
	if !ok {
		return fmt.Errorf("allocation %d backs no design", id)
	}
	if err := w.r.call("rlm.Unload", w.ops[id], func() error { return w.sys.Unload(name) }); err != nil {
		w.fail(fmt.Errorf("unloading %s: %w", name, err))
		return err
	}
	delete(w.names, id)
	delete(w.ops, id)
	return nil
}

// Rearrange implements sched.Space: each step moves a running design; a
// refused move has rolled back, and the steps before it stay done.
func (w *taskStream) Rearrange(p *rearrange.Plan) (int, error) {
	moved := 0
	for _, st := range p.Steps {
		name, ok := w.names[st.ID]
		if !ok {
			return moved, fmt.Errorf("allocation %d backs no design", st.ID)
		}
		err := w.r.call("rlm.Move", w.ops[st.ID], func() error { return w.sys.Move(name, st.To) })
		if err != nil {
			w.r.untimed("audit", func() {
				if at, _ := w.sys.Region(name); at == st.From {
					w.r.refusal()
				} else {
					w.fail(fmt.Errorf("refused move of %s left it at %v, want %v: %w", name, at, st.From, err))
				}
			})
			return moved, err
		}
		moved += st.From.Area()
	}
	return moved, nil
}

func (w *taskStream) fail(err error) {
	if w.auditErr == nil {
		w.auditErr = err
	}
}

// checkResidents audits the fabric half-way through a unit: the System's
// designs are exactly the Space's residents, and all of them run 64 cycles
// against their golden models on one fabric simulation.
func (w *taskStream) checkResidents() {
	var resident []string
	for _, name := range w.names {
		resident = append(resident, name)
	}
	slices.Sort(resident)
	if got := w.sys.Designs(); !slices.Equal(got, resident) {
		w.fail(fmt.Errorf("System holds %v, Space holds %v", got, resident))
		return
	}
	g := sim.NewGroup(w.sys.Device())
	for _, name := range resident {
		d, _ := w.sys.Design(name)
		if _, err := g.Add(d); err != nil {
			w.fail(err)
			return
		}
	}
	rng := newRNG(w.c.seed ^ uint64(w.seq))
	for cycle := 0; cycle < 64; cycle++ {
		inputs := make([][]bool, len(g.Members))
		for k, m := range g.Members {
			inputs[k] = make([]bool, len(m.Design.NL.Inputs()))
			for j := range inputs[k] {
				inputs[k][j] = rng.next()&1 == 1
			}
		}
		if err := g.Step(inputs); err != nil {
			w.fail(fmt.Errorf("group cycle %d: %w", cycle, err))
			return
		}
	}
}

func (w *taskStream) finish(r *recorder) error {
	return r.drain(w.sys.Engine().Tool.AwaitStream)
}

func (w *taskStream) audit(r *recorder) error {
	if w.auditErr != nil {
		return w.auditErr
	}
	if r.failed > 0 {
		return fmt.Errorf("%d calls failed without a clean rollback", r.failed)
	}
	if len(w.names) > 0 || len(w.sys.Designs()) > 0 {
		return fmt.Errorf("designs left resident after the streams drained: %v", w.sys.Designs())
	}
	return nil
}

func (w *taskStream) counters() counters {
	c := w.totals
	c.events = w.ev.count()
	c.st, c.traffic = w.sys.Stats(), w.sys.Traffic()
	port := w.sys.Port()
	c.portSim = port.Elapsed()
	if cp, ok := port.(interface{ Cycles() uint64 }); ok {
		c.cycles = cp.Cycles()
	}
	if ap, ok := port.(bitstream.AsyncPort); ok {
		c.bursts = ap.CompletedBursts()
	}
	return c
}

// inputs is the stream order and the first stream's tasks.
func (w *taskStream) inputs() string {
	_, tasks := w.scenario(w.order[0])
	return fmt.Sprint(w.order, tasks)
}

func (w *taskStream) close() {
	if w.sys == nil {
		return
	}
	w.ev.cancel()
	_ = w.sys.Close() // drains the background stream
}

// tracedPlanner records a span around each rearrangement plan.
type tracedPlanner struct {
	rearrange.Planner
	r *recorder
}

func (p tracedPlanner) Plan(m *area.Manager, h, wd int) (plan *rearrange.Plan, ok bool) {
	p.r.span("rearrange.Plan", 0, func() { plan, ok = p.Planner.Plan(m, h, wd) })
	return plan, ok
}
