package rlm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/area"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/jtag"
	"repro/internal/rearrange"
)

// faultSystem builds a system on a fault-injecting port, returning the
// wrapper for fault-plan control.
func faultSystem(t *testing.T, seed uint64, extra ...Option) (*System, *faultport.Port) {
	t.Helper()
	var flaky *faultport.Port
	opts := append([]Option{
		WithDevice(fabric.TestDevice),
		WithPortModel(func(ctrl *bitstream.Controller) bitstream.Port {
			flaky = faultport.New(jtag.NewPort(ctrl, jtag.DefaultTCKHz), seed)
			return flaky
		}),
	}, extra...)
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys, flaky
}

// maskFaultStats zeroes the counters the fault layer owns, so a faulty run
// can be bit-compared against a fault-free twin: everything else — frames,
// book-keeping, TCK cycles, tick cursor — must still be identical.
func maskFaultStats(st hostState) hostState {
	st.stats.FaultsDetected = 0
	st.stats.FaultRetries = 0
	return st
}

// TestChaosRetryBitIdenticalToFaultFree is the degradation ladder's first
// rung, as a chaos property: a transient transport fault injected after any
// frame budget must be absorbed by the retry ladder — every facade operation
// of the scripted workout still succeeds, and the final configuration image,
// host book-keeping and cycle accounting are bit-identical to a fault-free
// twin's (the retry traffic is charged to the port meter's retry class).
// Commit mode is the table's second axis: every budget runs pipelined (the
// rows named budget-N) and under serial commit (serial/budget-N), where each
// Flush harvests its own burst, so the fault surfaces at the Flush that
// enqueued it and must reach the ladder all the same. Every serial row must
// trip, retry and end on the same fault-free twin. Run with -race.
func TestChaosRetryBitIdenticalToFaultFree(t *testing.T) {
	clean, err := New(WithDevice(fabric.TestDevice))
	if err != nil {
		t.Fatal(err)
	}
	crashScript(t, clean)
	want := maskFaultStats(captureState(clean))

	budgets := []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}
	if testing.Short() {
		budgets = []int{0, 3, 21, 144}
	}
	modes := []struct {
		prefix string
		opts   []Option
		strict bool // every budget must trip and be retried
	}{
		{"", nil, false},
		{"serial/", []Option{withSerialCommit()}, true},
	}
	detected := 0
	for _, mode := range modes {
		for _, budget := range budgets {
			t.Run(fmt.Sprintf("%sbudget-%d", mode.prefix, budget), func(t *testing.T) {
				opts := append([]Option{WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 2})}, mode.opts...)
				sys, flaky := faultSystem(t, 7, opts...)
				events, cancel := sys.Subscribe(256)
				defer cancel()
				flaky.TripAfter(budget)
				crashScript(t, sys) // every op must succeed; the script fatals otherwise
				st := sys.Stats()
				if st.RetriesExhausted != 0 {
					t.Fatalf("transient fault exhausted retries: %+v", st)
				}
				detected += st.FaultsDetected
				if mode.strict && st.FaultsDetected == 0 {
					t.Fatalf("the fault never reached the retry ladder: %+v", st)
				}
				if st.FaultsDetected > 0 {
					if st.FaultRetries == 0 {
						t.Fatalf("fault detected but never retried: %+v", st)
					}
					cancel()
					sawRetryOK := false
					for e := range events {
						if e.Kind == RetrySucceeded {
							sawRetryOK = true
						}
					}
					if !sawRetryOK {
						t.Fatal("fault detected but no RetrySucceeded event published")
					}
				}
				if diffs := diffStates(maskFaultStats(captureState(sys)), want); len(diffs) > 0 {
					t.Fatalf("faulty run diverges from fault-free twin: %s", diffs[0])
				}
			})
		}
	}
	if detected == 0 {
		t.Fatal("no budget ever tripped a fault; the chaos sweep tested nothing")
	}
}

// condemnColumns arms persistent write failures on every frame of the CLB
// columns carrying the given array columns, returning the condemned frame
// count.
func condemnColumns(t *testing.T, dev *fabric.Device, flaky *faultport.Port, cols ...int) int {
	t.Helper()
	n := 0
	for _, c := range cols {
		major := dev.MajorOfArrayCol(c)
		col, ok := dev.ColumnByMajor(major)
		if !ok || col.Kind != fabric.ColCLB {
			t.Fatalf("array col %d: no CLB configuration column", c)
		}
		for minor := 0; minor < col.Frames; minor++ {
			flaky.FailFrames(fabric.FrameAddr{Major: major, Minor: minor})
			n++
		}
	}
	return n
}

// TestPersistentFaultQuarantinesAndEvacuates is the ladder's last rung:
// a persistent per-frame write failure survives every retry, the operation
// fails typed (ErrRetriesExhausted) and rolls back, the condemned columns
// are quarantined out of the logic space, and the design resident on them
// is evacuated to healthy space — after which explicit placement into the
// condemned columns is refused (ErrQuarantined) and auto-placement avoids
// them. The staged move fails in a hop, and must quarantine like the direct
// one.
func TestPersistentFaultQuarantinesAndEvacuates(t *testing.T) {
	for _, tc := range []struct {
		name string
		move func(sys *System, to fabric.Rect) error
	}{
		{"Move", func(sys *System, to fabric.Rect) error { return sys.Move("vic", to) }},
		{"MoveStaged-1", func(sys *System, to fabric.Rect) error { return sys.MoveStaged("vic", to, 1) }},
		{"MoveStaged-4", func(sys *System, to fabric.Rect) error { return sys.MoveStaged("vic", to, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testPersistentFaultQuarantines(t, tc.move)
		})
	}
}

func testPersistentFaultQuarantines(t *testing.T, move func(sys *System, to fabric.Rect) error) {
	sys, flaky := faultSystem(t, 11, WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 1}))
	home := fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}
	if _, err := sys.Load(mkCounter("vic"), home); err != nil {
		t.Fatal(err)
	}
	events, cancel := sys.Subscribe(256)
	defer cancel()

	condemned := condemnColumns(t, sys.Device(), flaky, 0, 1)
	err := move(sys, fabric.Rect{Row: 4, Col: 0, H: 2, W: 2})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("move across condemned columns: %v, want ErrRetriesExhausted", err)
	}

	st := sys.Stats()
	if st.RetriesExhausted != 1 || st.FaultsDetected == 0 {
		t.Fatalf("ladder counters: %+v", st)
	}
	if st.FramesQuarantined != condemned {
		t.Fatalf("FramesQuarantined = %d, want %d (both columns, whole)", st.FramesQuarantined, condemned)
	}
	if st.DesignsEvacuated != 1 {
		t.Fatalf("DesignsEvacuated = %d, want 1", st.DesignsEvacuated)
	}
	if !sys.Area().QuarantineOverlaps(home) {
		t.Fatal("condemned columns not quarantined in the area manager")
	}
	region, ok := sys.Region("vic")
	if !ok {
		t.Fatal("design lost by the evacuation")
	}
	if sys.Area().QuarantineOverlaps(region) {
		t.Fatalf("design evacuated onto quarantined space: %v", region)
	}

	cancel()
	saw := map[EventKind]int{}
	var evac Event
	for e := range events {
		saw[e.Kind]++
		if e.Kind == DesignEvacuated {
			evac = e
		}
	}
	for _, k := range []EventKind{FaultDetected, RetriesExhausted, FrameQuarantined, DesignEvacuated} {
		if saw[k] == 0 {
			t.Errorf("event %v never published (saw %v)", k, saw)
		}
	}
	if evac.Design != "vic" || evac.Region != region {
		t.Errorf("DesignEvacuated = %+v, want vic -> %v", evac, region)
	}

	// Explicit placement into the condemned columns is refused before any
	// frame streams; a busy-region error would be misleading (the space can
	// never free up).
	if _, err := sys.Load(mkCounter("x"), fabric.Rect{Row: 6, Col: 0, H: 2, W: 2}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("load into quarantined columns: %v, want ErrQuarantined", err)
	}
	// Auto-placement must route around the mask.
	d, err := sys.Load(mkCounter("auto"), fabric.Rect{})
	if err != nil {
		t.Fatalf("auto-placed load after quarantine: %v", err)
	}
	if sys.Area().QuarantineOverlaps(d.Region) {
		t.Fatalf("auto-placement chose quarantined space: %v", d.Region)
	}
	// The evacuated design is still live: it moves on healthy fabric.
	if err := sys.Move("vic", fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}); err != nil {
		t.Fatalf("post-evacuation move: %v", err)
	}
}

// TestEveryEntryPointRefusesQuarantine: every entry point that can target
// logic space checks it with the same dry run, so a target on columns the
// retry ladder condemned is refused with ErrQuarantined (a busy-region error
// would be misleading: the space can never free up), plan rows also wrap
// ErrPlanInvalid, and nothing changes: not the frames, the design tables nor
// the area map.
func TestEveryEntryPointRefusesQuarantine(t *testing.T) {
	sys, flaky := faultSystem(t, 11, WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 1}))
	if _, err := sys.Load(mkCounter("vic"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	condemnColumns(t, sys.Device(), flaky, 0, 1)
	if err := sys.Move("vic", fabric.Rect{Row: 4, Col: 0, H: 2, W: 2}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("move across condemned columns: %v, want ErrRetriesExhausted", err)
	}
	condemned := fabric.Rect{Row: 6, Col: 0, H: 2, W: 2}
	if !sys.Area().QuarantineOverlaps(condemned) {
		t.Fatal("the ladder quarantined nothing")
	}
	// MoveStaged's step reaches the target in one hop, so the refused hop is
	// the condemned target itself.
	const step = 100
	ops := []struct {
		name string
		plan func(*Plan) *Plan
	}{
		{"load", func(p *Plan) *Plan { return p.Load(mkCounter("x"), condemned) }},
		{"move", func(p *Plan) *Plan { return p.Move("vic", condemned) }},
		{"move-staged", func(p *Plan) *Plan { return p.MoveStaged("vic", condemned, step) }},
	}
	type row struct {
		name string
		call func() error
		plan bool
	}
	rows := []row{
		{"Load", func() error { _, err := sys.Load(mkCounter("x"), condemned); return err }, false},
		{"Move", func() error { return sys.Move("vic", condemned) }, false},
		{"MoveStaged", func() error { return sys.MoveStaged("vic", condemned, step) }, false},
	}
	for _, op := range ops {
		rows = append(rows,
			row{"Plan.Validate/" + op.name, func() error { return op.plan(sys.Plan()).Validate() }, true},
			row{"Plan.Commit/" + op.name, func() error { return op.plan(sys.Plan()).Commit() }, true})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := captureState(sys)
			err := row.call()
			if !errors.Is(err, ErrQuarantined) {
				t.Errorf("%v, want ErrQuarantined", err)
			}
			if row.plan && !errors.Is(err, ErrPlanInvalid) {
				t.Errorf("%v, want ErrPlanInvalid", err)
			}
			if diffs := diffStates(captureState(sys), before); len(diffs) > 0 {
				t.Errorf("refused call changed the system (%d diffs), first: %s", len(diffs), diffs[0])
			}
		})
	}
}

// fixedPlanner proposes a fixed list of rearrangement plans, in order.
type fixedPlanner []*rearrange.Plan

func (fixedPlanner) Name() string { return "fixed" }

func (p fixedPlanner) Plan(*area.Manager, int, int) (*rearrange.Plan, bool) { return p[0], true }

func (p fixedPlanner) Plans(*area.Manager, int, int) []*rearrange.Plan { return p }

// TestPersistentFaultInFailedDefragCandidate: a Need-mode defragmentation
// whose first candidate exhausts the retry ladder on condemned columns and
// whose second succeeds still quarantines the columns the first condemned,
// and evacuates the design resident on them.
func TestPersistentFaultInFailedDefragCandidate(t *testing.T) {
	sys, flaky := faultSystem(t, 11, WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 1}))
	for _, l := range []struct {
		name   string
		region fabric.Rect
	}{
		{"a", fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}},
		{"b", fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}},
	} {
		if _, err := sys.Load(mkCounter(l.name), l.region); err != nil {
			t.Fatal(err)
		}
	}
	condemned := condemnColumns(t, sys.Device(), flaky, 0, 1)
	aID, _ := sys.Allocation("a")
	aFrom, _ := sys.Region("a")
	bRegion, _ := sys.Region("b")
	// The second candidate moves nothing: moving b would fail too, since
	// its pad-entry input net routes through the condemned columns.
	planner := fixedPlanner{
		{Steps: []rearrange.Step{{ID: aID, From: aFrom, To: fabric.Rect{Row: 4, Col: 0, H: 2, W: 2}}}, Target: aFrom},
		{Target: bRegion},
	}
	rep, err := sys.Defragment(DefragPolicy{Planner: planner, NeedH: 2, NeedW: 2})
	if err != nil {
		t.Fatalf("defragment: %v", err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", rep.Attempts)
	}
	st := sys.Stats()
	if st.RetriesExhausted != 1 {
		t.Fatalf("RetriesExhausted = %d, want 1", st.RetriesExhausted)
	}
	if st.FramesQuarantined != condemned {
		t.Fatalf("FramesQuarantined = %d, want %d", st.FramesQuarantined, condemned)
	}
	if st.DesignsEvacuated != 1 {
		t.Fatalf("DesignsEvacuated = %d, want 1", st.DesignsEvacuated)
	}
	if region, _ := sys.Region("a"); sys.Area().QuarantineOverlaps(region) {
		t.Fatalf("a left on quarantined space: %v", region)
	}
}

// TestPersistentFaultInEvacuationWaitsForNextSweep: evacuations never
// sweep, so a quarantine cannot recurse. An evacuation that exhausts the
// ladder on further failing columns leaves what it condemned pending, and
// the next operation's sweep quarantines it, even when that operation
// succeeds.
func TestPersistentFaultInEvacuationWaitsForNextSweep(t *testing.T) {
	sys, flaky := faultSystem(t, 11, WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 1}))
	home := fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}
	if _, err := sys.Load(mkCounter("vic"), home); err != nil {
		t.Fatal(err)
	}
	// The first evacuation goes to the best fit once the home columns are
	// masked; condemn its columns too.
	m := sys.Area().Clone()
	m.Quarantine(fabric.Rect{Row: 0, Col: 0, H: sys.Device().Rows, W: 2})
	refuge, ok := m.FindPlacement(home.H, home.W, area.BestFit)
	if !ok {
		t.Fatal("no healthy placement for the evacuation")
	}
	perPair := condemnColumns(t, sys.Device(), flaky, 0, 1)
	condemnColumns(t, sys.Device(), flaky, refuge.Col, refuge.Col+1)

	if err := sys.Move("vic", fabric.Rect{Row: 4, Col: 0, H: 2, W: 2}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("move across condemned columns: %v, want ErrRetriesExhausted", err)
	}
	st := sys.Stats()
	if st.RetriesExhausted != 2 || st.FramesQuarantined != perPair || st.DesignsEvacuated != 0 {
		t.Fatalf("after the move and its failed evacuation to %v: RetriesExhausted %d, FramesQuarantined %d, DesignsEvacuated %d; want 2, %d, 0",
			refuge, st.RetriesExhausted, st.FramesQuarantined, st.DesignsEvacuated, perPair)
	}

	if _, err := sys.Load(mkCounter("x"), fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}); err != nil {
		t.Fatalf("load on healthy columns: %v", err)
	}
	if st := sys.Stats(); st.FramesQuarantined <= perPair || !sys.Area().QuarantineOverlaps(refuge) {
		t.Fatalf("after the next load: FramesQuarantined %d, refuge %v quarantined %v; want more than %d, true",
			st.FramesQuarantined, refuge, sys.Area().QuarantineOverlaps(refuge), perPair)
	}
}

// TestScrubRepairsSilentCorruption: a silent SEU — readback diverges from
// the golden shadow with no transport error — is found and repaired by one
// scrub pass, the repair is observable (report, Stats, event), and the scrub
// traffic stays out of the foreground cycle accounting.
func TestScrubRepairsSilentCorruption(t *testing.T) {
	sys, flaky := faultSystem(t, 23)
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	events, cancel := sys.Subscribe(64)
	defer cancel()

	addr := fabric.FrameAddr{Major: sys.Device().MajorOfArrayCol(0), Minor: 1}
	want, ok := sys.Engine().Tool.Shadow().Frame(addr)
	if !ok {
		t.Fatalf("frame %v missing from shadow", addr)
	}
	flaky.FlipBit(addr, 2, 7)
	if got, err := flaky.ReadFrame(addr); err != nil || frameWordsEqual(got, want) {
		t.Fatalf("SEU not visible on readback (err %v)", err)
	}

	cycles0 := flaky.Cycles()
	rep, err := sys.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || rep.FramesChecked == 0 {
		t.Fatalf("scrub pass did not run: %+v", rep)
	}
	if len(rep.Repairs) != 1 || rep.Repairs[0] != addr {
		t.Fatalf("repairs = %v, want [%v]", rep.Repairs, addr)
	}
	st := sys.Stats()
	if st.ScrubRepairs != 1 || st.ScrubChecked != rep.FramesChecked || st.ScrubSeconds <= 0 {
		t.Fatalf("scrub stats: %+v", st)
	}
	if flaky.Cycles() != cycles0 {
		t.Fatalf("scrub traffic leaked into foreground accounting: %d -> %d", cycles0, flaky.Cycles())
	}
	if got, err := flaky.ReadFrame(addr); err != nil || !frameWordsEqual(got, want) {
		t.Fatalf("frame not repaired (err %v)", err)
	}
	// A second pass over the repaired memory finds nothing.
	rep2, err := sys.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Repairs) != 0 {
		t.Fatalf("second pass repaired again: %v", rep2.Repairs)
	}
	cancel()
	sawRepair := false
	for e := range events {
		if e.Kind == ScrubRepair && e.Frame == addr {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Fatal("no ScrubRepair event published")
	}
}

// TestBackgroundScrubberRepairsUnderLoad runs the WithScrubber goroutine
// against concurrent foreground relocations (the stream-in-flight gate) and
// checks an injected SEU is repaired in the background. Run with -race.
func TestBackgroundScrubberRepairsUnderLoad(t *testing.T) {
	sys, flaky := faultSystem(t, 31, WithScrubber(200*time.Microsecond, 16))
	defer sys.Close()
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	flaky.FlipBit(fabric.FrameAddr{Major: sys.Device().MajorOfArrayCol(4), Minor: 0}, 1, 3)

	// Foreground churn while the scrubber sweeps.
	a := fabric.Rect{Row: 4, Col: 6, H: 2, W: 2}
	b := fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}
	cur := fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}
	deadline := time.Now().Add(10 * time.Second)
	for sys.Stats().ScrubRepairs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never repaired the SEU: %+v", sys.Stats())
		}
		next := a
		if cur == a {
			next = b
		}
		if err := sys.Move("c1", next); err != nil {
			t.Fatalf("foreground move: %v", err)
		}
		cur = next
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestCrashDuringRetryRecovers simulates a host crash inside the retry
// ladder — after the fault was detected, before the re-delivery attempt —
// and recovers from the journal prefix plus the delivered-frame mirror. The
// in-flight operation must roll back to the previous committed boundary,
// and the journal ends sealed and consistent.
func TestCrashDuringRetryRecovers(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	var flaky *faultport.Port
	sys, err := New(WithDevice(fabric.TestDevice),
		WithJournal(jpath),
		WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 2}),
		WithPortModel(func(ctrl *bitstream.Controller) bitstream.Port {
			flaky = faultport.New(jtag.NewPort(ctrl, jtag.DefaultTCKHz), 3)
			return flaky
		}))
	if err != nil {
		t.Fatal(err)
	}
	mirror := map[fabric.FrameAddr][]uint32{}
	sys.onDelivered = func(updates []bitstream.FrameUpdate) {
		for _, u := range updates {
			mirror[u.Addr] = append([]uint32(nil), u.Data...)
		}
	}
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	oracle := captureState(sys)

	var capture *crashPoint
	sys.crashHook = func(stage string) {
		if stage != "retry" || capture != nil {
			return
		}
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatalf("reading journal at retry boundary: %v", err)
		}
		if off := sys.jrnl.j.Offset(); int64(len(data)) > off {
			data = data[:off]
		}
		capture = &crashPoint{stage: stage, jdata: append([]byte(nil), data...), frames: cloneFrames(mirror)}
	}
	flaky.TripAfter(0)
	// The live (uncrashed) system absorbs the transient via the ladder.
	if err := sys.Move("c1", fabric.Rect{Row: 4, Col: 4, H: 2, W: 2}); err != nil {
		t.Fatalf("move should have survived the transient: %v", err)
	}
	if capture == nil {
		t.Fatal("retry boundary never fired")
	}

	path := filepath.Join(dir, "crash-retry.journal")
	if err := os.WriteFile(path, capture.jdata, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(deviceFromFrames(t, capture.frames), path)
	if err != nil {
		t.Fatalf("recover from mid-retry crash: %v", err)
	}
	if rep.Action != "rolled-back" {
		t.Fatalf("action = %q, want rolled-back (retry window has no post state)", rep.Action)
	}
	if diffs := diffStates(captureState(rec), oracle); len(diffs) > 0 {
		t.Fatalf("recovered state diverges from pre-op boundary: %s", diffs[0])
	}
	// The recovered system is live and journals on.
	if err := rec.Move("c1", fabric.Rect{Row: 6, Col: 8, H: 2, W: 2}); err != nil {
		t.Fatalf("post-recovery move: %v", err)
	}
}

// TestRecoverWithCustomPortModel: a system journaled over WithPortModel
// records port kind "custom"; Recover re-passed the factory must rebuild
// onto the same port model with the accounting restored, and without the
// factory it falls back to the default Boundary-Scan port instead of
// failing.
func TestRecoverWithCustomPortModel(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	var flaky *faultport.Port
	factory := func(ctrl *bitstream.Controller) bitstream.Port {
		flaky = faultport.New(jtag.NewPort(ctrl, jtag.DefaultTCKHz), 5)
		return flaky
	}
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath), WithPortModel(factory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Move("c1", fabric.Rect{Row: 4, Col: 6, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	want := captureState(sys)

	rec, rep, err := Recover(deviceFromFrames(t, dumpFrames(sys.dev)), jpath, WithPortModel(factory))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "clean" {
		t.Fatalf("action = %q, want clean", rep.Action)
	}
	if p, ok := rec.Port().(*faultport.Port); !ok || p != flaky {
		t.Fatal("recover did not build onto the re-passed port factory")
	}
	if diffs := diffStates(captureState(rec), want); len(diffs) > 0 {
		t.Fatalf("recovered state diverges (accounting restored through the custom port): %s", diffs[0])
	}

	// Without the factory the port kind falls back; recovery still succeeds
	// and the non-cycle state still matches.
	rec2, _, err := Recover(deviceFromFrames(t, dumpFrames(sys.dev)), jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, isFault := rec2.Port().(*faultport.Port); isFault {
		t.Fatal("factory-less recovery should fall back to the default port")
	}
	if _, ok := rec2.Design("c1"); !ok {
		t.Fatal("factory-less recovery lost the design")
	}
}

// TestJournalRotationCompacts: with WithJournalRotation armed, the journal
// file is compacted in place after commit seals, so a long-running workout's
// journal stays bounded while recovery still lands on the exact final state.
func TestJournalRotationCompacts(t *testing.T) {
	dir := t.TempDir()

	plain, err := New(WithDevice(fabric.TestDevice), WithJournal(filepath.Join(dir, "plain.journal")))
	if err != nil {
		t.Fatal(err)
	}
	crashScript(t, plain)
	plainInfo, err := os.Stat(filepath.Join(dir, "plain.journal"))
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "rot.journal")
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath), WithJournalRotation(8192))
	if err != nil {
		t.Fatal(err)
	}
	shrank := false
	var prevBegin int64 = -1
	sys.crashHook = func(stage string) {
		if stage != "begin" {
			return
		}
		off := sys.jrnl.j.Offset()
		if prevBegin >= 0 && off < prevBegin {
			shrank = true
		}
		prevBegin = off
	}
	crashScript(t, sys)
	want := captureState(sys)
	if !shrank {
		t.Fatal("rotation never compacted the journal (threshold never crossed?)")
	}
	rotInfo, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if rotInfo.Size() >= plainInfo.Size() {
		t.Fatalf("rotated journal (%d bytes) not smaller than unrotated (%d bytes)",
			rotInfo.Size(), plainInfo.Size())
	}

	rec, rep, err := Recover(deviceFromFrames(t, dumpFrames(sys.dev)), jpath)
	if err != nil {
		t.Fatalf("recover from rotated journal: %v", err)
	}
	if rep.Action != "clean" {
		t.Fatalf("action = %q, want clean", rep.Action)
	}
	if diffs := diffStates(captureState(rec), want); len(diffs) > 0 {
		t.Fatalf("recovered state diverges after rotation: %s", diffs[0])
	}
}
