package rlm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/journal"
)

// colHealth returns the health ledger entry for one column (zero value —
// implicitly healthy — when the column never produced evidence).
func colHealth(s *System, major int) ColumnHealth {
	for _, c := range s.Health() {
		if c.Major == major {
			return c
		}
	}
	return ColumnHealth{Major: major}
}

// ownedMinor returns the first frame of the column the shadow owns (the
// scrubber and the probes only act on shadow-owned frames, so health tests
// must target one).
func ownedMinor(t *testing.T, s *System, major int) fabric.FrameAddr {
	t.Helper()
	col, ok := s.Device().ColumnByMajor(major)
	if !ok {
		t.Fatalf("no column at major %d", major)
	}
	for minor := 0; minor < col.Frames; minor++ {
		fa := fabric.FrameAddr{Major: major, Minor: minor}
		if _, ok := s.Engine().Tool.Shadow().Frame(fa); ok {
			return fa
		}
	}
	t.Fatalf("no shadow-owned frame in column F%d (load a design over it first)", major)
	return fabric.FrameAddr{}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestScrubPreemptiveQuarantineAndProbeRelease walks one column through the
// complete health lifecycle deterministically, with manual scrub passes:
// repeated scrub repairs of the same frame condemn the column before any
// foreground operation ever faults on it; probes release it into probation
// once the memory tests clean; one repair during probation sends it straight
// back; and sustained clean scrubs finally return it to full health.
func TestScrubPreemptiveQuarantineAndProbeRelease(t *testing.T) {
	pol := HealthPolicy{
		Alpha:           0.5,
		SuspectAbove:    0.25,
		CondemnRepairs:  2,
		ProbesToRelease: 2,
		ProbationChecks: 3,
	}
	sys, flaky := faultSystem(t, 41, WithHealthPolicy(pol))
	events, cancel := sys.Subscribe(256)
	defer cancel()

	// Own the far-east column's frames in the shadow, then free the space:
	// the scrubber only checks (and the probes only exercise) frames the
	// host has golden content for.
	if _, err := sys.Load(mkCounter("occ"), fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Unload("occ"); err != nil {
		t.Fatal(err)
	}
	major := sys.Device().MajorOfArrayCol(11)
	addr := ownedMinor(t, sys, major)
	colRect := fabric.Rect{Row: 0, Col: 11, H: sys.Device().Rows, W: 1}

	// Two scrub repairs of the same frame condemn the column preemptively.
	flaky.FlipBit(addr, 1, 3)
	if _, err := sys.Scrub(0); err != nil {
		t.Fatal(err)
	}
	if st := colHealth(sys, major).State; st != ColumnHealthy {
		t.Fatalf("one repair already changed state to %v", st)
	}
	flaky.FlipBit(addr, 1, 3)
	if _, err := sys.Scrub(0); err != nil {
		t.Fatal(err)
	}
	if st := colHealth(sys, major).State; st != ColumnQuarantined {
		t.Fatalf("state after %d repairs of %v = %v, want quarantined", pol.CondemnRepairs, addr, st)
	}
	if !sys.Area().QuarantineOverlaps(colRect) {
		t.Fatal("condemned column not masked out of the logic space")
	}
	if _, err := sys.Load(mkCounter("x"), fabric.Rect{Row: 0, Col: 10, H: 2, W: 2}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("load over the condemned column: %v, want ErrQuarantined", err)
	}
	st := sys.Stats()
	if st.ScrubRepairs != 2 || st.FramesQuarantined == 0 {
		t.Fatalf("preemptive-quarantine stats: %+v", st)
	}
	if st.Probes != 1 || st.ProbeFailures != 0 {
		// The condemning pass already ran the first (clean) probe.
		t.Fatalf("probe stats after condemnation: %+v", st)
	}

	// A probe that trips on the bad memory fails the column and resets the
	// release streak.
	flaky.FailFrames(addr)
	if _, err := sys.Scrub(0); err != nil {
		t.Fatal(err)
	}
	st = sys.Stats()
	if st.ProbeFailures != 1 {
		t.Fatalf("probe over failing frame: %+v", st)
	}
	if h := colHealth(sys, major); h.State != ColumnQuarantined || h.CleanProbes != 0 {
		t.Fatalf("failed probe did not reset the streak: %+v", h)
	}

	// Healed memory tests clean: the release streak rebuilds and the column
	// enters probation — back in service.
	flaky.HealFrames(addr)
	for i := 0; i < 3 && colHealth(sys, major).State != ColumnProbation; i++ {
		if _, err := sys.Scrub(0); err != nil {
			t.Fatal(err)
		}
	}
	if h := colHealth(sys, major); h.State != ColumnProbation {
		t.Fatalf("column not released after clean probes: %+v", h)
	}
	if sys.Area().QuarantineOverlaps(colRect) {
		t.Fatal("released column still masked")
	}
	cap := sys.Capacity()
	if cap.QuarantinedCLBs != 0 || cap.ProbationCLBs != sys.Device().Rows {
		t.Fatalf("capacity after release: %+v", cap)
	}
	if got := sys.Stats().QuarantinesReleased; got != 1 {
		t.Fatalf("QuarantinesReleased = %d, want 1", got)
	}

	// Probation is one-strike: a single scrub repair re-condemns.
	flaky.FlipBit(addr, 1, 3)
	if _, err := sys.Scrub(0); err != nil {
		t.Fatal(err)
	}
	if h := colHealth(sys, major); h.State != ColumnQuarantined {
		t.Fatalf("repair during probation did not re-condemn: %+v", h)
	}
	if !sys.Area().QuarantineOverlaps(colRect) {
		t.Fatal("re-condemned column not masked again")
	}

	// Release again, then earn back full health with clean scrub checks.
	for i := 0; i < 4 && colHealth(sys, major).State != ColumnProbation; i++ {
		if _, err := sys.Scrub(0); err != nil {
			t.Fatal(err)
		}
	}
	if h := colHealth(sys, major); h.State != ColumnProbation {
		t.Fatalf("column not re-released: %+v", h)
	}
	for i := 0; i < 8 && colHealth(sys, major).State != ColumnHealthy; i++ {
		if _, err := sys.Scrub(0); err != nil {
			t.Fatal(err)
		}
	}
	if h := colHealth(sys, major); h.State != ColumnHealthy {
		t.Fatalf("probation never cleared: %+v", h)
	}
	cap = sys.Capacity()
	if cap.QuarantinedCLBs != 0 || cap.ProbationCLBs != 0 {
		t.Fatalf("capacity after full recovery: %+v", cap)
	}
	if _, err := sys.Load(mkCounter("back"), fabric.Rect{Row: 0, Col: 10, H: 2, W: 2}); err != nil {
		t.Fatalf("load onto the recovered column: %v", err)
	}

	cancel()
	saw := map[EventKind]int{}
	for e := range events {
		saw[e.Kind]++
	}
	if saw[FrameQuarantined] == 0 || saw[ProbeFailed] != 1 || saw[QuarantineReleased] != 2 || saw[CapacityChanged] == 0 {
		t.Fatalf("lifecycle events: %v", saw)
	}
}

// TestDegradedAdmission: once quarantine pushes healthy capacity below the
// policy watermark, new loads — direct or planned — fail fast with a typed
// ErrDegraded while moves of resident designs still work; releasing the
// quarantined columns restores admission.
func TestDegradedAdmission(t *testing.T) {
	pol := HealthPolicy{
		Alpha:           0.5,
		SuspectAbove:    0.25,
		ProbesToRelease: 1,
		DegradedBelow:   0.9,
	}
	sys, flaky := faultSystem(t, 17,
		WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 1}),
		WithHealthPolicy(pol))
	events, cancel := sys.Subscribe(256)
	defer cancel()

	if _, err := sys.Load(mkCounter("vic"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	condemnColumns(t, sys.Device(), flaky, 0, 1)
	if err := sys.Move("vic", fabric.Rect{Row: 4, Col: 0, H: 2, W: 2}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("move across condemned columns: %v, want ErrRetriesExhausted", err)
	}
	total := sys.Device().Rows * sys.Device().Cols
	cap := sys.Capacity()
	if cap.QuarantinedCLBs != 2*sys.Device().Rows || cap.HealthyCLBs != total-cap.QuarantinedCLBs {
		t.Fatalf("capacity census after quarantine: %+v", cap)
	}
	if sys.Stats().ColumnsSuspected == 0 {
		t.Fatalf("fault evidence never marked a column suspect: %+v", sys.Stats())
	}

	// 80/96 healthy is below the 90% watermark: loads are refused typed.
	if _, err := sys.Load(mkCounter("new"), fabric.Rect{}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("load in degraded mode: %v, want ErrDegraded", err)
	}
	err := sys.Plan().Load(mkCounter("new"), fabric.Rect{Row: 0, Col: 4, H: 2, W: 2}).Commit()
	if !errors.Is(err, ErrPlanInvalid) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("planned load in degraded mode: %v, want ErrPlanInvalid wrapping ErrDegraded", err)
	}
	// Resident designs stay fully manageable: only ADDING load is gated.
	if err := sys.Plan().Move("vic", fabric.Rect{Row: 0, Col: 6, H: 2, W: 2}).Commit(); err != nil {
		t.Fatalf("planned move in degraded mode: %v", err)
	}
	if err := sys.Move("vic", fabric.Rect{Row: 4, Col: 6, H: 2, W: 2}); err != nil {
		t.Fatalf("move in degraded mode: %v", err)
	}

	// Heal the memory; one clean probe per column releases both, restoring
	// capacity above the watermark — admission resumes.
	for _, c := range []int{0, 1} {
		major := sys.Device().MajorOfArrayCol(c)
		col, _ := sys.Device().ColumnByMajor(major)
		for minor := 0; minor < col.Frames; minor++ {
			flaky.HealFrames(fabric.FrameAddr{Major: major, Minor: minor})
		}
	}
	if _, err := sys.Scrub(0); err != nil {
		t.Fatal(err)
	}
	cap = sys.Capacity()
	if cap.QuarantinedCLBs != 0 || cap.ProbationCLBs != 2*sys.Device().Rows {
		t.Fatalf("capacity after release: %+v", cap)
	}
	if _, err := sys.Load(mkCounter("new"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatalf("load after capacity recovered: %v", err)
	}

	cancel()
	saw := map[EventKind]int{}
	for e := range events {
		saw[e.Kind]++
	}
	for _, k := range []EventKind{FrameSuspect, FrameQuarantined, QuarantineReleased, CapacityChanged} {
		if saw[k] == 0 {
			t.Errorf("event %v never published (saw %v)", k, saw)
		}
	}
}

// TestJournalCompactCarriesHealth: compacting a journal must preserve the
// health ledger alongside the quarantine mask, so a recovery from the
// compacted file restores the exact column states.
func TestJournalCompactCarriesHealth(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	pol := HealthPolicy{CondemnRepairs: 2}
	sys, flaky := faultSystem(t, 29, WithJournal(jpath), WithHealthPolicy(pol))

	if _, err := sys.Load(mkCounter("occ"), fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Unload("occ"); err != nil {
		t.Fatal(err)
	}
	major := sys.Device().MajorOfArrayCol(11)
	addr := ownedMinor(t, sys, major)
	for i := 0; i < pol.CondemnRepairs; i++ {
		flaky.FlipBit(addr, 1, 3)
		if _, err := sys.Scrub(0); err != nil {
			t.Fatal(err)
		}
	}
	if st := colHealth(sys, major).State; st != ColumnQuarantined {
		t.Fatalf("setup never condemned the column: %v", st)
	}
	wantHealth := sys.Health()
	wantQuar := sys.Stats().FramesQuarantined

	if _, err := journal.Compact(jpath); err != nil {
		t.Fatalf("compacting the journal: %v", err)
	}
	rec, rep, err := Recover(deviceFromFrames(t, dumpFrames(sys.dev)), jpath, WithHealthPolicy(pol))
	if err != nil {
		t.Fatalf("recover from compacted journal: %v", err)
	}
	if rep.Action != "clean" {
		t.Fatalf("action = %q, want clean", rep.Action)
	}
	colRect := fabric.Rect{Row: 0, Col: 11, H: sys.Device().Rows, W: 1}
	if !rec.Area().QuarantineOverlaps(colRect) {
		t.Fatal("compaction lost the quarantine mask")
	}
	if got := rec.Health(); !reflect.DeepEqual(got, wantHealth) {
		t.Fatalf("recovered health ledger:\n got %+v\nwant %+v", got, wantHealth)
	}
	if got := rec.Stats().FramesQuarantined; got != wantQuar {
		t.Fatalf("recovered FramesQuarantined = %d, want %d", got, wantQuar)
	}
	if _, err := rec.Load(mkCounter("x"), fabric.Rect{Row: 0, Col: 10, H: 2, W: 2}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("load over the recovered mask: %v, want ErrQuarantined", err)
	}
}

// TestCloseUnderLoadNoGoroutineLeak: Close must stop the background
// scrubber and drain the stream an engine-level relocation left in flight —
// no goroutine the system spawned survives it. Run with -race.
func TestCloseUnderLoadNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	sys, _ := faultSystem(t, 37, WithScrubber(100*time.Microsecond, 8))
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	// An engine call streams without a facade harvest, so its last burst can
	// still be shifting when Close runs. The lock keeps the scrubber off the
	// engine meanwhile.
	from := sys.designs["c1"].OccupiedCells()[0].Coord
	sys.mu.Lock()
	_, err := sys.Engine().RelocateCLB(from, fabric.Coord{Row: from.Row + 4, Col: from.Col + 4})
	inFlight := sys.engine.Tool.StreamInFlight()
	sys.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stream in flight at Close: %v", inFlight)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if sys.engine.Tool.StreamInFlight() {
		t.Fatal("a stream is still in flight after Close")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sys.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// maskSoakStats additionally zeroes every counter the self-healing layer
// owns, on top of the fault-layer mask: the chaos soak asserts that all
// maintenance traffic — retries, scrubs, probes, quarantine churn — stays
// out of the foreground, leaving the foreground accounting bit-identical to
// a fault-free twin's.
func maskSoakStats(st hostState) hostState {
	st = maskFaultStats(st)
	st.stats.RetriesExhausted = 0
	st.stats.FramesQuarantined = 0
	st.stats.DesignsEvacuated = 0
	st.stats.ScrubChecked = 0
	st.stats.ScrubRepairs = 0
	st.stats.ColumnsSuspected = 0
	st.stats.Probes = 0
	st.stats.ProbeFailures = 0
	st.stats.QuarantinesReleased = 0
	return st
}

// soakScript is the fixed foreground workout both chaos-soak twins run: own
// the far-east column's frames, then rounds of moves (direct, staged and
// planned) followed by a full defragmentation. The at hook fires between
// rounds; the faulty twin uses it to inject faults and wait for the health
// lifecycle to converge while no foreground operation is in flight, which
// keeps the foreground delivery schedule identical across twins.
func soakScript(t *testing.T, s *System, rounds int, at func(tag string)) {
	t.Helper()
	if at == nil {
		at = func(string) {}
	}
	if _, err := s.Load(mkCounter("occ"), fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}); err != nil {
		t.Fatalf("soak: own far-east column: %v", err)
	}
	if err := s.Unload("occ"); err != nil {
		t.Fatalf("soak: free far-east column: %v", err)
	}
	loads := []struct {
		name string
		r    fabric.Rect
	}{
		{"a", fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}},
		{"b", fabric.Rect{Row: 0, Col: 4, H: 2, W: 2}},
		{"c", fabric.Rect{Row: 4, Col: 0, H: 2, W: 2}},
	}
	for _, l := range loads {
		if _, err := s.Load(mkCounter(l.name), l.r); err != nil {
			t.Fatalf("soak: load %s: %v", l.name, err)
		}
	}
	for r := 0; r < rounds; r++ {
		// Each round starts from a west-packed layout (the initial loads,
		// then each defragmentation), so the eastern scatter targets below
		// (columns 6-9; column 10-11 stays free so the quarantine there
		// never forces an evacuation) are always clear, and the staged
		// move's hop box (rows 4-7, columns 6-9) holds no other design.
		if err := s.Move("a", fabric.Rect{Row: 0, Col: 6, H: 2, W: 2}); err != nil {
			t.Fatalf("soak round %d: move a: %v", r, err)
		}
		if err := s.Move("b", fabric.Rect{Row: 4, Col: 6, H: 2, W: 2}); err != nil {
			t.Fatalf("soak round %d: move b: %v", r, err)
		}
		if err := s.Move("c", fabric.Rect{Row: 2, Col: 8, H: 2, W: 2}); err != nil {
			t.Fatalf("soak round %d: move c: %v", r, err)
		}
		if err := s.MoveStaged("b", fabric.Rect{Row: 6, Col: 8, H: 2, W: 2}, 2); err != nil {
			t.Fatalf("soak round %d: staged move b: %v", r, err)
		}
		if err := s.Plan().Move("c", fabric.Rect{Row: 2, Col: 2, H: 2, W: 2}).Commit(); err != nil {
			t.Fatalf("soak round %d: planned move c: %v", r, err)
		}
		if _, err := s.Defragment(DefragPolicy{}); err != nil {
			t.Fatalf("soak round %d: defragment: %v", r, err)
		}
		at(fmt.Sprintf("round-%d", r))
	}
}

// TestChaosSoakSelfHealing is the headline chaos property: a journaled
// system under a background scrubber runs a fixed foreground workout while
// a fault plan repeatedly corrupts one free column — driving it through
// suspect-free preemptive condemnation, failed and clean probes, release
// and probation — a crash capture taken at the condemnation seal is
// recovered CONCURRENTLY with the ongoing soak, and after the fault plan
// drains the system must converge back to full healthy capacity with its
// frames, book-keeping and cycle accounting bit-identical to a fault-free
// twin's. Run with -race.
func TestChaosSoakSelfHealing(t *testing.T) {
	runChaosSoak(t)
}

// TestChaosSoakCompressed is the same soak with delta/MFWR stream encoding
// on (both twins): scrubber repairs, probe traffic and retry re-delivery all
// ship compressed streams, and the converged system must still be
// bit-identical to its fault-free twin. The run also asserts compression
// actually engaged — the foreground workout must ship fewer words than its
// uncompressed equivalent would have.
func TestChaosSoakCompressed(t *testing.T) {
	sys := runChaosSoak(t, WithCompression())
	tr := sys.Traffic()
	if tr.WordsShifted == 0 || tr.WordsShifted >= tr.FullWords {
		t.Fatalf("compression never engaged: %+v", tr)
	}
}

// runChaosSoak is the soak body, parameterised with extra options applied to
// BOTH twins; it returns the soaked (faulty) system for extra assertions.
func runChaosSoak(t *testing.T, extra ...Option) *System {
	// ProbesToRelease is deliberately large: the soak observes the
	// quarantined state from a polling goroutine, and with a small streak
	// the scrubber (one probe per 200µs tick) can condemn, probe clean and
	// release a column inside a single poll interval — the test would miss
	// the whole window. ~400 probes ≈ 80ms of guaranteed visibility without
	// changing the lifecycle the test exercises.
	pol := HealthPolicy{
		Alpha:           0.5,
		SuspectAbove:    0.25,
		CondemnRepairs:  2,
		ProbesToRelease: 400,
		ProbationChecks: 2,
	}
	retry := WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 2})
	rounds := 4
	if testing.Short() {
		rounds = 3
	}
	dir := t.TempDir()

	// The fault-free twin fixes the expected end state (and the owned-frame
	// set of the far-east column, which is deterministic across twins).
	clean, err := New(append([]Option{WithDevice(fabric.TestDevice),
		WithJournal(filepath.Join(dir, "twin.journal")), retry, WithHealthPolicy(pol)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	soakScript(t, clean, rounds, nil)
	want := maskSoakStats(captureState(clean))
	major := clean.Device().MajorOfArrayCol(11)
	addr := ownedMinor(t, clean, major)
	colRect := fabric.Rect{Row: 0, Col: 11, H: clean.Device().Rows, W: 1}

	// The faulty twin: background scrubber + journal + delivered-frame
	// mirror + a crash capture armed at the first commit that seals the
	// quarantine mask.
	jpath := filepath.Join(dir, "op.journal")
	sys, flaky := faultSystem(t, 47, append([]Option{WithJournal(jpath), retry, WithHealthPolicy(pol),
		WithScrubber(200*time.Microsecond, 64)}, extra...)...)
	mirror := map[fabric.FrameAddr][]uint32{}
	sys.onDelivered = func(updates []bitstream.FrameUpdate) {
		for _, u := range updates {
			mirror[u.Addr] = append([]uint32(nil), u.Data...)
		}
	}
	var capMu sync.Mutex
	var capture *crashPoint
	sys.crashHook = func(stage string) {
		if stage != "commit" || !sys.area.QuarantineOverlaps(colRect) {
			return
		}
		capMu.Lock()
		defer capMu.Unlock()
		if capture != nil {
			return
		}
		data, err := os.ReadFile(jpath)
		if err != nil {
			return
		}
		if off := sys.jrnl.j.Offset(); int64(len(data)) > off {
			data = data[:off]
		}
		capture = &crashPoint{stage: stage, jdata: append([]byte(nil), data...), frames: cloneFrames(mirror)}
	}

	recErr := make(chan error, 1)
	recovering := false
	at := func(tag string) {
		switch tag {
		case "round-0":
			// First silent fault: the scrubber finds and repairs it.
			flaky.FlipBit(addr, 1, 3)
			waitFor(t, 20*time.Second, func() bool { return sys.Stats().ScrubRepairs >= 1 }, "first scrub repair")
		case "round-1":
			// Second repair of the same frame condemns the column; a crash
			// capture of that seal is recovered concurrently with the rest
			// of the soak; a probe-failure window exercises the streak
			// reset; then the fault plan drains and the column is released.
			flaky.FlipBit(addr, 1, 3)
			waitFor(t, 20*time.Second, func() bool { return sys.Capacity().QuarantinedCLBs == sys.Device().Rows }, "preemptive quarantine")
			capMu.Lock()
			cp := capture
			capMu.Unlock()
			if cp == nil {
				t.Fatal("no crash capture at the quarantine seal")
			}
			recovering = true
			go func() {
				recErr <- recoverSoakCapture(dir, cp, pol, colRect, major)
			}()
			flaky.FailFrames(addr)
			waitFor(t, 20*time.Second, func() bool { return sys.Stats().ProbeFailures >= 1 }, "probe failure")
			flaky.HealFrames(addr)
			waitFor(t, 20*time.Second, func() bool { return sys.Capacity().QuarantinedCLBs == 0 }, "quarantine release")
		}
	}
	soakScript(t, sys, rounds, at)

	if recovering {
		if err := <-recErr; err != nil {
			t.Fatalf("mid-soak recovery: %v", err)
		}
	} else {
		t.Fatal("fault phases never ran")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	cap := sys.Capacity()
	if cap.QuarantinedCLBs != 0 {
		t.Fatalf("soak did not converge to full capacity: %+v", cap)
	}
	if h := colHealth(sys, major); h.State != ColumnProbation && h.State != ColumnHealthy {
		t.Fatalf("column never came back into service: %+v", h)
	}
	st := sys.Stats()
	if st.ScrubRepairs < 2 || st.Probes < 2 || st.ProbeFailures < 1 || st.QuarantinesReleased < 1 {
		t.Fatalf("soak exercised less than the full lifecycle: %+v", st)
	}
	if diffs := diffStates(maskSoakStats(captureState(sys)), want); len(diffs) > 0 {
		t.Fatalf("soaked system diverges from fault-free twin (%d diffs): %s", len(diffs), diffs[0])
	}
	return sys
}

// recoverSoakCapture replays the mid-soak crash capture on a rebuilt device
// (goroutine-safe: errors are returned, not fataled).
func recoverSoakCapture(dir string, cp *crashPoint, pol HealthPolicy, colRect fabric.Rect, major int) error {
	dev := fabric.NewDevice(fabric.TestDevice)
	for a, w := range cp.frames {
		if err := dev.WriteFrame(a.Major, a.Minor, w); err != nil {
			return fmt.Errorf("rebuilding frame %v: %w", a, err)
		}
	}
	path := filepath.Join(dir, "crash.journal")
	if err := os.WriteFile(path, cp.jdata, 0o644); err != nil {
		return err
	}
	rec, rep, err := Recover(dev, path, WithHealthPolicy(pol))
	if err != nil {
		return err
	}
	if rep.Action != "clean" {
		return fmt.Errorf("recovery action %q, want clean (capture was a sealed commit)", rep.Action)
	}
	if !rec.Area().QuarantineOverlaps(colRect) {
		return fmt.Errorf("recovered system lost the quarantine mask")
	}
	if st := colHealth(rec, major).State; st != ColumnQuarantined {
		return fmt.Errorf("recovered health ledger has column F%d %v, want quarantined", major, st)
	}
	return rec.Close()
}
