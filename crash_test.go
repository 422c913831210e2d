package rlm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/relocate"
)

// hostState is everything the crash-consistency property compares: the full
// configuration image plus all host book-keeping and accounting.
type hostState struct {
	frames   map[fabric.FrameAddr][]uint32
	designs  map[string]string
	regions  map[string]int
	areaMap  string
	allocs   string
	stats    relocate.Stats
	cycles   uint64
	traffic  bitstream.Traffic
	lastTick float64
}

func dumpFrames(dev *fabric.Device) map[fabric.FrameAddr][]uint32 {
	out := map[fabric.FrameAddr][]uint32{}
	for major := 0; major < dev.NumMajors(); major++ {
		col, ok := dev.ColumnByMajor(major)
		if !ok {
			continue
		}
		for minor := 0; minor < col.Frames; minor++ {
			fr, err := dev.ReadFrame(major, minor)
			if err != nil {
				continue
			}
			out[fabric.FrameAddr{Major: major, Minor: minor}] = fr
		}
	}
	return out
}

func captureState(s *System) hostState {
	st := hostState{
		frames:   dumpFrames(s.dev),
		designs:  map[string]string{},
		regions:  map[string]int{},
		areaMap:  s.area.String(),
		stats:    s.engine.Stats,
		lastTick: s.engine.LastTick(),
	}
	// PlanSeconds is wall-clock host time, and the overlapped/serial
	// counters depend on how far the background shift-out happened to get:
	// whether a stream was still in flight when planning started, and
	// whether a write found its frame still streaming at the stage gate.
	// The journal carries all three as zero, so a recovered system restarts
	// them at zero while the never-crashed twin's keep counting, and two
	// runs of the same script legitimately differ anyway: the twin
	// comparison masks them. Everything else is bit-compared.
	st.stats.PlanSeconds = 0
	st.stats.OverlappedOps = 0
	st.stats.SerialFallbacks = 0
	for name, d := range s.designs {
		st.designs[name] = fmt.Sprintf("%v|%v|%v|%v", d.Region, d.CellOf, d.PadOf, d.SourceOf)
		st.regions[name] = s.regions[name]
	}
	al, next := s.area.Export()
	st.allocs = fmt.Sprintf("%v next=%d", al, next)
	if cp, ok := s.port.(interface{ Cycles() uint64 }); ok {
		st.cycles = cp.Cycles()
	}
	st.traffic = s.port.Meter().Usage(bitstream.Foreground).Traffic
	return st
}

func diffStates(got, want hostState) []string {
	var diffs []string
	for addr, w := range want.frames {
		g, ok := got.frames[addr]
		if !ok || !frameWordsEqual(g, w) {
			diffs = append(diffs, fmt.Sprintf("frame %v differs", addr))
		}
	}
	for addr := range got.frames {
		if _, ok := want.frames[addr]; !ok {
			diffs = append(diffs, fmt.Sprintf("extra frame %v", addr))
		}
	}
	if len(got.designs) != len(want.designs) {
		diffs = append(diffs, fmt.Sprintf("designs: got %v, want %v", keys(got.designs), keys(want.designs)))
	}
	for name, w := range want.designs {
		if got.designs[name] != w {
			diffs = append(diffs, fmt.Sprintf("design %q book-keeping differs:\n got %s\nwant %s", name, got.designs[name], w))
		}
		if got.regions[name] != want.regions[name] {
			diffs = append(diffs, fmt.Sprintf("design %q alloc id %d, want %d", name, got.regions[name], want.regions[name]))
		}
	}
	if got.areaMap != want.areaMap {
		diffs = append(diffs, fmt.Sprintf("area map:\n%s\nwant:\n%s", got.areaMap, want.areaMap))
	}
	if got.allocs != want.allocs {
		diffs = append(diffs, fmt.Sprintf("allocs: got %s, want %s", got.allocs, want.allocs))
	}
	if got.stats != want.stats {
		diffs = append(diffs, fmt.Sprintf("stats: got %+v, want %+v", got.stats, want.stats))
	}
	if got.cycles != want.cycles {
		diffs = append(diffs, fmt.Sprintf("port cycles: got %d, want %d", got.cycles, want.cycles))
	}
	if got.traffic != want.traffic {
		diffs = append(diffs, fmt.Sprintf("port traffic: got %+v, want %+v", got.traffic, want.traffic))
	}
	if got.lastTick != want.lastTick {
		diffs = append(diffs, fmt.Sprintf("last tick: got %v, want %v", got.lastTick, want.lastTick))
	}
	return diffs
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// crashPoint is one simulated crash: the journal bytes that had reached
// stable storage and the configuration the port had delivered to the fabric.
type crashPoint struct {
	stage  string
	seq    uint64
	jdata  []byte
	frames map[fabric.FrameAddr][]uint32
}

func cloneFrames(src map[fabric.FrameAddr][]uint32) map[fabric.FrameAddr][]uint32 {
	out := make(map[fabric.FrameAddr][]uint32, len(src))
	for a, w := range src {
		out[a] = append([]uint32(nil), w...)
	}
	return out
}

func deviceFromFrames(t *testing.T, frames map[fabric.FrameAddr][]uint32) *fabric.Device {
	t.Helper()
	dev := fabric.NewDevice(fabric.TestDevice)
	for addr, words := range frames {
		if err := dev.WriteFrame(addr.Major, addr.Minor, words); err != nil {
			t.Fatalf("rebuilding device frame %v: %v", addr, err)
		}
	}
	return dev
}

// crashScript is the deterministic facade workout both twins run: every
// journaled operation kind appears (load, move, plan, move-staged,
// defragmentation slides, unload via plan).
func crashScript(t *testing.T, s *System) {
	t.Helper()
	b01, err := itc99.Get("b01")
	if err != nil {
		t.Fatal(err)
	}
	b02, err := itc99.Get("b02")
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { _, err := s.Load(b01, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); return err },
		func() error { _, err := s.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}); return err },
		func() error { _, err := s.Load(b02, fabric.Rect{Row: 4, Col: 0, H: 4, W: 4}); return err },
		func() error { return s.Move("c1", fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}) },
		func() error {
			return s.Plan().
				Unload("b01").
				Move("b02", fabric.Rect{Row: 0, Col: 4, H: 4, W: 4}).
				Commit()
		},
		func() error { return s.MoveStaged("c1", fabric.Rect{Row: 0, Col: 10, H: 2, W: 2}, 3) },
		func() error { _, err := s.Defragment(DefragPolicy{}); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("script step %d: %v", i, err)
		}
	}
}

// TestCrashConsistency is the tentpole property test: a journaled system is
// "crashed" at every journal/flush boundary of a full facade workout, each
// crash is recovered from the journal prefix plus the port-delivered
// configuration, and the reconciled system must be bit-identical — frames,
// book-keeping, TCK accounting — to a never-crashed twin at the operation
// boundary the decision table selects. Run with -race.
func TestCrashConsistency(t *testing.T) {
	runCrashConsistency(t)
}

// runCrashConsistency is the crash-torture body, parameterised so variants
// (e.g. compressed delivery) can run the identical property with extra
// options on both twins. Recover reads no options: everything it needs to
// rebuild — including the extra options' effects — must come from the
// journal's init record.
func runCrashConsistency(t *testing.T, extra ...Option) {
	dir := t.TempDir()

	// The never-crashed twin: journaled too (identical code path), its state
	// captured at every commit seal, keyed by operation sequence number.
	twin, err := New(append([]Option{WithDevice(fabric.TestDevice),
		WithJournal(filepath.Join(dir, "twin.journal"))}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]hostState{0: captureState(twin)}
	twin.crashHook = func(stage string) {
		if stage == "commit" {
			oracle[twin.jrnl.seq] = captureState(twin)
		}
	}
	crashScript(t, twin)
	final := captureState(twin)

	// The crash victim: mirror every delivered frame (the harness's model of
	// what the real fabric holds) and capture journal prefix + mirror at
	// every boundary.
	jpath := filepath.Join(dir, "op.journal")
	sys, err := New(append([]Option{WithDevice(fabric.TestDevice), WithJournal(jpath)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	mirror := map[fabric.FrameAddr][]uint32{}
	sys.onDelivered = func(updates []bitstream.FrameUpdate) {
		for _, u := range updates {
			mirror[u.Addr] = append([]uint32(nil), u.Data...)
		}
	}
	var captures []crashPoint
	sys.crashHook = func(stage string) {
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatalf("reading journal at %s boundary: %v", stage, err)
		}
		if off := sys.jrnl.j.Offset(); int64(len(data)) > off {
			data = data[:off]
		}
		captures = append(captures, crashPoint{
			stage:  stage,
			seq:    sys.jrnl.seq,
			jdata:  append([]byte(nil), data...),
			frames: cloneFrames(mirror),
		})
	}
	crashScript(t, sys)
	if len(captures) == 0 {
		t.Fatal("no crash boundaries fired")
	}

	stages := map[string]int{}
	actions := map[string]int{}
	for i, cp := range captures {
		stages[cp.stage]++
		path := filepath.Join(dir, fmt.Sprintf("crash-%03d.journal", i))
		if err := os.WriteFile(path, cp.jdata, 0o644); err != nil {
			t.Fatal(err)
		}
		dev := deviceFromFrames(t, cp.frames)
		rec, rep, err := Recover(dev, path)
		if err != nil {
			t.Fatalf("capture %d (%s, seq %d): recover: %v", i, cp.stage, cp.seq, err)
		}
		var wantAction string
		var want hostState
		switch cp.stage {
		case "post":
			wantAction, want = "rolled-forward", oracle[cp.seq]
		case "commit":
			wantAction, want = "clean", oracle[cp.seq]
		case "begin", "undo", "delivered":
			wantAction, want = "rolled-back", oracle[cp.seq-1]
		default:
			t.Fatalf("capture %d: unknown stage %q", i, cp.stage)
		}
		if rep.Action != wantAction {
			t.Errorf("capture %d (%s, seq %d): action %q, want %q", i, cp.stage, cp.seq, rep.Action, wantAction)
		}
		actions[rep.Action]++
		if diffs := diffStates(captureState(rec), want); len(diffs) > 0 {
			t.Fatalf("capture %d (%s, seq %d, %s): recovered state diverges from twin:\n%s",
				i, cp.stage, cp.seq, rep.Action, diffs[0])
		}
		// Recovery leaves the journal sealed: a second recovery (idempotence)
		// must be clean and land on the same state.
		dev2 := deviceFromFrames(t, dumpFrames(rec.dev))
		rec2, rep2, err := Recover(dev2, path)
		if err != nil {
			t.Fatalf("capture %d: re-recover: %v", i, err)
		}
		if rep2.Action != "clean" {
			t.Errorf("capture %d: re-recover action %q, want clean", i, rep2.Action)
		}
		if diffs := diffStates(captureState(rec2), want); len(diffs) > 0 {
			t.Fatalf("capture %d: re-recovered state diverges: %s", i, diffs[0])
		}
	}
	// The decision table must have been exercised both ways.
	if actions["rolled-forward"] == 0 || actions["rolled-back"] == 0 {
		t.Fatalf("decision table not fully exercised: %v (stages %v)", actions, stages)
	}
	// And the uncrashed victim ends bit-identical to the twin.
	if diffs := diffStates(captureState(sys), final); len(diffs) > 0 {
		t.Fatalf("victim and twin diverge without any crash: %s", diffs[0])
	}
}

// TestRecoverContinuesJournaling recovers the final state of a scripted run
// and checks the recovered system is live: further operations journal onto
// the sealed file with correct sequence numbering and survive a re-recovery.
func TestRecoverContinuesJournaling(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	crashScript(t, sys)
	want := captureState(sys)

	dev := deviceFromFrames(t, dumpFrames(sys.dev))
	rec, rep, err := Recover(dev, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "clean" {
		t.Fatalf("action = %q, want clean", rep.Action)
	}
	// A clean journal needs no reconciliation, so recovery shifts nothing.
	if rep.RecoverySeconds != 0 {
		t.Fatalf("clean recovery consumed %v s of port time, want 0", rep.RecoverySeconds)
	}
	if diffs := diffStates(captureState(rec), want); len(diffs) > 0 {
		t.Fatalf("recovered state diverges: %s", diffs[0])
	}
	if _, err := rec.Load(mkCounter("after"), fabric.Rect{Row: 6, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatalf("post-recovery load: %v", err)
	}
	// The continued journal recovers again, with the new op committed.
	dev2 := deviceFromFrames(t, dumpFrames(rec.dev))
	rec2, rep2, err := Recover(dev2, jpath)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if rep2.Action != "clean" {
		t.Errorf("second recovery action = %q, want clean", rep2.Action)
	}
	if _, ok := rec2.Design("after"); !ok {
		t.Error("post-recovery op lost by second recovery")
	}
	if rep2.Seq <= rep.Seq {
		t.Errorf("sequence did not advance: %d -> %d", rep.Seq, rep2.Seq)
	}
}

// TestRecoverTornTail tears the journal mid-record at a post boundary: the
// post state is lost, so recovery must fall back to roll-back.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	mirror := map[fabric.FrameAddr][]uint32{}
	sys.onDelivered = func(updates []bitstream.FrameUpdate) {
		for _, u := range updates {
			mirror[u.Addr] = append([]uint32(nil), u.Data...)
		}
	}
	oracle := map[uint64]hostState{0: captureState(sys)}
	var atPost *crashPoint
	sys.crashHook = func(stage string) {
		if stage == "commit" {
			oracle[sys.jrnl.seq] = captureState(sys)
		}
		if stage != "post" || atPost != nil || sys.jrnl.seq != 2 {
			return
		}
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatalf("reading journal: %v", err)
		}
		atPost = &crashPoint{seq: sys.jrnl.seq, jdata: append([]byte(nil), data...), frames: cloneFrames(mirror)}
	}
	crashScript(t, sys)
	if atPost == nil {
		t.Fatal("post boundary of op 2 never fired")
	}
	// Tear the final (post) record's payload.
	path := filepath.Join(dir, "torn.journal")
	if err := os.WriteFile(path, atPost.jdata[:len(atPost.jdata)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(deviceFromFrames(t, atPost.frames), path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "rolled-back" {
		t.Errorf("action = %q, want rolled-back (post record torn away)", rep.Action)
	}
	if diffs := diffStates(captureState(rec), oracle[atPost.seq-1]); len(diffs) > 0 {
		t.Fatalf("recovered state diverges from pre-op twin: %s", diffs[0])
	}
}

// TestRecoverRoutesNextLoadLikeTwin pins that a load's routes depend on the
// configuration memory alone. Twin A loads design a, then design b. Twin B
// loads a, then goes through a history that leaves the configuration memory
// as it was — a crash recovered from its journal onto its own device, or a
// load and unload of a design elsewhere — and then loads b. Both twins must
// end with identical frames and identical routes for b: a router that keeps
// congestion or ownership state from an earlier operation fails it.
func TestRecoverRoutesNextLoadLikeTwin(t *testing.T) {
	gen := func(name string, seed uint64) *netlist.Netlist {
		return itc99.Generate(itc99.GenConfig{Name: name, Inputs: 4, Outputs: 4,
			Style: itc99.FreeRunning, Seed: seed}.SizedTo(9*fabric.CellsPerCLB, 0.6))
	}
	regA := fabric.Rect{Row: 2, Col: 2, H: 3, W: 3}
	regB := fabric.Rect{Row: 2, Col: 5, H: 3, W: 3}
	regX := fabric.Rect{Row: 10, Col: 10, H: 3, W: 3}
	dir := t.TempDir()
	newLoaded := func(t *testing.T, jpath string, seed uint64) *System {
		t.Helper()
		s, err := New(WithDevice(fabric.XCV50), WithPort(SelectMAP), WithJournal(jpath))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(gen("a", seed), regA); err != nil {
			t.Fatalf("loading a: %v", err)
		}
		return s
	}
	histories := []struct {
		name string
		run  func(t *testing.T, s *System, jpath string, seed uint64) *System
	}{
		{"recovered", func(t *testing.T, s *System, jpath string, _ uint64) *System {
			rec, _, err := Recover(s.dev, jpath)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			return rec
		}},
		{"load-unload", func(t *testing.T, s *System, _ string, seed uint64) *System {
			if _, err := s.Load(gen("x", seed+7), regX); err != nil {
				t.Fatalf("loading x: %v", err)
			}
			if err := s.Unload("x"); err != nil {
				t.Fatalf("unloading x: %v", err)
			}
			return s
		}},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		twin := newLoaded(t, filepath.Join(dir, fmt.Sprintf("twin-%d.journal", seed)), seed)
		if _, err := twin.Load(gen("b", seed+100), regB); err != nil {
			t.Fatalf("seed %d: twin loading b: %v", seed, err)
		}
		wantFrames := dumpFrames(twin.dev)
		want, _ := twin.Design("b")
		for _, h := range histories {
			t.Run(fmt.Sprintf("%s/seed=%d", h.name, seed), func(t *testing.T) {
				jpath := filepath.Join(dir, fmt.Sprintf("%s-%d.journal", h.name, seed))
				s := h.run(t, newLoaded(t, jpath, seed), jpath, seed)
				if _, err := s.Load(gen("b", seed+100), regB); err != nil {
					t.Fatalf("loading b: %v", err)
				}
				got, _ := s.Design("b")
				if !reflect.DeepEqual(got.Nets, want.Nets) {
					t.Errorf("routes of b differ from the twin's")
				}
				if diffs := diffStates(hostState{frames: dumpFrames(s.dev)}, hostState{frames: wantFrames}); len(diffs) > 0 {
					t.Errorf("%d frame diffs from the twin, first: %s", len(diffs), diffs[0])
				}
			})
		}
	}
}

// TestRecoverReadsRetiredStateKeys recovers a checked-in journal whose Post
// states still carry the keys later writers dropped: each design's routed
// nets ("nets") and the pad reservations ("pads"). Its history is three
// mkCounter loads on TestDevice, a replica Move and an Unload. An unjournaled
// twin replays the same calls to provide the device. Recovery must be clean
// and install the twin's designs, and the next load must bind the twin's
// pads, although the pads now come from the designs' PadOf tables.
func TestRecoverReadsRetiredStateKeys(t *testing.T) {
	twin, err := New(WithDevice(fabric.TestDevice))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for i, region := range []fabric.Rect{
		{Row: 0, Col: 8, H: 2, W: 2}, {Row: 3, Col: 4, H: 2, W: 2}, {Row: 6, Col: 4, H: 2, W: 2},
	} {
		if _, err := twin.Load(mkCounter(fmt.Sprintf("c%d", i+1)), region); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.Move("c1", fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	if err := twin.Unload("c2"); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "retired-state-keys.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nets":`, `"pads":`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("the checked-in journal carries no %s key", key)
		}
	}
	jpath := filepath.Join(t.TempDir(), "retired.journal")
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(deviceFromFrames(t, dumpFrames(twin.dev)), jpath)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	if rep.Action != "clean" {
		t.Fatalf("action %q, want clean", rep.Action)
	}
	if got, want := rec.Designs(), twin.Designs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered designs %v, twin holds %v", got, want)
	}
	for _, name := range twin.Designs() {
		want, _ := twin.Design(name)
		got, _ := rec.Design(name)
		if got.Region != want.Region || !reflect.DeepEqual(got.CellOf, want.CellOf) ||
			!reflect.DeepEqual(got.PadOf, want.PadOf) || !reflect.DeepEqual(got.SourceOf, want.SourceOf) {
			t.Errorf("design %q: recovered %v %v %v %v, twin %v %v %v %v", name,
				got.Region, got.CellOf, got.PadOf, got.SourceOf,
				want.Region, want.CellOf, want.PadOf, want.SourceOf)
		}
	}
	next := fabric.Rect{Row: 3, Col: 8, H: 2, W: 2}
	want, err := twin.Load(mkCounter("c4"), next)
	if err != nil {
		t.Fatalf("twin loading c4: %v", err)
	}
	got, err := rec.Load(mkCounter("c4"), next)
	if err != nil {
		t.Fatalf("recovered system loading c4: %v", err)
	}
	if !reflect.DeepEqual(got.PadOf, want.PadOf) {
		t.Errorf("next load bound pads %v, twin bound %v", got.PadOf, want.PadOf)
	}
	for _, name := range []string{"c1", "c3"} {
		d, _ := rec.Design(name)
		for _, p := range d.PadOf {
			for _, q := range got.PadOf {
				if p == q {
					t.Errorf("next load bound pad %v, which %s holds", q, name)
				}
			}
		}
	}
}

// TestRecoverTypedErrors covers the refusal paths: empty journal, mid-file
// corruption, device-geometry mismatch, and a journal whose committed designs
// the device readback no longer shows. It also pins their order: a payload
// that fails to decode wins over a geometry mismatch and over a bad option,
// and a port factory's panic reaches the caller.
func TestRecoverTypedErrors(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "op.journal")
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Load(mkCounter("c1"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2}); err != nil {
		t.Fatal(err)
	}
	goodDev := deviceFromFrames(t, dumpFrames(sys.dev))

	t.Run("empty", func(t *testing.T) {
		empty := filepath.Join(dir, "empty.journal")
		if err := os.WriteFile(empty, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Recover(goodDev, empty); !errors.Is(err, journal.ErrEmpty) {
			t.Errorf("empty journal: %v, want ErrEmpty", err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		data[len(journal.Magic)+10] ^= 0x01 // inside the init record's payload
		bad := filepath.Join(dir, "corrupt.journal")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Recover(goodDev, bad); !errors.Is(err, journal.ErrChecksum) {
			t.Errorf("corrupt journal: %v, want ErrChecksum", err)
		}
	})
	t.Run("geometry-mismatch", func(t *testing.T) {
		wrong := fabric.NewDevice(fabric.XCV50)
		if _, _, err := Recover(wrong, jpath); !errors.Is(err, ErrDeviceMismatch) {
			t.Errorf("wrong device: %v, want ErrDeviceMismatch", err)
		}
	})
	t.Run("design-vanished", func(t *testing.T) {
		// Same geometry, but the fabric shows none of the journaled design's
		// cells (e.g. the device was power-cycled while the host was down).
		blank := fabric.NewDevice(fabric.TestDevice)
		if _, _, err := Recover(blank, jpath); !errors.Is(err, ErrDeviceMismatch) {
			t.Errorf("blank device: %v, want ErrDeviceMismatch", err)
		}
	})
	t.Run("journal-exists", func(t *testing.T) {
		if _, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath)); !errors.Is(err, journal.ErrExists) {
			t.Errorf("New over history: %v, want ErrExists", err)
		}
	})

	// A crash at the post boundary of a move after two loads: a committed
	// Post, then an open tail with Undos and its own Post. Each of the three
	// payloads recovery decodes is cut after its leading {"seq":N, so it
	// passes its CRC and the grammar pass but does not decode.
	crash := postCrash(t, filepath.Join(dir, "tail.journal"))
	log, err := journal.ScanBytes(crash.jdata)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Records
	last := func(tp journal.RecType, before int) int {
		for i := before - 1; i > 0; i-- {
			if recs[i].Type == tp {
				return i
			}
		}
		t.Fatalf("no %v record before record %d", tp, before)
		return 0
	}
	tailBegin := last(journal.RecBegin, len(recs))
	if recs[tailBegin+1].Type != journal.RecUndo || recs[len(recs)-1].Type != journal.RecPost {
		t.Fatalf("the crash tail is not Begin, Undo..., Post")
	}
	malformed := map[string]string{}
	for name, i := range map[string]int{
		"committed-post": last(journal.RecPost, last(journal.RecCommit, len(recs))),
		"tail-undo":      tailBegin + 1,
		"tail-post":      len(recs) - 1,
	} {
		p := recs[i].Payload
		path := filepath.Join(dir, name+".journal")
		if err := os.WriteFile(path, withPayload(recs, i, p[:bytes.IndexByte(p, ',')+1]), 0o644); err != nil {
			t.Fatal(err)
		}
		malformed[name] = path
	}
	t.Run("malformed-replay-wins", func(t *testing.T) {
		for name, path := range malformed {
			for _, dev := range []*fabric.Device{deviceFromFrames(t, crash.frames), fabric.NewDevice(fabric.XCV50)} {
				if _, _, err := Recover(dev, path); !errors.Is(err, journal.ErrMalformed) || errors.Is(err, ErrDeviceMismatch) {
					t.Errorf("%s on %s: %v, want ErrMalformed alone", name, dev.Name, err)
				}
			}
		}
	})
	t.Run("invalid-option", func(t *testing.T) {
		_, want := New(WithDevice(fabric.TestDevice), WithPortWidth(16))
		if want == nil {
			t.Fatal("New accepted WithPortWidth(16) on Boundary-Scan")
		}
		if _, _, err := Recover(goodDev, jpath, WithPortWidth(16)); err == nil || err.Error() != want.Error() {
			t.Errorf("WithPortWidth(16): %v, want %v", err, want)
		}
		dev := deviceFromFrames(t, crash.frames)
		if _, _, err := Recover(dev, malformed["tail-post"], WithPortWidth(16)); !errors.Is(err, journal.ErrMalformed) {
			t.Errorf("malformed tail with WithPortWidth(16): %v, want ErrMalformed", err)
		}
	})
	t.Run("panicking-port-model", func(t *testing.T) {
		type boom struct{}
		defer func() {
			if r := recover(); r != (boom{}) {
				t.Errorf("recovered %v, want the factory's panic", r)
			}
		}()
		Recover(goodDev, jpath, WithPortModel(func(*bitstream.Controller) bitstream.Port { panic(boom{}) }))
		t.Error("Recover returned over a panicking port factory")
	})
}

// postCrash runs a journaled workout at jpath (two loads, then a move) and
// returns the crash captured at the move's post boundary: the shift has
// landed and its Post is durable, but the seal is lost, so recovery rolls it
// forward after reading back every dirty frame.
func postCrash(tb testing.TB, jpath string) crashPoint { return historyCrash(tb, jpath, 0) }

// historyCrash is postCrash after a history: between the loads and the
// crashed move, the moved design goes there and back sealed/2 times, so the
// device and the crashed move are the same whatever sealed (even) is.
func historyCrash(tb testing.TB, jpath string, sealed int) crashPoint {
	tb.Helper()
	sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath))
	if err != nil {
		tb.Fatal(err)
	}
	defer sys.Close()
	mirror := map[fabric.FrameAddr][]uint32{}
	sys.onDelivered = func(updates []bitstream.FrameUpdate) {
		for _, u := range updates {
			mirror[u.Addr] = append([]uint32(nil), u.Data...)
		}
	}
	var crash *crashPoint
	sys.crashHook = func(stage string) {
		if stage != "post" {
			return
		}
		data, err := os.ReadFile(jpath)
		if err != nil {
			tb.Fatal(err)
		}
		crash = &crashPoint{stage: stage, seq: sys.jrnl.seq,
			jdata: data[:sys.jrnl.j.Offset()], frames: cloneFrames(mirror)}
	}
	b01, err := itc99.Get("b01")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sys.Load(b01, fabric.Rect{Row: 0, Col: 0, H: 4, W: 4}); err != nil {
		tb.Fatal(err)
	}
	home := fabric.Rect{Row: 0, Col: 8, H: 2, W: 2}
	if _, err := sys.Load(mkCounter("c1"), home); err != nil {
		tb.Fatal(err)
	}
	away := fabric.Rect{Row: 6, Col: 10, H: 2, W: 2}
	for i := 0; i < sealed; i++ {
		if err := sys.Move("c1", [2]fabric.Rect{away, home}[i%2]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sys.Move("c1", away); err != nil {
		tb.Fatal(err)
	}
	if crash == nil {
		tb.Fatal("no post boundary fired")
	}
	return *crash
}

// TestRecoverBytesIndependentOfHistory pins Recover's memory to the records
// it decodes: the same crash, recovered after 2 and after 34 sealed moves
// of one design moved there and back, must allocate the same bytes
// (runtime.MemStats.TotalAlloc, averaged over runs after a warm-up) within
// 16 KiB, although the longer journal is many times the size.
func TestRecoverBytesIndependentOfHistory(t *testing.T) {
	const runs = 8
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.journal")
	var size [2]int
	var alloc [2]float64
	for k, sealed := range []int{2, 34} {
		crash := historyCrash(t, filepath.Join(dir, fmt.Sprintf("history-%d.journal", sealed)), sealed)
		var total uint64
		for i := 0; i <= runs; i++ {
			if err := os.WriteFile(path, crash.jdata, 0o644); err != nil {
				t.Fatal(err)
			}
			dev := deviceFromFrames(t, crash.frames)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sys, rep, err := Recover(dev, path)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%d sealed moves: %v", sealed, err)
			}
			sys.Close()
			if rep.Action != "rolled-forward" {
				t.Fatalf("%d sealed moves: action %q, want rolled-forward", sealed, rep.Action)
			}
			if i > 0 { // the first run is the warm-up
				total += after.TotalAlloc - before.TotalAlloc
			}
		}
		size[k], alloc[k] = len(crash.jdata), float64(total)/runs
	}
	t.Logf("Recover allocates %.0f B over a %d-byte journal (2 sealed moves) and %.0f B over a %d-byte one (34)",
		alloc[0], size[0], alloc[1], size[1])
	if d := alloc[1] - alloc[0]; d > 16<<10 || d < -16<<10 {
		t.Errorf("Recover allocates %.0f B after 2 sealed moves and %.0f B after 34: %+.0f B, over 16 KiB",
			alloc[0], alloc[1], d)
	}
}

// withPayload frames recs into a journal image, with payload in place of
// record i's.
func withPayload(recs []journal.Record, i int, payload []byte) []byte {
	img := []byte(journal.Magic)
	for k, rec := range recs {
		p := rec.Payload
		if k == i {
			p = payload
		}
		img = append(img, byte(rec.Type))
		img = binary.LittleEndian.AppendUint32(img, uint32(len(p)))
		img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(p))
		img = append(img, p...)
	}
	return img
}

// TestRecoverConcurrently recovers one crash capture from several goroutines
// at once, each from its own copy of the journal onto its own device. Every
// recovery must equal a sequential one (report, designs, frames and Stats),
// and no goroutine Recover starts may outlive it. Run with -race.
func TestRecoverConcurrently(t *testing.T) {
	dir := t.TempDir()
	crash := postCrash(t, filepath.Join(dir, "op.journal"))
	recoverCopy := func(i int) (*System, *RecoverReport, error) {
		path := filepath.Join(dir, fmt.Sprintf("crash-%d.journal", i))
		if err := os.WriteFile(path, crash.jdata, 0o644); err != nil {
			return nil, nil, err
		}
		dev := fabric.NewDevice(fabric.TestDevice)
		for addr, words := range crash.frames {
			if err := dev.WriteFrame(addr.Major, addr.Minor, words); err != nil {
				return nil, nil, err
			}
		}
		return Recover(dev, path)
	}
	ref, wantRep, err := recoverCopy(0)
	if err != nil {
		t.Fatal(err)
	}
	want := captureState(ref)
	ref.Close()

	const workers = 4
	base := runtime.NumGoroutine()
	systems := make([]*System, workers)
	reps := make([]*RecoverReport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			systems[i], reps[i], errs[i] = recoverCopy(i + 1)
		}()
	}
	wg.Wait()
	for i := range workers {
		if errs[i] != nil {
			t.Fatalf("recovery %d: %v", i, errs[i])
		}
		defer systems[i].Close()
		if !reflect.DeepEqual(reps[i], wantRep) {
			t.Errorf("recovery %d reported %+v, want %+v", i, reps[i], wantRep)
		}
		if diffs := diffStates(captureState(systems[i]), want); len(diffs) > 0 {
			t.Errorf("recovery %d diverges from a sequential one: %s", i, diffs[0])
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after the recoveries returned: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
