package rlm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/itc99"
	"repro/internal/journal"
	"repro/internal/jtag"
	"repro/internal/workload"
)

// fuzzOps caps the interpreted op stream so one fuzz execution stays cheap;
// fuzzDefrags additionally bounds full-compaction passes, the one op kind
// whose cost is a multiple of everything loaded so far.
const (
	fuzzOps     = 10
	fuzzDefrags = 2
)

// fuzzSeedFromTasks folds a workload task stream into fuzz input: the ISSUE's
// "seeded from exported traces" — arrival order, region shapes and service
// mix become the op stream the interpreter below replays.
func fuzzSeedFromTasks(sel, flk byte, tasks []workload.Task) []byte {
	out := []byte{sel, flk}
	for _, tk := range tasks {
		var op byte
		switch {
		case tk.H >= 4 && tk.W >= 4:
			op = 1 // big load
		case tk.Service > tk.Arrival:
			op = 0 // small load
		default:
			op = 2 // move
		}
		out = append(out, op, byte(tk.H*16+int(tk.Profile.Seed%8)), byte(tk.W*16+tk.ID%8))
	}
	return out
}

// FuzzFacadeOps interprets fuzz bytes as a random facade workout on a
// journaled system with an injectable flaky port and simulated crash points,
// then recovers one crash capture and checks the recovery invariants: no
// panic anywhere, only typed errors out of Recover, the recovered journal
// sealed, and the recovered book-keeping backed by device readback. After
// every op the engine's occupancy view must equal a rescan of the
// configuration memory (AuditView).
//
// Input layout: byte 0 selects the crash capture to recover, byte 1 encodes
// the fault injection (0 = healthy; low 3 bits = which op; bit 3 = fault
// class — clear for a transient stream trip with the high 4 bits as frame
// budget, set for the persistent/SEU plans with the high 4 bits picking the
// condemned column and the sub-mode), then 3 bytes per op. The op dispatch
// is code % 8: ops 0-5 are the facade workout, op 6 pulses a transport
// stall (the watchdog must absorb or surface it typed), op 7 heals the hurt
// frame and runs a scrub pass — the probe/release schedule, drawn from the
// same bytes.
func FuzzFacadeOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})                                  // one small load, recover first boundary
	f.Add([]byte{7, 0, 1, 0, 0, 0, 50, 100, 2, 10, 200})          // big+small load then move
	f.Add([]byte{3, 0x22, 0, 0, 0, 4, 90, 33, 5, 0, 0})           // staged move + defrag, port dies on op 2
	f.Add([]byte{11, 0x91, 1, 7, 7, 0, 60, 60, 3, 0, 0, 5, 1, 1}) // unload + defrag, late injection
	f.Add([]byte{4, 0x29, 1, 0, 0, 2, 40, 80, 0, 6, 6})           // persistent frame failure on op 1: retry, quarantine, evacuate
	f.Add([]byte{6, 0x3A, 0, 0, 0, 1, 2, 2, 2, 70, 10})           // silent SEU on op 2, scrubbed after the workout
	f.Add([]byte{2, 0, 6, 2, 0, 0, 10, 20, 6, 0, 0, 2, 30, 40})   // stall pulses around a load and a move
	f.Add([]byte{5, 0x29, 1, 0, 0, 2, 40, 80, 7, 6, 6})           // persistent fault, then heal-and-probe toward release
	f.Add(fuzzSeedFromTasks(5, 0, workload.Stream(workload.Config{Seed: 7, N: 6, MinSide: 2, MaxSide: 4})))
	f.Add(fuzzSeedFromTasks(9, 0x53, workload.Stream(workload.Config{Seed: 40, N: 8, MinSide: 2, MaxSide: 5, RAMFraction: 0.3})))

	f.Fuzz(fuzzFacadeRun)
}

// TestFuzzFacadeHeavyInput drives the fuzz body deterministically with the
// most work-amplifying input the interpreter admits — big loads, corner-to-
// corner staged moves, two bounded-step compactions — so the per-execution
// cost cap is regression-tested without -fuzz.
func TestFuzzFacadeHeavyInput(t *testing.T) {
	data := []byte{0, 0}
	data = append(data, 1, 0, 0) // b01 at 0,0
	data = append(data, 1, 1, 8) // b02 at 1,8
	for i := 0; i < 4; i++ {
		data = append(data, 4, byte(4*i), byte(255-32*i)) // staged moves
	}
	data = append(data, 5, 1, 0) // bounded-step full compactions
	data = append(data, 5, 1, 0)
	fuzzFacadeRun(t, data)
}

// fuzzFacadeRun is the fuzz body, named so deterministic tests can drive it
// with crafted inputs.
func fuzzFacadeRun(t *testing.T, data []byte) {
	{
		if len(data) < 2 {
			return
		}
		sel, flk, stream := data[0], data[1], data[2:]

		dir := t.TempDir()
		jpath := filepath.Join(dir, "op.journal")
		var flaky *faultport.Port
		sys, err := New(WithDevice(fabric.TestDevice), WithJournal(jpath),
			// The retry ladder runs inside the journal barrier, so crashes in
			// the "retry" stage are part of the capture set.
			WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 2}),
			// Aggressive health thresholds so short fuzz streams can reach
			// every lifecycle state; a short watchdog so op-6 stall pulses
			// surface through the ladder instead of hanging the run.
			WithHealthPolicy(HealthPolicy{Alpha: 0.5, SuspectAbove: 0.25,
				CondemnRepairs: 2, ProbesToRelease: 1, ProbationChecks: 2}),
			WithStallTimeout(time.Millisecond),
			WithPortModel(func(ctrl *bitstream.Controller) bitstream.Port {
				flaky = faultport.New(jtag.NewPort(ctrl, jtag.DefaultTCKHz), uint64(flk))
				return flaky
			}))
		if err != nil {
			t.Fatalf("new system: %v", err)
		}
		mirror := map[fabric.FrameAddr][]uint32{}
		sys.onDelivered = func(updates []bitstream.FrameUpdate) {
			for _, u := range updates {
				mirror[u.Addr] = append([]uint32(nil), u.Data...)
			}
		}
		// The journal is append-only while the system lives, so a crash
		// capture only needs the durable offset — the byte prefix is sliced
		// from one final read instead of re-reading the growing file at
		// every boundary.
		type fuzzCapture struct {
			stage  string
			seq    uint64
			off    int64
			frames map[fabric.FrameAddr][]uint32
		}
		var captures []fuzzCapture
		sys.crashHook = func(stage string) {
			if len(captures) >= 1024 {
				return
			}
			captures = append(captures, fuzzCapture{
				stage:  stage,
				seq:    sys.jrnl.seq,
				off:    sys.jrnl.j.Offset(),
				frames: cloneFrames(mirror),
			})
		}

		// Interpret the op stream. Facade errors (region busy, unknown
		// design, injected port failures, ...) are expected outcomes — the
		// invariants are "never panic" and "every crash point recovers".
		var loaded []string
		counters, defrags := 0, 0
		rows, cols := fabric.TestDevice.Rows, fabric.TestDevice.Cols
		pick := func(b byte) string { return loaded[int(b)%len(loaded)] }
		drop := func(name string) {
			for i, n := range loaded {
				if n == name {
					loaded = append(loaded[:i], loaded[i+1:]...)
					return
				}
			}
		}
		var hurtFrame fabric.FrameAddr
		persistent, seu := false, false
		for op := 0; op < fuzzOps && len(stream) >= 3; op++ {
			code, a, c := stream[0], stream[1], stream[2]
			stream = stream[3:]
			if flk != 0 && op == int(flk&7) {
				hi := int(flk >> 4)
				switch {
				case flk&0x08 == 0:
					flaky.TripAfter(hi)
				case hi%2 == 0: // persistent write failure in a derived column
					hurtFrame = fabric.FrameAddr{Major: hi / 2 % sys.Device().NumMajors(), Minor: int(a) % 2}
					flaky.FailFrames(hurtFrame)
					persistent = true
				default: // silent SEU, repaired by the scrub pass after the workout
					hurtFrame = fabric.FrameAddr{Major: hi / 2 % sys.Device().NumMajors(), Minor: 0}
					flaky.FlipBit(hurtFrame, int(c)%4, int(a)%32)
					seu = true
				}
			}
			switch code % 8 {
			case 0: // small counter load
				name := fmt.Sprintf("f%d", counters)
				counters++
				r := fabric.Rect{Row: int(a) % (rows - 1), Col: int(c) % (cols - 1), H: 2, W: 2}
				if _, err := sys.Load(mkCounter(name), r); err == nil {
					loaded = append(loaded, name)
				}
			case 1: // ITC'99 load (4x4)
				bench := "b01"
				if a&1 == 1 {
					bench = "b02"
				}
				nl, err := itc99.Get(bench)
				if err != nil {
					t.Fatal(err)
				}
				r := fabric.Rect{Row: int(a) % (rows - 3), Col: int(c) % (cols - 3), H: 4, W: 4}
				if _, err := sys.Load(nl, r); err == nil {
					loaded = append(loaded, bench)
				}
			case 2: // move
				if len(loaded) == 0 {
					continue
				}
				name := pick(a)
				from, ok := sys.Region(name)
				if !ok {
					continue
				}
				to := fabric.Rect{Row: int(a) % (rows - from.H + 1), Col: int(c) % (cols - from.W + 1), H: from.H, W: from.W}
				_ = sys.Move(name, to)
			case 3: // unload
				if len(loaded) == 0 {
					continue
				}
				name := pick(a)
				if err := sys.Unload(name); err == nil {
					drop(name)
				}
			case 4: // staged move
				if len(loaded) == 0 {
					continue
				}
				name := pick(a)
				from, ok := sys.Region(name)
				if !ok {
					continue
				}
				to := fabric.Rect{Row: int(c) % (rows - from.H + 1), Col: int(a) % (cols - from.W + 1), H: from.H, W: from.W}
				_ = sys.MoveStaged(name, to, 1+int(a%4))
			case 5: // defragment
				if defrags >= fuzzDefrags {
					continue
				}
				defrags++
				pol := DefragPolicy{}
				if a&1 == 1 {
					pol.MaxStep = 1 + int(c%3)
				}
				_, _ = sys.Defragment(pol)
			case 6: // transport stall pulse (0 disables)
				flaky.SetStall(time.Duration(a%5) * 500 * time.Microsecond)
			case 7: // heal the hurt frame and probe toward release
				flaky.HealFrames(hurtFrame)
				// The pass may trip an injected fault armed for this very
				// op — an expected outcome, like any facade error here.
				_, _ = sys.Scrub(0)
			}
			flaky.Disarm()
			if persistent {
				// Scope the persistent fault to its op, like the transient
				// trip: the quarantine it provoked (if the op tripped over
				// it) is already permanent system state.
				flaky.HealFrames(hurtFrame)
				persistent = false
			}
			// Whatever the op did — committed, refused, rolled back,
			// retried or quarantined — the engine's occupancy view must
			// equal a rescan of the configuration memory.
			if err := auditView(sys); err != nil {
				t.Fatalf("op %d (code %d): %v", op, code%8, err)
			}
		}
		if seu {
			// The scrubber's half of the fault model: a silent flip must be
			// found and repaired without disturbing the journal.
			if _, err := sys.Scrub(0); err != nil {
				t.Fatalf("scrub after SEU: %v", err)
			}
		}
		if len(captures) == 0 {
			return
		}

		// Recover the selected crash capture against the mirrored fabric.
		cp := captures[int(sel)%len(captures)]
		jd, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(jd)) > cp.off {
			jd = jd[:cp.off]
		}
		path := filepath.Join(dir, "crash.journal")
		if err := os.WriteFile(path, jd, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, rep, err := Recover(deviceFromFrames(t, cp.frames), path)
		if err != nil {
			// The capture came from a live journaled run, so recovery must
			// succeed; anything else is a real bug — but if it does fail, it
			// must at least fail typed.
			for _, want := range []error{ErrDeviceMismatch, journal.ErrMalformed, journal.ErrChecksum, journal.ErrEmpty, journal.ErrTorn} {
				if errors.Is(err, want) {
					t.Fatalf("capture %s/seq %d: recover refused its own journal: %v", cp.stage, cp.seq, err)
				}
			}
			t.Fatalf("capture %s/seq %d: recover failed untyped: %v", cp.stage, cp.seq, err)
		}
		switch cp.stage {
		case "post":
			if rep.Action == "clean" {
				t.Fatalf("capture %s/seq %d: unsealed tail recovered as clean", cp.stage, cp.seq)
			}
		case "commit", "abort":
			if rep.Action != "clean" {
				t.Fatalf("capture %s/seq %d: sealed journal recovered as %q", cp.stage, cp.seq, rep.Action)
			}
		case "begin", "undo", "delivered":
			if rep.Action != "rolled-back" {
				t.Fatalf("capture %s/seq %d: pre-post tail recovered as %q, want rolled-back", cp.stage, cp.seq, rep.Action)
			}
		}
		// Recovery seals the journal: it must rescan clean with no tail, and
		// the recovered book-keeping must be backed by device readback.
		log, err := journal.Scan(path)
		if err != nil || log.Torn {
			t.Fatalf("recovered journal rescans dirty: torn=%v err=%v", log != nil && log.Torn, err)
		}
		rs, err := journal.Replay(log)
		if err != nil {
			t.Fatalf("recovered journal replays dirty: %v", err)
		}
		if rs.Tail != nil {
			t.Fatalf("recovered journal still has an unsealed tail (op %d)", rs.Tail.Begin.Seq)
		}
		for _, name := range rec.Designs() {
			d, ok := rec.Design(name)
			if !ok {
				t.Fatalf("recovered design list names unknown design %q", name)
			}
			for id, ref := range d.CellOf {
				if !rec.Device().ReadCell(ref).InUse() {
					t.Fatalf("recovered design %q node %d claims empty cell %v", name, id, ref)
				}
			}
		}
		// The recovered system is live: one more operation must not panic
		// (region-busy failures are fine) and must leave the journal
		// replayable either way.
		_, _ = rec.Load(mkCounter("postfuzz"), fabric.Rect{Row: 0, Col: 0, H: 2, W: 2})
		if log, err := journal.Scan(path); err != nil {
			t.Fatalf("journal unscannable after post-recovery op: %v", err)
		} else if _, err := journal.Replay(log); err != nil {
			t.Fatalf("journal unreplayable after post-recovery op: %v", err)
		}
	}
}
