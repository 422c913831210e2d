package rlm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/itc99"
	"repro/internal/jtag"
)

// withSerialCommit is the test hook that disables the two-stage commit
// pipeline: every partial bitstream is delivered synchronously before the
// next operation plans. Configuration memory and cycle accounting are
// bit-identical either way, which is the property the pipeline tests pin.
func withSerialCommit() Option {
	return func(c *config) { c.serialCommit = true }
}

// comparePipelinedSerial asserts the two systems' configuration memories are
// bit-identical frame by frame and their Boundary-Scan cycle counters agree
// (transport time is accounted at enqueue, so pipelined and serial delivery
// must cost exactly the same simulated cycles).
func comparePipelinedSerial(t *testing.T, ctx string, pipe, serial *System) {
	t.Helper()
	pd, sd := pipe.Device(), serial.Device()
	for _, col := range pd.Columns() {
		for m := 0; m < col.Frames; m++ {
			pf, err := pd.ReadFrame(col.Major, m)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := sd.ReadFrame(col.Major, m)
			if err != nil {
				t.Fatal(err)
			}
			for w := range pf {
				if pf[w] != sf[w] {
					t.Fatalf("%s: frame F%d.%d word %d: pipelined %#x, serial %#x",
						ctx, col.Major, m, w, pf[w], sf[w])
				}
			}
		}
	}
	pc := pipe.Port().(interface{ Cycles() uint64 }).Cycles()
	sc := serial.Port().(interface{ Cycles() uint64 }).Cycles()
	if pc != sc {
		t.Fatalf("%s: TCK cycles diverged: pipelined %d, serial %d", ctx, pc, sc)
	}
}

// TestPipelinedCommitBitIdenticalToSerial is the commit pipeline's
// correctness property: a randomized sequence of facade operations — loads,
// transactional plans (moves, staged moves, unloads), Need-mode and
// best-effort defragmentation — executed on a pipelined Boundary-Scan
// system and on a serial-commit twin must leave configuration memory
// bit-identical and the cycle accounting equal after every operation. The
// op mix mirrors the random-op generator of
// relocate.TestViewMatchesRescanUnderRandomOps, lifted to the facade's
// vocabulary. Run under -race this also exercises the background worker's
// synchronisation.
func TestPipelinedCommitBitIdenticalToSerial(t *testing.T) {
	pipe, err := New(WithDevice(fabric.XCV50), WithPort(BoundaryScan))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(WithDevice(fabric.XCV50), WithPort(BoundaryScan), withSerialCommit())
	if err != nil {
		t.Fatal(err)
	}
	both := func(op func(*System) error) (errPipe, errSerial error) {
		errPipe = op(pipe)
		errSerial = op(serial)
		return
	}

	rng := rand.New(rand.NewSource(20260726))
	slots := []fabric.Rect{
		{Row: 1, Col: 2, H: 4, W: 4}, {Row: 1, Col: 10, H: 4, W: 4},
		{Row: 1, Col: 18, H: 4, W: 4}, {Row: 7, Col: 2, H: 4, W: 4},
		{Row: 7, Col: 10, H: 4, W: 4}, {Row: 11, Col: 16, H: 4, W: 4},
	}
	spare := []fabric.Rect{
		{Row: 11, Col: 2, H: 4, W: 4}, {Row: 11, Col: 9, H: 4, W: 4},
	}
	resident := map[string]bool{}
	nextID := 0

	comparePipelinedSerial(t, "initial", pipe, serial)
	for step := 0; step < 40; step++ {
		ctx := ""
		switch k := rng.Intn(10); {
		case k < 3: // load into a free slot
			var free []fabric.Rect
			for _, s := range slots {
				if pipe.Area().Fits(s) {
					free = append(free, s)
				}
			}
			if len(free) == 0 {
				continue
			}
			region := free[rng.Intn(len(free))]
			style := itc99.FreeRunning
			if rng.Intn(2) == 0 {
				style = itc99.GatedClock
			}
			nl := itc99.Generate(itc99.GenConfig{
				Name: fmt.Sprintf("d%d", nextID), Inputs: 2, Outputs: 1,
				FFs: 3, LUTs: 6, Seed: uint64(500 + nextID), Style: style, CEFraction: 0.5,
			})
			nextID++
			ep, es := both(func(s *System) error { _, err := s.Load(nl, region); return err })
			if (ep == nil) != (es == nil) {
				t.Fatalf("step %d: load diverged: %v vs %v", step, ep, es)
			}
			if ep == nil {
				resident[nl.Name] = true
			}
			ctx = "load " + nl.Name
		case k < 6: // transactional plan: move one design to a spare slot and back
			name := pickResident(rng, resident)
			if name == "" {
				continue
			}
			cur, ok := pipe.Region(name)
			if !ok {
				continue
			}
			to := spare[rng.Intn(len(spare))]
			to.H, to.W = cur.H, cur.W
			staged := rng.Intn(2) == 0
			ep, es := both(func(s *System) error {
				p := s.Plan()
				if staged {
					p.MoveStaged(name, to, 2).MoveStaged(name, cur, 2)
				} else {
					p.Move(name, to).Move(name, cur)
				}
				return p.Commit()
			})
			if (ep == nil) != (es == nil) {
				t.Fatalf("step %d: plan diverged: %v vs %v", step, ep, es)
			}
			ctx = "plan-move " + name
		case k < 8: // unload
			name := pickResident(rng, resident)
			if name == "" {
				continue
			}
			ep, es := both(func(s *System) error { return s.Unload(name) })
			if (ep == nil) != (es == nil) {
				t.Fatalf("step %d: unload diverged: %v vs %v", step, ep, es)
			}
			if ep == nil {
				delete(resident, name)
			}
			ctx = "unload " + name
		default: // defragment (best-effort compaction; occasionally Need mode)
			pol := DefragPolicy{}
			if rng.Intn(3) == 0 {
				pol.NeedH, pol.NeedW = 6, 8
			}
			ep, es := both(func(s *System) error { _, err := s.Defragment(pol); return err })
			if (ep == nil) != (es == nil) {
				t.Fatalf("step %d: defragment diverged: %v vs %v", step, ep, es)
			}
			ctx = "defragment"
		}
		comparePipelinedSerial(t, fmt.Sprintf("step %d (%s)", step, ctx), pipe, serial)
	}
	if nextID == 0 {
		t.Fatal("op generator never loaded a design")
	}
}

func pickResident(rng *rand.Rand, resident map[string]bool) string {
	if len(resident) == 0 {
		return ""
	}
	names := make([]string, 0, len(resident))
	for n := range resident {
		names = append(names, n)
	}
	// Deterministic pick: map order is random, so sort by name first.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names[rng.Intn(len(names))]
}

// TestPipelinedPlanRollsBackOnMidStreamFailure: a transport failure of a
// background shift-out must fail the whole transaction and roll device and
// book-keeping back to the pre-commit checkpoint — even though the failing
// burst was enqueued long before the error surfaced at a harvest point. The
// mid-stream fault comes from internal/faultport, the shared fault model
// (this test predates it and used its own flaky wrapper).
func TestPipelinedPlanRollsBackOnMidStreamFailure(t *testing.T) {
	var flaky *faultport.Port
	sys, err := New(WithDevice(fabric.XCV50),
		WithPortModel(func(ctrl *bitstream.Controller) bitstream.Port {
			flaky = faultport.New(jtag.NewPort(ctrl, jtag.DefaultTCKHz), 1)
			return flaky
		}))
	if err != nil {
		t.Fatal(err)
	}
	nl := itc99.Generate(itc99.GenConfig{
		Name: "vic", Inputs: 2, Outputs: 1, FFs: 4, LUTs: 8,
		Seed: 31, Style: itc99.FreeRunning,
	})
	home := fabric.Rect{Row: 2, Col: 2, H: 4, W: 4}
	away := fabric.Rect{Row: 9, Col: 12, H: 4, W: 4}
	if _, err := sys.Load(nl, home); err != nil {
		t.Fatal(err)
	}

	snapshot := readAllFrames(t, sys.Device())
	for _, budget := range []int{0, 2, 9, 25} {
		flaky.TripAfter(budget)
		err := sys.Plan().Move("vic", away).Move("vic", home).Commit()
		if err == nil {
			t.Fatalf("budget %d: commit survived the flaky port", budget)
		}
		flaky.Disarm() // the trip self-disarms; this also covers budgets past the plan's frame count
		if got := readAllFrames(t, sys.Device()); !framesEqual(got, snapshot) {
			t.Fatalf("budget %d: configuration not restored after rollback", budget)
		}
		if region, ok := sys.Region("vic"); !ok || region != home {
			t.Fatalf("budget %d: book-keeping not restored: %v %v", budget, region, ok)
		}
	}

	// The healed system completes the same plan (the round trip re-routes
	// the design's nets, so the configuration is functionally equivalent
	// rather than bit-identical to the original placement).
	if err := sys.Plan().Move("vic", away).Move("vic", home).Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	if region, ok := sys.Region("vic"); !ok || region != home {
		t.Fatalf("post-recovery region: %v %v", region, ok)
	}
}

func readAllFrames(t *testing.T, dev *fabric.Device) [][]uint32 {
	t.Helper()
	var out [][]uint32
	for _, col := range dev.Columns() {
		for m := 0; m < col.Frames; m++ {
			f, err := dev.ReadFrame(col.Major, m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	return out
}

func framesEqual(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for w := range a[i] {
			if a[i][w] != b[i][w] {
				return false
			}
		}
	}
	return true
}
