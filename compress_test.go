package rlm

import (
	"fmt"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/itc99"
)

// maskTransport zeroes everything that legitimately depends on how many
// words crossed the configuration port — cycle counters, traffic, transport
// seconds and the tick cursor the port waits advance — so a compressed run
// can be bit-compared against an uncompressed one. Frames and all host
// book-keeping stay in the comparison: compressed delivery must change only
// the wire format, never the outcome.
func maskTransport(st hostState) hostState {
	st.cycles = 0
	st.traffic = bitstream.Traffic{}
	st.lastTick = 0
	st.stats.PortSeconds = 0
	st.stats.ClockCycles = 0
	return st
}

func portCycles(s *System) uint64 {
	return s.Port().(interface{ Cycles() uint64 }).Cycles()
}

// TestCompressedDeliveryBitIdentical is the compression layer's headline
// property: delta/MFWR stream encoding is an encoding, not a behaviour — a
// full facade workout (loads, moves, transactional plans, staged moves,
// defragmentation) on a compressed system leaves frames and every piece of
// host book-keeping bit-identical to an uncompressed twin's, its TCK
// accounting is deterministic (pipelined == serial), the retry ladder
// re-delivers compressed streams to a fault-free-identical state, and a
// crash at any journal boundary recovers (the journal init record carries
// the compression mode). Run with -race.
func TestCompressedDeliveryBitIdentical(t *testing.T) {
	t.Run("vs-uncompressed", func(t *testing.T) {
		plain, err := New(WithDevice(fabric.TestDevice))
		if err != nil {
			t.Fatal(err)
		}
		comp, err := New(WithDevice(fabric.TestDevice), WithCompression())
		if err != nil {
			t.Fatal(err)
		}
		crashScript(t, plain)
		crashScript(t, comp)
		if diffs := diffStates(maskTransport(captureState(comp)), maskTransport(captureState(plain))); len(diffs) > 0 {
			t.Fatalf("compressed run diverges from uncompressed twin (%d diffs): %s", len(diffs), diffs[0])
		}
		pt, ct := plain.Traffic(), comp.Traffic()
		if ct.FramesDelivered != pt.FramesDelivered {
			t.Fatalf("frame deliveries diverged: compressed %d, plain %d", ct.FramesDelivered, pt.FramesDelivered)
		}
		// The compressed twin's uncompressed-baseline counter must predict the
		// plain twin's shipped words exactly — same updates, same streams.
		if ct.FullWords != pt.WordsShifted {
			t.Fatalf("baseline accounting diverged: compressed FullWords %d, plain shipped %d", ct.FullWords, pt.WordsShifted)
		}
		if ct.WordsShifted >= pt.WordsShifted {
			t.Fatalf("compression shipped no fewer words: %d vs %d", ct.WordsShifted, pt.WordsShifted)
		}
		if r := ct.CompressionRatio(); r <= 1 {
			t.Fatalf("compression ratio %.3f, want > 1 (%+v)", r, ct)
		}
		if cc, pc := portCycles(comp), portCycles(plain); cc >= pc {
			t.Fatalf("compressed run cost no fewer TCK cycles: %d vs %d", cc, pc)
		}
	})

	t.Run("tck-deterministic", func(t *testing.T) {
		// Transport time is accounted at enqueue, so compressed pipelined and
		// serial-commit delivery must agree cycle for cycle — and word for
		// word: the encoder sees identical update lists either way.
		pipe, err := New(WithDevice(fabric.TestDevice), WithCompression())
		if err != nil {
			t.Fatal(err)
		}
		serial, err := New(WithDevice(fabric.TestDevice), WithCompression(), withSerialCommit())
		if err != nil {
			t.Fatal(err)
		}
		crashScript(t, pipe)
		crashScript(t, serial)
		comparePipelinedSerial(t, "compressed", pipe, serial)
		if pt, st := pipe.Traffic(), serial.Traffic(); pt != st {
			t.Fatalf("traffic diverged: pipelined %+v, serial %+v", pt, st)
		}
	})

	t.Run("fault-injection", func(t *testing.T) {
		// Transient transport faults under compression: the retry ladder's
		// re-deliveries also ship deltas (against the confirmed baseline), the
		// maintenance traffic stays out of the foreground, and the result —
		// including the traffic counters, which are NOT masked here — is
		// bit-identical to a compressed fault-free twin's.
		clean, err := New(WithDevice(fabric.TestDevice), WithCompression())
		if err != nil {
			t.Fatal(err)
		}
		crashScript(t, clean)
		want := maskFaultStats(captureState(clean))
		budgets := []int{0, 1, 3, 8, 21, 55, 144}
		if testing.Short() {
			budgets = []int{0, 3, 21}
		}
		detected := 0
		for _, budget := range budgets {
			t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
				sys, flaky := faultSystem(t, 7, WithCompression(),
					WithRetryPolicy(RetryPolicy{MaxRetries: 2, VerifyAfter: 2}))
				flaky.TripAfter(budget)
				crashScript(t, sys)
				st := sys.Stats()
				if st.RetriesExhausted != 0 {
					t.Fatalf("transient fault exhausted retries: %+v", st)
				}
				detected += st.FaultsDetected
				if diffs := diffStates(maskFaultStats(captureState(sys)), want); len(diffs) > 0 {
					t.Fatalf("faulty compressed run diverges from fault-free twin: %s", diffs[0])
				}
			})
		}
		if detected == 0 {
			t.Fatal("no budget tripped a fault: the injection never exercised the retry ladder")
		}
	})

	t.Run("crash-recovery", func(t *testing.T) {
		// The full crash-torture property with compression on: a crash at
		// every journal boundary — including mid-stream "delivered" points —
		// recovers to the twin's state, with the journal init record alone
		// carrying the compression mode into the rebuilt system.
		runCrashConsistency(t, WithCompression())
	})
}

// TestCompressionFig7TCKDrop pins the acceptance floor of the compression
// layer: the Fig. 7 defragmentation workout (two scattered designs loaded
// and compacted) over Boundary-Scan must cost at least 2x fewer simulated
// TCK cycles with delta/MFWR encoding on. Deterministic — the same seeds and
// placements every run.
func TestCompressionFig7TCKDrop(t *testing.T) {
	nl1 := itc99.Generate(itc99.GenConfig{
		Name: "gen1", Inputs: 3, Outputs: 2, FFs: 6, LUTs: 12,
		Seed: 99, Style: itc99.FreeRunning,
	})
	nl2 := itc99.Generate(itc99.GenConfig{
		Name: "gen2", Inputs: 3, Outputs: 2, FFs: 6, LUTs: 12,
		Seed: 98, Style: itc99.FreeRunning,
	})
	run := func(opts ...Option) uint64 {
		sys, err := New(append([]Option{WithDevice(fabric.XCV50), WithPort(BoundaryScan)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Load(nl1, fabric.Rect{Row: 2, Col: 6, H: 4, W: 4}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Load(nl2, fabric.Rect{Row: 8, Col: 6, H: 4, W: 4}); err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Defragment(DefragPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Moves) == 0 || rep.CellsRelocated == 0 {
			t.Fatalf("no physical compaction happened: %+v", rep)
		}
		return portCycles(sys)
	}
	plain := run()
	comp := run(WithCompression())
	if comp*2 > plain {
		t.Fatalf("compression saved less than 2x TCK: %d compressed vs %d plain (%.2fx)",
			comp, plain, float64(plain)/float64(comp))
	}
	t.Logf("Fig.7 workout TCK: %d plain, %d compressed (%.2fx)", plain, comp, float64(plain)/float64(comp))
}
