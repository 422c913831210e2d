package relocate_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/relocate"
)

// harvestPort is a SelectMAP port whose bursts retire only when they are
// harvested: CompletedBursts advances at AwaitStream and nowhere else, as on
// a port whose shift-out always outlasts the host's planning. So every
// restage of a frame an earlier burst carried reaches the frame tool's stage
// gate, whatever the scheduler does. awaits counts the harvests.
type harvestPort struct {
	*bitstream.ParallelPort
	enqueued, retired uint64
	awaits            int
}

var _ bitstream.Port = (*harvestPort)(nil)

func (p *harvestPort) StreamUpdates(updates []bitstream.FrameUpdate) {
	p.ParallelPort.StreamUpdates(updates)
	p.enqueued++
}

func (p *harvestPort) AwaitStream() error {
	p.awaits++
	err := p.ParallelPort.AwaitStream()
	p.retired = p.enqueued
	return err
}

func (p *harvestPort) CompletedBursts() uint64 { return p.retired }

// deliveringPort is the serial twin's SelectMAP port. Its StreamUpdates
// delivers the burst through WriteUpdates before it returns, so the
// configuration controller decodes it and writes every frame that differs
// from the device, and its AwaitStream returns that write's error. A
// pipelined port's stream only re-delivers frames write-through staging has
// already written, so comparing a pipelined device with this twin's checks
// the content of every burst the frame tool ships.
type deliveringPort struct {
	*bitstream.ParallelPort
	completed uint64
	err       error // sticky until the next AwaitStream
}

var _ bitstream.Port = (*deliveringPort)(nil)

func (p *deliveringPort) StreamUpdates(updates []bitstream.FrameUpdate) {
	if err := p.WriteUpdates(updates); err != nil && p.err == nil {
		p.err = err
	}
	p.completed++
}

func (p *deliveringPort) AwaitStream() error {
	err := p.err
	p.err = nil
	return err
}

func (p *deliveringPort) CompletedBursts() uint64 { return p.completed }

// sameFrames fails the test unless the two devices hold the same
// configuration memory, frame by frame.
func sameFrames(t *testing.T, ctx string, a, b *fabric.Device) {
	t.Helper()
	for _, col := range a.Columns() {
		for m := 0; m < col.Frames; m++ {
			fa, err := a.ReadFrame(col.Major, m)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := b.ReadFrame(col.Major, m)
			if err != nil {
				t.Fatal(err)
			}
			for w := range fa {
				if fa[w] != fb[w] {
					t.Fatalf("%s: frame F%d.%d word %d: pipelined %#x, serial %#x",
						ctx, col.Major, m, w, fa[w], fb[w])
				}
			}
		}
	}
}

// TestStageGateIsTheOnlyStreamGate pins the commit pipeline's one stream
// gate: the frame tool's stage gate keeps a relocation off the frames still
// streaming, and the engine's counters report what it did. On a port that
// retires bursts only at a harvest, b03 cells (gated-clock ones included, so
// the aux circuit restages its control constants) relocate on XCV50 beside a
// serial-delivery twin whose deliveringPort writes every burst it is handed.
// After every call the configuration memory and the cycle count equal the
// twin's, SerialFallbacks equals the number of calls that awaited the port,
// and OverlappedOps counts every call after the first, whose planning always
// overlaps the previous call's last burst.
func TestStageGateIsTheOnlyStreamGate(t *testing.T) {
	pipeDev := fabric.NewDevice(fabric.XCV50)
	serialDev := fabric.NewDevice(fabric.XCV50)
	d := placeDesign(t, pipeDev, "b03")
	placeDesign(t, serialDev, "b03")
	sameFrames(t, "after placement", pipeDev, serialDev)

	port := &harvestPort{ParallelPort: bitstream.NewParallelPort(bitstream.NewController(pipeDev), 50e6)}
	pipe, err := relocate.NewEngine(pipeDev, port)
	if err != nil {
		t.Fatal(err)
	}
	serialPort := &deliveringPort{ParallelPort: bitstream.NewParallelPort(bitstream.NewController(serialDev), 50e6)}
	serial, err := relocate.NewEngine(serialDev, serialPort)
	if err != nil {
		t.Fatal(err)
	}
	serial.Tool.Serial = true

	// Six cells, the first gated-clock flip-flop among them.
	gated, _, ok := findCellWith(d, func(nd netlist.Node) bool {
		return nd.Kind == netlist.KindFF && nd.CE != netlist.None
	})
	if !ok {
		t.Fatal("b03 has no gated-clock flip-flop")
	}
	froms := []fabric.CellRef{gated}
	for _, ref := range d.OccupiedCells() {
		if len(froms) == 6 {
			break
		}
		if ref != gated {
			froms = append(froms, ref)
		}
	}

	awaited, aux := 0, 0
	for i, from := range froms {
		to := fabric.CellRef{Coord: fabric.Coord{Row: 9 + i, Col: 14 + i%2*4}, Cell: from.Cell}
		awaits := port.awaits
		mv, err := pipe.RelocateCell(from, to)
		if err != nil {
			t.Fatalf("call %d, pipelined %v -> %v: %v", i, from, to, err)
		}
		if _, err := serial.RelocateCell(from, to); err != nil {
			t.Fatalf("call %d, serial %v -> %v: %v", i, from, to, err)
		}
		if port.awaits > awaits {
			awaited++
		}
		if mv.UsedAux {
			aux++
		}
		sameFrames(t, "after call "+to.String(), pipeDev, serialDev)
		if pc, sc := port.Cycles(), serialPort.Cycles(); pc != sc {
			t.Fatalf("call %d: cycles: pipelined %d, serial %d", i, pc, sc)
		}
		st := pipe.Stats
		if st.SerialFallbacks != awaited {
			t.Fatalf("call %d: SerialFallbacks = %d, but %d calls awaited the port", i, st.SerialFallbacks, awaited)
		}
		if st.OverlappedOps != i {
			t.Fatalf("call %d: OverlappedOps = %d, want %d", i, st.OverlappedOps, i)
		}
	}
	t.Logf("%d of %d calls awaited the port (%d harvests), %d ran the aux circuit",
		awaited, len(froms), port.awaits, aux)
	if aux == 0 {
		t.Fatal("no call ran the aux circuit")
	}
	if awaited == 0 {
		t.Fatal("no call reached the stage gate: the property was not exercised")
	}
	if st := serial.Stats; st.SerialFallbacks != 0 || st.OverlappedOps != 0 {
		t.Fatalf("serial twin: SerialFallbacks = %d, OverlappedOps = %d, want 0 and 0", st.SerialFallbacks, st.OverlappedOps)
	}
}

// steppedPort is an asynchronous port whose bursts complete only when the
// test says so: complete(n) marks the first n bursts shifted out, and
// AwaitStream completes every burst and returns the fault armed by
// failNext. The burst words go nowhere: write-through staging leaves the
// device holding every streamed frame already. The synchronous paths are the
// embedded port's. awaits counts the harvests that reached the port. Nothing
// shifts in the background, so only the test's goroutine touches it.
type steppedPort struct {
	bitstream.Port

	enqueued, completed uint64
	awaits              int
	fault               error
}

var _ bitstream.Port = (*steppedPort)(nil)

func newSteppedPort(dev *fabric.Device) *steppedPort {
	return &steppedPort{Port: bitstream.NewParallelPort(bitstream.NewController(dev), 50e6)}
}

func (p *steppedPort) StreamUpdates([]bitstream.FrameUpdate) { p.enqueued++ }

func (p *steppedPort) AwaitStream() error {
	p.awaits++
	p.completed = p.enqueued
	err := p.fault
	p.fault = nil
	return err
}

func (p *steppedPort) CompletedBursts() uint64 { return p.completed }

func (p *steppedPort) complete(n uint64) { p.completed = n }

func (p *steppedPort) harvests() int { return p.awaits }

func (p *steppedPort) failNext(err error) { p.fault = err }

// TestStageGateTracksPartialCompletion pins the stage gate against bursts
// that complete one at a time, without a harvest. Cells A and B, in two
// columns, stream as bursts 1 and 2, and the port completes burst 1 only:
// restaging A must not drain, and restaging B must. That drain faults, and
// the Retry delegate must receive exactly the distinct frames enqueued since
// the last clean harvest, in first-enqueued order: A's frames before B's,
// although A's column lies east of B's, and A's once, although it streamed
// twice. A second round after the salvaged harvest starts the list afresh.
func TestStageGateTracksPartialCompletion(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	port := newSteppedPort(dev)
	ft, err := relocate.NewFrameTool(dev, port)
	if err != nil {
		t.Fatal(err)
	}
	errInjected := errors.New("injected stream fault")
	var retried [][]fabric.FrameAddr
	ft.Retry = func(cause error, addrs []fabric.FrameAddr) error {
		if !errors.Is(cause, errInjected) {
			t.Errorf("Retry got cause %v, want the injected fault", cause)
		}
		retried = append(retried, slices.Clone(addrs))
		return nil
	}
	a := fabric.CellRef{Coord: fabric.Coord{Row: 2, Col: 12}}
	b := fabric.CellRef{Coord: fabric.Coord{Row: 2, Col: 3}}
	framesOf := func(ref fabric.CellRef) []fabric.FrameAddr {
		return slices.SortedFunc(slices.Values(dev.CellConfigFrames(ref)), fabric.FrameAddr.Compare)
	}
	lut := uint16(0)
	write := func(ref fabric.CellRef, wantDrain bool) {
		t.Helper()
		lut++
		awaits := port.harvests()
		if err := ft.WriteCell(ref, fabric.CellConfig{Used: true, LUT: lut}); err != nil {
			t.Fatal(err)
		}
		if drained := port.harvests() > awaits; drained != wantDrain {
			t.Fatalf("write %d to %v: drained = %v, want %v", lut, ref, drained, wantDrain)
		}
	}
	checkRetry := func(round int, want []fabric.FrameAddr) {
		t.Helper()
		if len(retried) != round {
			t.Fatalf("Retry called %d times, want %d", len(retried), round)
		}
		if got := retried[round-1]; !slices.Equal(got, want) {
			t.Fatalf("round %d: Retry got %v, want %v", round, got, want)
		}
	}

	write(a, false) // burst 1
	write(b, false) // burst 2
	port.complete(1)
	write(a, false) // burst 1 is done: no drain; burst 3
	port.failNext(errInjected)
	write(b, true) // burst 2 is still shifting: drain, then burst 4
	checkRetry(1, append(framesOf(a), framesOf(b)...))

	write(a, false) // burst 3 was harvested: no drain; burst 5
	port.failNext(errInjected)
	write(b, true) // burst 4 is still shifting
	checkRetry(2, append(framesOf(b), framesOf(a)...))
}

// TestSerialLeavesAFailedBatchToTheRollback pins where a Serial frame tool
// harvests. A batch whose body succeeds is harvested by its closing Flush,
// through the Retry delegate. A batch whose body fails leaves its burst in
// flight, as a pipelined tool does: the delegate never runs for an
// operation that is about to roll back, and the rollback's drain
// (HarvestPending) discards the burst's fault.
func TestSerialLeavesAFailedBatchToTheRollback(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	port := newSteppedPort(dev)
	ft, err := relocate.NewFrameTool(dev, port)
	if err != nil {
		t.Fatal(err)
	}
	ft.Serial = true
	retries := 0
	ft.Retry = func(error, []fabric.FrameAddr) error {
		retries++
		return nil
	}
	ref := fabric.CellRef{Coord: fabric.Coord{Row: 2, Col: 12}}
	errInjected := errors.New("injected stream fault")
	errBody := errors.New("batch body failed")
	batch := func(lut uint16, bodyErr error) error {
		return ft.InBatch(func() error {
			if err := ft.WriteCell(ref, fabric.CellConfig{Used: true, LUT: lut}); err != nil {
				return err
			}
			return bodyErr
		})
	}
	check := func(ctx string, wantRetries, wantHarvests int, wantInFlight bool) {
		t.Helper()
		if retries != wantRetries || port.harvests() != wantHarvests || ft.StreamInFlight() != wantInFlight {
			t.Fatalf("%s: %d retries, %d harvests, in flight %v; want %d, %d, %v",
				ctx, retries, port.harvests(), ft.StreamInFlight(), wantRetries, wantHarvests, wantInFlight)
		}
	}

	port.failNext(errInjected)
	if err := batch(1, nil); err != nil {
		t.Fatalf("batch with a salvaged fault: %v", err)
	}
	check("good body", 1, 1, false)

	port.failNext(errInjected)
	if err := batch(2, errBody); !errors.Is(err, errBody) {
		t.Fatalf("failed batch returned %v, want the body's error", err)
	}
	check("failed body", 1, 1, true)

	ft.HarvestPending()
	check("rollback drain", 1, 2, false)
}
