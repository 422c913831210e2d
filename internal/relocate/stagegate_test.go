package relocate_test

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/relocate"
)

// harvestPort is a SelectMAP port whose bursts retire only when they are
// harvested: CompletedBursts and StreamInFlight advance at AwaitStream and
// nowhere else, as on a port whose shift-out always outlasts the host's
// planning. So every restage of a frame an earlier burst carried reaches the
// frame tool's stage gate, whatever the scheduler does. awaits counts the
// harvests.
type harvestPort struct {
	*bitstream.ParallelPort
	enqueued, retired uint64
	awaits            int
}

var _ bitstream.AsyncPort = (*harvestPort)(nil)

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

func (p *harvestPort) StreamInFlight() bool { return p.retired < p.enqueued }

func (p *harvestPort) CompletedBursts() uint64 { return p.retired }

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
// serial-delivery twin. After every call the configuration memory and the
// cycle count equal the twin's, SerialFallbacks equals the number of calls
// that awaited the port, and OverlappedOps counts every call after the
// first, whose planning always overlaps the previous call's last burst.
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
	serialPort := bitstream.NewParallelPort(bitstream.NewController(serialDev), 50e6)
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
// AwaitStream drains every burst and returns the fault armed by failNext.
// While the port is held, AwaitStream parks until release, as on a hung
// harvest. The burst words go nowhere: write-through staging leaves the
// device holding every streamed frame already. The synchronous paths are the
// embedded port's. awaits counts the harvests that reached the port.
type steppedPort struct {
	bitstream.Port

	mu                  sync.Mutex
	enqueued, completed uint64
	awaits              int
	fault               error
	held                chan struct{}
}

var _ bitstream.AsyncPort = (*steppedPort)(nil)

func newSteppedPort(dev *fabric.Device) *steppedPort {
	return &steppedPort{Port: bitstream.NewParallelPort(bitstream.NewController(dev), 50e6)}
}

func (p *steppedPort) StreamUpdates([]bitstream.FrameUpdate) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enqueued++
}

func (p *steppedPort) AwaitStream() error {
	p.mu.Lock()
	p.awaits++
	p.mu.Unlock()
	p.Fence()
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.fault
	p.fault = nil
	return err
}

func (p *steppedPort) Fence() {
	p.mu.Lock()
	held := p.held
	p.mu.Unlock()
	if held != nil {
		<-held
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completed = p.enqueued
}

func (p *steppedPort) StreamInFlight() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.completed < p.enqueued
}

func (p *steppedPort) CompletedBursts() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.completed
}

func (p *steppedPort) complete(n uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completed = n
}

func (p *steppedPort) harvests() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.awaits
}

func (p *steppedPort) failNext(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fault = err
}

func (p *steppedPort) hold() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held = make(chan struct{})
}

func (p *steppedPort) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held != nil {
		close(p.held)
		p.held = nil
	}
}

// TestBurstCompletionAfterAbandonedHarvest pins the burst numbering across a
// harvest the stall watchdog gives up on. Cell A's write streams as burst 1
// and the harvest stalls, so burst 1 is still shifting: restaging A must
// reach the stage gate (whose drain stalls in turn). Cell B, in another
// column, then streams as burst 2, and the port completes burst 1 alone: the
// tool must still report a stream in flight, since burst 2 is shifting.
func TestBurstCompletionAfterAbandonedHarvest(t *testing.T) {
	dev := fabric.NewDevice(fabric.XCV50)
	port := newSteppedPort(dev)
	ft, err := relocate.NewFrameTool(dev, port)
	if err != nil {
		t.Fatal(err)
	}
	ft.StallTimeout = 20 * time.Millisecond
	a := fabric.CellRef{Coord: fabric.Coord{Row: 2, Col: 12}}
	b := fabric.CellRef{Coord: fabric.Coord{Row: 2, Col: 3}}

	port.hold()
	t.Cleanup(func() { port.release(); ft.HarvestPending() })
	if err := ft.WriteCell(a, fabric.CellConfig{Used: true, LUT: fabric.LUTConst1}); err != nil {
		t.Fatal(err)
	}
	if err := ft.AwaitStream(); !errors.Is(err, relocate.ErrPortStalled) {
		t.Fatalf("held harvest: got %v, want ErrPortStalled", err)
	}
	if err := ft.WriteCell(a, fabric.CellConfig{Used: true, LUT: fabric.LUTConst0}); !errors.Is(err, relocate.ErrPortStalled) {
		t.Fatalf("restaging A while burst 1 shifts: got %v, want the gate's drain to stall", err)
	}
	if err := ft.WriteCell(b, fabric.CellConfig{Used: true, LUT: fabric.LUTConst1}); err != nil {
		t.Fatal(err)
	}
	port.complete(1)
	inFlight := ft.StreamInFlight()
	port.release()
	ft.HarvestPending()
	if !inFlight {
		t.Fatal("burst 1 of 2 complete, yet StreamInFlight reports false")
	}
	if ft.StreamInFlight() {
		t.Fatal("StreamInFlight reports true after HarvestPending drained the port")
	}
}

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
