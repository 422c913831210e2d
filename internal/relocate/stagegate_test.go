package relocate_test

import (
	"testing"

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
