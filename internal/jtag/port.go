package jtag

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// Port drives a Chain as a Boundary-Scan configuration port, charging every
// TCK cycle to its meter's current class. It implements bitstream.Port and
// bitstream.AsyncPort: a partial bitstream can be enqueued with
// StreamUpdates and shifts out on a background worker while the host plans
// the next operation — the paper's natural pipeline, since the
// Boundary-Scan shift is by far the slowest stage. The TCK cost of a burst
// is a pure function of its word count, so it is charged at enqueue time:
// Elapsed is deterministic and identical between pipelined and serial
// delivery.
type Port struct {
	Chain    *Chain
	meter    bitstream.Meter
	compress bool
	q        bitstream.StreamQueue
}

// DefaultTCKHz is the paper's Boundary-Scan test clock frequency.
const DefaultTCKHz = 20e6

// NewPort attaches a Boundary-Scan port to a configuration controller and
// resets the TAP.
func NewPort(ctrl *bitstream.Controller, tckHz float64) *Port {
	p := &Port{Chain: NewChain(ctrl, 0x0050C093 /* Virtex-family-style idcode */), meter: bitstream.Meter{Hz: tckHz}}
	p.q.Deliver = p.deliverBurst
	p.ResetTAP()
	return p
}

func (p *Port) step(tms, tdi bool) bool {
	p.meter.Charge(1)
	return p.Chain.Step(tms, tdi)
}

func (p *Port) word(tdi uint32) (uint32, bool) {
	tdo, ok := p.Chain.shiftWord(tdi)
	if ok {
		p.meter.Charge(32)
	}
	return tdo, ok
}

// ResetTAP forces Test-Logic-Reset (five TMS-high cycles) and parks in
// Run-Test/Idle.
func (p *Port) ResetTAP() {
	for i := 0; i < 5; i++ {
		p.step(true, false)
	}
	p.step(false, false)
}

// stepFn advances a TAP by one TCK cycle, and wordFn takes the chain's
// whole-word Shift-DR transition (32 TCK cycles) where it applies. The
// port's own pair charges its meter; the background worker supplies a
// locally counting pair.
type (
	stepFn func(tms, tdi bool) bool
	wordFn func(tdi uint32) (tdo uint32, ok bool)
)

// LoadIR shifts an instruction into the IR and returns to Run-Test/Idle.
func (p *Port) LoadIR(code uint8) { loadIRWith(p.step, code) }

func loadIRWith(step stepFn, code uint8) {
	step(true, false)  // Select-DR
	step(true, false)  // Select-IR
	step(false, false) // Capture-IR
	step(false, false) // Shift-IR (first shift happens in this state)
	for i := 0; i < IRLength; i++ {
		last := i == IRLength-1
		step(last, code>>i&1 == 1) // exit on last bit
	}
	step(true, false)  // Update-IR
	step(false, false) // Run-Test/Idle
}

// ShiftDRIn shifts words into the current data register MSB-first and
// returns to Run-Test/Idle.
func (p *Port) ShiftDRIn(words []uint32) { shiftDRInWith(p.step, p.word, words) }

// shiftDRInWith takes the word step for every word but the last, where the
// chain accepts it; the last word steps bit by bit so its final bit carries
// TMS high into Exit1-DR.
func shiftDRInWith(step stepFn, word wordFn, words []uint32) {
	step(true, false)  // Select-DR
	step(false, false) // Capture-DR
	step(false, false) // Shift-DR
	for i, w := range words {
		last := i == len(words)-1
		if !last {
			if _, ok := word(w); ok {
				continue
			}
		}
		for b := 31; b >= 0; b-- {
			step(last && b == 0, w>>b&1 == 1)
		}
	}
	step(true, false)  // Update-DR
	step(false, false) // Run-Test/Idle
}

// ShiftDROut shifts n words out of the current data register, taking the
// word step for every word but the last as ShiftDRIn does.
func (p *Port) ShiftDROut(nWords int) []uint32 {
	p.step(true, false)  // Select-DR
	p.step(false, false) // Capture-DR
	p.step(false, false) // Shift-DR
	out := make([]uint32, nWords)
	for i := range out {
		last := i == nWords-1
		if !last {
			if w, ok := p.word(0); ok {
				out[i] = w
				continue
			}
		}
		var w uint32
		for b := 31; b >= 0; b-- {
			w <<= 1
			if p.step(last && b == 0, false) {
				w |= 1
			}
		}
		out[i] = w
	}
	p.step(true, false)  // Update-DR
	p.step(false, false) // Run-Test/Idle
	return out
}

// WriteUpdates implements bitstream.Port: the frame updates are packetised
// into a partial bitstream and shifted through CFG_IN. Any background stream
// drains first, so the chain sees bursts strictly in order.
func (p *Port) WriteUpdates(updates []bitstream.FrameUpdate) error {
	if err := p.AwaitStream(); err != nil {
		return err
	}
	words := bitstream.EncodeStream(p.Chain.ctrl.Device(), p.compress, updates, p.meter.Traffic())
	if len(words) == 0 {
		return nil // every frame was an identical rewrite: nothing to shift
	}
	p.LoadIR(InstrCfgIn)
	p.ShiftDRIn(words)
	if err := p.Chain.Err(); err != nil {
		return err
	}
	return nil
}

// burstCycles is the TCK cost of delivering one CFG_IN burst: the IR load
// (4 entry states, IRLength shifts, 2 exit states) plus the DR shift (3
// entry states, 32 per word, 2 exit states). It must match what LoadIR and
// ShiftDRIn actually step — deliverBurst asserts the two agree.
func burstCycles(nWords int) uint64 {
	return uint64(IRLength+6) + uint64(32*nWords+5)
}

// StreamUpdates implements bitstream.AsyncPort: the burst's TCK cost is
// charged now; the TAP stepping — the expensive part of the Boundary-Scan
// model — runs on the queue's background worker.
// A fully elided burst (compression skipped every frame) still enqueues —
// zero words, zero cycles — so callers' CompletedBursts book-keeping stays
// in lockstep with their enqueue count.
func (p *Port) StreamUpdates(updates []bitstream.FrameUpdate) {
	words := bitstream.EncodeStream(p.Chain.ctrl.Device(), p.compress, updates, p.meter.Traffic())
	if len(words) > 0 {
		p.meter.Charge(burstCycles(len(words)))
	}
	p.q.Enqueue(words)
}

// AwaitStream implements bitstream.AsyncPort.
func (p *Port) AwaitStream() error { return p.q.Await() }

// Fence implements bitstream.AsyncPort.
func (p *Port) Fence() { p.q.Fence() }

// StreamInFlight implements bitstream.AsyncPort.
func (p *Port) StreamInFlight() bool { return p.q.InFlight() }

// CompletedBursts implements bitstream.AsyncPort.
func (p *Port) CompletedBursts() uint64 { return p.q.Completed() }

// deliverBurst shifts one queued burst through the TAP on the worker
// goroutine. The worker owns the chain (and through it the configuration
// controller) between Enqueue and Await; cycles were accounted at enqueue,
// so the local count only cross-checks the closed-form burstCycles. The
// burst re-delivers frames already staged write-through, so the controller
// runs in re-delivery mode: full protocol, no configuration write.
func (p *Port) deliverBurst(words []uint32) error {
	if len(words) == 0 {
		return nil // elided burst: nothing was accounted, nothing shifts
	}
	p.Chain.ctrl.SetRedelivery(true)
	defer p.Chain.ctrl.SetRedelivery(false)
	var n uint64
	step := func(tms, tdi bool) bool {
		n++
		return p.Chain.Step(tms, tdi)
	}
	word := func(tdi uint32) (uint32, bool) {
		tdo, ok := p.Chain.shiftWord(tdi)
		if ok {
			n += 32
		}
		return tdo, ok
	}
	loadIRWith(step, InstrCfgIn)
	shiftDRInWith(step, word, words)
	if err := p.Chain.Err(); err != nil {
		return err
	}
	if n != burstCycles(len(words)) {
		return fmt.Errorf("jtag: burst stepped %d cycles, accounted %d", n, burstCycles(len(words)))
	}
	return nil
}

// ReadFrame implements bitstream.Port: a readback request goes in through
// CFG_IN and the frame comes back through CFG_OUT. Any background stream
// drains first.
func (p *Port) ReadFrame(addr fabric.FrameAddr) ([]uint32, error) {
	if err := p.AwaitStream(); err != nil {
		return nil, err
	}
	dev := p.Chain.ctrl.Device()
	req := bitstream.ReadFramesRequest(dev.FrameWords(), bitstream.FAR{Major: addr.Major, Minor: addr.Minor}, 1)
	p.LoadIR(InstrCfgIn)
	p.ShiftDRIn(req)
	p.LoadIR(InstrCfgOut)
	out := p.ShiftDROut(dev.FrameWords())
	if err := p.Chain.Err(); err != nil {
		return nil, err
	}
	if len(out) != dev.FrameWords() {
		return nil, fmt.Errorf("jtag: readback returned %d words", len(out))
	}
	return out, nil
}

// Elapsed implements bitstream.Port (foreground traffic only).
func (p *Port) Elapsed() float64 { return p.meter.Seconds(bitstream.Foreground) }

// Name implements bitstream.Port.
func (p *Port) Name() string { return "Boundary-Scan" }

// Cycles returns the foreground TCK cycles consumed.
func (p *Port) Cycles() uint64 { return p.meter.Usage(bitstream.Foreground).Cycles }

// Meter implements bitstream.Metered.
func (p *Port) Meter() *bitstream.Meter { return &p.meter }

// SetCompress implements bitstream.CompressPort.
func (p *Port) SetCompress(on bool) { p.compress = on }

// Compressed implements bitstream.CompressPort.
func (p *Port) Compressed() bool { return p.compress }

// Traffic implements bitstream.CompressPort.
func (p *Port) Traffic() bitstream.Traffic { return p.meter.Usage(bitstream.Foreground).Traffic }

var (
	_ bitstream.Port         = (*Port)(nil)
	_ bitstream.AsyncPort    = (*Port)(nil)
	_ bitstream.CompressPort = (*Port)(nil)
	_ bitstream.Metered      = (*Port)(nil)
)
