package jtag

import (
	"fmt"

	"repro/internal/bitstream"
)

// Chain is the device-side JTAG logic of one FPGA: the TAP controller plus
// the configuration data registers that bridge Boundary-Scan shifts into the
// configuration controller.
type Chain struct {
	ctrl *bitstream.Controller

	state   State
	irShift uint8
	irBits  int
	instr   uint8
	idcode  uint32
	bypass  bool
	feedErr error
	// CFG_IN path: bits accumulate MSB-first into words fed to the
	// configuration controller; a log of the words is kept so a following
	// CFG_OUT can serve the readback they requested.
	inWord uint32
	inBits int
	inLog  []uint32
	// CFG_OUT path.
	outData []uint32
	outWord int
	outBit  int
	// DR shift register for IDCODE.
	drShift uint32
}

// NewChain wires a JTAG chain to a configuration controller.
func NewChain(ctrl *bitstream.Controller, idcode uint32) *Chain {
	return &Chain{ctrl: ctrl, idcode: idcode, state: TestLogicReset, instr: InstrIDCode}
}

// State returns the current TAP state.
func (ch *Chain) State() State { return ch.state }

// Instr returns the active instruction.
func (ch *Chain) Instr() uint8 { return ch.instr }

// Err returns the first configuration error encountered while feeding
// CFG_IN data, if any.
func (ch *Chain) Err() error { return ch.feedErr }

// Step advances the TAP by one TCK cycle and returns TDO.
func (ch *Chain) Step(tms, tdi bool) bool {
	tdo := false
	switch ch.state {
	case ShiftIR:
		tdo = ch.irShift&1 == 1
		ch.irShift >>= 1
		if tdi {
			ch.irShift |= 1 << (IRLength - 1)
		}
		ch.irBits++
	case ShiftDR:
		tdo = ch.shiftDR(tdi)
	}
	prev := ch.state
	ch.state = ch.state.Next(tms)
	if prev != ch.state {
		ch.onEnter(prev)
	}
	return tdo
}

func (ch *Chain) onEnter(prev State) {
	switch ch.state {
	case TestLogicReset:
		ch.instr = InstrIDCode
	case CaptureIR:
		ch.irShift = 0b00001 // IEEE 1149.1 mandates xxx01 in Capture-IR
		ch.irBits = 0
	case UpdateIR:
		ch.instr = ch.irShift & (1<<IRLength - 1)
		switch ch.instr {
		case InstrCfgIn:
			// Each CFG_IN load opens a fresh configuration session: drop
			// the previous session's log. Words of an earlier stream can
			// never be part of a later readback request, and resetting
			// here (an IR load cannot happen mid-payload) bounds the log
			// to one stream without sniffing payload words for sync
			// patterns — frame data may legitimately contain the sync
			// word's bit pattern.
			ch.inWord, ch.inBits = 0, 0
			ch.inLog = ch.inLog[:0]
		case InstrJStart:
			// Startup sequence: no behavioural effect in the model.
		}
	case CaptureDR:
		switch ch.instr {
		case InstrIDCode:
			ch.drShift = ch.idcode
		case InstrCfgOut:
			ch.prepareReadback()
		}
	case UpdateDR:
		if ch.instr == InstrCfgIn && ch.inBits != 0 {
			ch.feedErr = fmt.Errorf("jtag: CFG_IN shift not word-aligned (%d residual bits)", ch.inBits)
		}
	}
	_ = prev
}

func (ch *Chain) shiftDR(tdi bool) bool {
	switch ch.instr {
	case InstrBypass:
		t := ch.bypass
		ch.bypass = tdi
		return t
	case InstrIDCode:
		t := ch.drShift&1 == 1
		ch.drShift >>= 1
		if tdi {
			ch.drShift |= 1 << 31
		}
		return t
	case InstrCfgIn:
		ch.inWord <<= 1
		if tdi {
			ch.inWord |= 1
		}
		ch.inBits++
		if ch.inBits == 32 {
			ch.inLog = append(ch.inLog, ch.inWord)
			if err := ch.ctrl.Feed(ch.inWord); err != nil && ch.feedErr == nil {
				ch.feedErr = err
			}
			ch.inWord, ch.inBits = 0, 0
		}
		return false
	case InstrCfgOut:
		if ch.outWord >= len(ch.outData) {
			return false
		}
		w := ch.outData[ch.outWord]
		tdo := w>>(31-ch.outBit)&1 == 1
		ch.outBit++
		if ch.outBit == 32 {
			ch.outBit = 0
			ch.outWord++
		}
		return tdo
	}
	return false
}

// shiftWord is the whole-word Shift-DR transition: exactly the effect of 32
// Step(false, bit) calls shifting tdi MSB-first, with the 32 TDO bits
// returned MSB-first. It applies only where those calls stay on a word of a
// configuration register: in Shift-DR under CFG_IN with no residual bits
// (the word is logged and fed to the controller once) or under CFG_OUT at a
// word boundary (the next readback word, or 0 without advancing once past
// the served data). Anywhere else it changes nothing and reports false, and
// the caller steps bit by bit.
func (ch *Chain) shiftWord(tdi uint32) (tdo uint32, ok bool) {
	if ch.state != ShiftDR {
		return 0, false
	}
	switch {
	case ch.instr == InstrCfgIn && ch.inBits == 0:
		ch.inLog = append(ch.inLog, tdi)
		if err := ch.ctrl.Feed(tdi); err != nil && ch.feedErr == nil {
			ch.feedErr = err
		}
		return 0, true
	case ch.instr == InstrCfgOut && ch.outBit == 0:
		if ch.outWord >= len(ch.outData) {
			return 0, true
		}
		w := ch.outData[ch.outWord]
		ch.outWord++
		return w, true
	}
	return 0, false
}

// prepareReadback serves the FDRO read described by the CFG_IN packets
// shifted since the last readback.
func (ch *Chain) prepareReadback() {
	data, err := ch.ctrl.ExecRead(ch.inLog)
	if err != nil && ch.feedErr == nil {
		ch.feedErr = err
	}
	ch.outData = data
	ch.outWord, ch.outBit = 0, 0
	ch.inLog = nil
}
