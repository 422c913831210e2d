// Package jtag implements the IEEE 1149.1 Test Access Port used by the paper
// to reconfigure the FPGA: a cycle-exact 16-state TAP controller, the Virtex
// configuration instructions (CFG_IN, CFG_OUT, JSTART), and a Boundary-Scan
// configuration Port whose elapsed time is TCK cycles divided by the test
// clock frequency. The paper's headline figure — 22.6 ms average relocation
// time per gated-clock CLB at a 20 MHz test clock — is reproduced by
// counting the cycles this package actually shifts. Configuration words
// shift in one whole-word Shift-DR transition that has exactly the effect,
// and the cycle count, of 32 single-bit steps; everything else, and the
// last bit of every DR scan, steps bit by bit.
package jtag

// State is a TAP controller state.
type State uint8

// The sixteen IEEE 1149.1 TAP states.
const (
	TestLogicReset State = iota
	RunTestIdle
	SelectDRScan
	CaptureDR
	ShiftDR
	Exit1DR
	PauseDR
	Exit2DR
	UpdateDR
	SelectIRScan
	CaptureIR
	ShiftIR
	Exit1IR
	PauseIR
	Exit2IR
	UpdateIR
)

var stateNames = [...]string{
	"Test-Logic-Reset", "Run-Test/Idle", "Select-DR-Scan", "Capture-DR",
	"Shift-DR", "Exit1-DR", "Pause-DR", "Exit2-DR", "Update-DR",
	"Select-IR-Scan", "Capture-IR", "Shift-IR", "Exit1-IR", "Pause-IR",
	"Exit2-IR", "Update-IR",
}

func (s State) String() string { return stateNames[s] }

// next is the IEEE 1149.1 state transition table: next[state][tms].
var next = [16][2]State{
	TestLogicReset: {RunTestIdle, TestLogicReset},
	RunTestIdle:    {RunTestIdle, SelectDRScan},
	SelectDRScan:   {CaptureDR, SelectIRScan},
	CaptureDR:      {ShiftDR, Exit1DR},
	ShiftDR:        {ShiftDR, Exit1DR},
	Exit1DR:        {PauseDR, UpdateDR},
	PauseDR:        {PauseDR, Exit2DR},
	Exit2DR:        {ShiftDR, UpdateDR},
	UpdateDR:       {RunTestIdle, SelectDRScan},
	SelectIRScan:   {CaptureIR, TestLogicReset},
	CaptureIR:      {ShiftIR, Exit1IR},
	ShiftIR:        {ShiftIR, Exit1IR},
	Exit1IR:        {PauseIR, UpdateIR},
	PauseIR:        {PauseIR, Exit2IR},
	Exit2IR:        {ShiftIR, UpdateIR},
	UpdateIR:       {RunTestIdle, SelectDRScan},
}

// Next returns the state after one TCK with the given TMS level.
func (s State) Next(tms bool) State {
	if tms {
		return next[s][1]
	}
	return next[s][0]
}

// IRLength is the Virtex instruction register length in bits.
const IRLength = 5

// Virtex JTAG instruction codes.
const (
	InstrBypass uint8 = 0x1F
	InstrIDCode uint8 = 0x09
	InstrCfgIn  uint8 = 0x05
	InstrCfgOut uint8 = 0x04
	InstrJStart uint8 = 0x0C
)
