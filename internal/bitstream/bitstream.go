// Package bitstream implements a Virtex-style configuration protocol for the
// fabric model: packetised register writes, frame data streaming (FDRI) and
// readback (FDRO), a CRC-protected command set, and partial-bitstream
// generation. It plays the role JBits and the configuration logic played in
// the paper's tool chain: everything the relocation engine does to the
// device goes through configuration packets built here.
package bitstream

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/fabric"
)

// SyncWord marks the start of a configuration packet stream.
const SyncWord uint32 = 0xAA995566

// maxFLR bounds the frame length register (a real part's frame is a few
// hundred words at most; the bound keeps a corrupted FLR write from driving
// the frame buffer allocation).
const maxFLR = 1 << 12

// Packet types.
const (
	TypeNone  = 0
	Type1     = 1
	Type2     = 2
	opNOP     = 0
	opRead    = 1
	opWrite   = 2
	typeShift = 29
	opShift   = 27
	addrShift = 13
	addrMask  = 0x3FFF
	wc1Mask   = 0x7FF
	wc2Mask   = 0x07FFFFFF
)

// Configuration register addresses (Virtex-flavoured).
const (
	RegCRC  = 0
	RegFAR  = 1
	RegFDRI = 2
	RegFDRO = 3
	RegCMD  = 4
	RegCTL  = 5
	RegMASK = 6
	RegSTAT = 7
	RegLOUT = 8
	RegCOR  = 9
	RegFLR  = 11
	RegID   = 14
)

// CMD register command codes.
const (
	CmdNull    = 0
	CmdWCFG    = 1 // write configuration
	CmdLFRM    = 3 // last frame
	CmdRCFG    = 4 // read configuration
	CmdStart   = 5
	CmdRCRC    = 7 // reset CRC
	CmdDesync  = 13
	CmdCapture = 12
)

// FAR is a frame address register value.
type FAR struct {
	Block int // 0 = logic (CLB/IOB/clock), 1 = BRAM content
	Major int
	Minor int
}

// EncodeFAR packs a FAR into its register encoding.
func EncodeFAR(f FAR) uint32 {
	return uint32(f.Block&0xF)<<24 | uint32(f.Major&0xFFF)<<12 | uint32(f.Minor&0xFFF)
}

// DecodeFAR unpacks a FAR register value.
func DecodeFAR(v uint32) FAR {
	return FAR{Block: int(v >> 24 & 0xF), Major: int(v >> 12 & 0xFFF), Minor: int(v & 0xFFF)}
}

// header1 builds a Type-1 packet header.
func header1(op, addr, wordCount int) uint32 {
	return uint32(Type1)<<typeShift | uint32(op)<<opShift |
		uint32(addr&addrMask)<<addrShift | uint32(wordCount&wc1Mask)
}

// header2 builds a Type-2 packet header (word count only; the register comes
// from the preceding Type-1 header).
func header2(op, wordCount int) uint32 {
	return uint32(Type2)<<typeShift | uint32(op)<<opShift | uint32(wordCount&wc2Mask)
}

// crcPoly is the configuration CRC-16 polynomial.
const crcPoly = 0x8005

// crcNibble[i] is the CRC register's top nibble i shifted out through the
// polynomial: the table that folds four input bits per lookup.
var crcNibble = func() (t [16]uint16) {
	for i := range t {
		c := uint16(i) << 12
		for b := 0; b < 4; b++ {
			if c&0x8000 != 0 {
				c = c<<1 ^ crcPoly
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return t
}()

// crcUpdate folds one register write into a 16-bit CRC (polynomial 0x8005,
// data plus register address, LSB first). Feeding the 36 input bits LSB
// first into this MSB-first register equals feeding them bit-reversed MSB
// first, so they are reversed once and folded a nibble per table lookup
// (TestCRCTableMatchesBitSerial holds it to the bit-serial fold).
func crcUpdate(crc uint16, addr int, word uint32) uint16 {
	data := bits.Reverse64(uint64(word)|uint64(addr&0xF)<<32) >> 28
	for s := 32; s >= 0; s -= 4 {
		crc = crc<<4 ^ crcNibble[crc>>12^uint16(data>>s&0xF)]
	}
	return crc
}

// Stats accumulates configuration traffic counters.
type Stats struct {
	WordsIn       int
	WordsOut      int
	FramesWritten int
	FramesRead    int
	CRCErrors     int
	Syncs         int
}

// Controller is the device-side configuration logic: it consumes packet
// words and applies them to the fabric's configuration memory, enforcing
// frame granularity (the frame is the smallest unit that can be written) and
// the trailing pad-frame flush of the real part.
type Controller struct {
	dev   *fabric.Device
	stats Stats

	synced  bool
	crc     uint16
	far     FAR
	cmd     uint32
	flr     uint32
	pending int // remaining data words of current packet
	reg     int // register addressed by current packet
	frame   []uint32
	inFrame int
	wcfg    bool
	// lastFrame holds a copy of the most recent frame committed through
	// FDRI; a multi-frame-write packet (RegMFWR under CmdMFW) re-commits it
	// at the current FAR without re-shipping the payload.
	lastFrame []uint32
	// Delta packet (RegDELTA) decode state: the frame at FAR is loaded as
	// the read-modify-write base when the packet's first run header arrives,
	// patched run by run, and committed when the packet ends.
	deltaNeed int  // data words remaining in the current run
	deltaOff  int  // next frame word the current run patches
	deltaOpen bool // RMW base loaded for the packet in progress
	// redelivery marks the stream being fed as a re-delivery of frames
	// already staged write-through on the device: the full protocol (sync,
	// CRC, FAR sequencing) is enforced and traffic counted, but frame data
	// is not applied — the device took the content when it was staged, and
	// a write that landed after staging (the development tool sharing the
	// fabric) must not be rolled back to the older in-flight copy. This is
	// what makes a background shift-out invisible to concurrent host-side
	// reads: a re-delivered stream performs no configuration write at all.
	redelivery bool
}

// NewController attaches configuration logic to a device.
func NewController(dev *fabric.Device) *Controller {
	return &Controller{dev: dev, flr: uint32(dev.FrameWords())}
}

// Stats returns a copy of the traffic counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetRedelivery switches the controller in or out of re-delivery mode
// (frames parse and count but are not applied). The background stream worker
// brackets each staged burst with it; the caller owns the controller for the
// duration (Port's streaming contract serialises all other access).
func (c *Controller) SetRedelivery(on bool) { c.redelivery = on }

// Device returns the attached device.
func (c *Controller) Device() *fabric.Device { return c.dev }

var (
	// ErrCRC is returned when a CRC check word mismatches; the write is
	// aborted like on real silicon.
	ErrCRC = errors.New("bitstream: CRC mismatch")
	// ErrProtocol is returned for malformed packet streams.
	ErrProtocol = errors.New("bitstream: protocol error")
)

// Feed consumes configuration words. It may be called repeatedly; state is
// kept across calls (a packet may straddle Feed boundaries).
func (c *Controller) Feed(words ...uint32) error {
	for _, w := range words {
		c.stats.WordsIn++
		if !c.synced {
			if w == SyncWord {
				c.synced = true
				c.stats.Syncs++
			}
			continue
		}
		if c.pending > 0 {
			if err := c.dataWord(w); err != nil {
				return err
			}
			continue
		}
		if err := c.headerWord(w); err != nil {
			return err
		}
	}
	return nil
}

func (c *Controller) headerWord(w uint32) error {
	if w == SyncWord {
		return nil // re-sync while already synced is a no-op
	}
	typ := int(w >> typeShift & 0x7)
	op := int(w >> opShift & 0x3)
	switch typ {
	case Type1:
		c.reg = int(w >> addrShift & addrMask)
		c.pending = 0
		if op == opWrite {
			c.pending = int(w & wc1Mask)
			if c.reg == RegFDRI {
				c.beginFDRI()
			}
		}
	case Type2:
		c.pending = 0
		if op == opWrite {
			c.pending = int(w & wc2Mask)
			if c.reg == RegFDRI {
				c.beginFDRI()
			}
		}
	case TypeNone:
		// NOP word (all zero type): ignore.
	default:
		return fmt.Errorf("%w: unknown packet type %d", ErrProtocol, typ)
	}
	return nil
}

func (c *Controller) beginFDRI() {
	if len(c.frame) != int(c.flr) {
		c.frame = make([]uint32, c.flr)
	}
	c.inFrame = 0
	c.wcfg = c.cmd == CmdWCFG
}

func (c *Controller) dataWord(w uint32) error {
	c.pending--
	switch c.reg {
	case RegCRC:
		if w&0xFFFF != uint32(c.crc) {
			c.stats.CRCErrors++
			c.synced = false
			return fmt.Errorf("%w: got %#x, want %#x", ErrCRC, w&0xFFFF, c.crc)
		}
		c.crc = 0 // successful check restarts the running CRC
		return nil
	case RegFAR:
		c.far = DecodeFAR(w)
	case RegCMD:
		c.cmd = w
		if w == CmdRCRC {
			c.crc = 0
			return nil // RCRC resets the CRC and is not folded into it
		}
		if w == CmdDesync {
			c.synced = false
			return nil
		}
	case RegFDRI:
		c.crc = crcUpdate(c.crc, RegFDRI, w)
		return c.fdriWord(w)
	case RegDELTA:
		if err := c.deltaWord(w); err != nil {
			return err
		}
	case RegMFWR:
		if err := c.mfwrWord(); err != nil {
			return err
		}
	case RegFLR:
		// Bound the frame length register: the frame buffer is allocated from
		// it, so a corrupted write must not turn into a zero-length frame
		// (index panic) or a multi-gigabyte allocation.
		if w == 0 || w > maxFLR {
			return fmt.Errorf("%w: frame length %d out of range", ErrProtocol, w)
		}
		c.flr = w
	case RegCTL, RegMASK, RegCOR, RegLOUT, RegID:
		// Accepted, no behavioural effect in the model.
	default:
		return fmt.Errorf("%w: write to unknown register %d", ErrProtocol, c.reg)
	}
	c.crc = crcUpdate(c.crc, c.reg, w)
	return nil
}

// fdriWord streams one word into the frame buffer; each full buffer is
// flushed to the device and the FAR auto-increments. The LAST frame of an
// FDRI write is a pad frame that only pushes the previous one out of the
// buffer — the builder always appends one, as on the real part.
func (c *Controller) fdriWord(w uint32) error {
	c.frame[c.inFrame] = w
	c.inFrame++
	if c.inFrame < len(c.frame) {
		return nil
	}
	c.inFrame = 0
	if !c.wcfg {
		return fmt.Errorf("%w: FDRI data without WCFG command", ErrProtocol)
	}
	if c.pending >= len(c.frame) {
		// Not the trailing pad frame: commit and advance. A frame whose
		// content already matches the device is skipped inside the write —
		// rewriting identical bits is glitch-free, so nothing is marked
		// stale. A re-delivery stream applies nothing at all (see the
		// redelivery field).
		if !c.redelivery {
			if _, err := c.dev.WriteFrameIfChanged(c.far.Major, c.far.Minor, c.frame); err != nil {
				return fmt.Errorf("%w: %v", ErrProtocol, err)
			}
		}
		// Keep the committed payload for multi-frame writes (also in
		// re-delivery: the MFWR packets of the same stream must see the same
		// buffer the original delivery loaded).
		if cap(c.lastFrame) < len(c.frame) {
			c.lastFrame = make([]uint32, len(c.frame))
		}
		c.lastFrame = c.lastFrame[:len(c.frame)]
		copy(c.lastFrame, c.frame)
		c.stats.FramesWritten++
		c.advanceFAR()
	}
	// Anything shorter than a frame remaining is the pad: absorbed.
	return nil
}

// deltaWord consumes one word of a partial-frame delta packet: alternating
// run headers (offset<<16 | count) and run payload words, patched into the
// FAR'd frame read-modify-write. Runs are validated against the frame length
// and the packet's remaining word count, so a truncated or out-of-range run
// fails immediately with ErrDelta. The patched frame commits when the packet
// ends; a re-delivery stream parses and validates but applies nothing.
func (c *Controller) deltaWord(w uint32) error {
	if c.cmd != CmdWCFG {
		return fmt.Errorf("%w: delta data without WCFG command", ErrDelta)
	}
	if c.deltaNeed == 0 {
		off := int(w >> 16)
		n := int(w & 0xFFFF)
		if n < 1 || off+n > int(c.flr) {
			return fmt.Errorf("%w: run offset %d count %d outside frame length %d", ErrDelta, off, n, c.flr)
		}
		if n > c.pending {
			return fmt.Errorf("%w: run of %d words truncated (%d words left in packet)", ErrDelta, n, c.pending)
		}
		if !c.deltaOpen {
			if !c.redelivery {
				base, err := c.dev.ReadFrame(c.far.Major, c.far.Minor)
				if err != nil {
					return fmt.Errorf("%w: %v", ErrDelta, err)
				}
				if len(c.frame) != int(c.flr) {
					c.frame = make([]uint32, c.flr)
				}
				copy(c.frame, base)
			}
			c.deltaOpen = true
		}
		c.deltaOff = off
		c.deltaNeed = n
		return nil
	}
	if !c.redelivery {
		c.frame[c.deltaOff] = w
	}
	c.deltaOff++
	c.deltaNeed--
	if c.pending == 0 && c.deltaNeed == 0 {
		c.deltaOpen = false
		if !c.redelivery {
			if _, err := c.dev.WriteFrameIfChanged(c.far.Major, c.far.Minor, c.frame); err != nil {
				return fmt.Errorf("%w: %v", ErrDelta, err)
			}
		}
		c.stats.FramesWritten++
		c.advanceFAR()
	}
	return nil
}

// mfwrWord consumes one dummy word of a multi-frame-write packet; the last
// one re-commits the frame most recently loaded through FDRI at the current
// FAR (the Virtex-II MFWR semantics: ship a repeated payload once, then
// re-target it by address).
func (c *Controller) mfwrWord() error {
	if c.cmd != CmdMFW {
		return fmt.Errorf("%w: MFWR data without MFW command", ErrDelta)
	}
	if c.pending > 0 {
		return nil
	}
	if len(c.lastFrame) != int(c.flr) {
		return fmt.Errorf("%w: MFWR with no loaded frame", ErrDelta)
	}
	if !c.redelivery {
		if _, err := c.dev.WriteFrameIfChanged(c.far.Major, c.far.Minor, c.lastFrame); err != nil {
			return fmt.Errorf("%w: %v", ErrDelta, err)
		}
	}
	c.stats.FramesWritten++
	c.advanceFAR()
	return nil
}

func (c *Controller) advanceFAR() {
	col, ok := c.dev.ColumnByMajor(c.far.Major)
	if !ok {
		return
	}
	c.far.Minor++
	if c.far.Minor >= col.Frames {
		c.far.Minor = 0
		c.far.Major++
	}
}

// ExecRead processes a readback request (a packet stream ending in an FDRO
// read) and returns the frame data words. Readback length is rounded to
// whole frames.
func (c *Controller) ExecRead(request []uint32) ([]uint32, error) {
	var out []uint32
	i := 0
	synced := false
	var far FAR
	var reg, pendingWrite int
	for i < len(request) {
		w := request[i]
		i++
		if !synced {
			if w == SyncWord {
				synced = true
			}
			continue
		}
		if pendingWrite > 0 {
			pendingWrite--
			if reg == RegFAR {
				far = DecodeFAR(w)
			}
			continue
		}
		typ := int(w >> typeShift & 0x7)
		op := int(w >> opShift & 0x3)
		switch typ {
		case Type1:
			reg = int(w >> addrShift & addrMask)
			wc := int(w & wc1Mask)
			if op == opWrite {
				pendingWrite = wc
			} else if op == opRead && reg == RegFDRO {
				data, err := c.readFrames(far, wc)
				if err != nil {
					return nil, err
				}
				out = append(out, data...)
			}
		case Type2:
			if op == opWrite {
				// Skip a Type-2 write payload (e.g. a batched FDRI burst
				// too long for a Type-1 word count) so a readback request
				// later in the log still parses.
				pendingWrite = int(w & wc2Mask)
			} else if op == opRead && reg == RegFDRO {
				data, err := c.readFrames(far, int(w&wc2Mask))
				if err != nil {
					return nil, err
				}
				out = append(out, data...)
			}
		case TypeNone:
		default:
			return nil, fmt.Errorf("%w: bad readback packet", ErrProtocol)
		}
	}
	c.stats.WordsOut += len(out)
	return out, nil
}

func (c *Controller) readFrames(far FAR, words int) ([]uint32, error) {
	fw := c.dev.FrameWords()
	n := words / fw
	var out []uint32
	f := far
	for k := 0; k < n; k++ {
		data, err := c.dev.ReadFrame(f.Major, f.Minor)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		c.stats.FramesRead++
		col, _ := c.dev.ColumnByMajor(f.Major)
		f.Minor++
		if f.Minor >= col.Frames {
			f.Minor = 0
			f.Major++
		}
	}
	return out, nil
}
