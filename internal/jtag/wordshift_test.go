package jtag

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// The bit-serial reference model: the port's DR shift, readback and burst
// loops as they were before the whole-word Shift-DR transition, stepping
// every DR bit through Chain.Step. TestWordShiftMatchesBitSerial holds the
// word-stepping port to them.

func refShiftDRIn(step stepFn, words []uint32) {
	step(true, false)  // Select-DR
	step(false, false) // Capture-DR
	step(false, false) // Shift-DR
	total := len(words) * 32
	n := 0
	for _, w := range words {
		for b := 31; b >= 0; b-- {
			n++
			step(n == total, w>>b&1 == 1)
		}
	}
	step(true, false)  // Update-DR
	step(false, false) // Run-Test/Idle
}

func refShiftDROut(p *Port, nWords int) []uint32 {
	p.step(true, false)  // Select-DR
	p.step(false, false) // Capture-DR
	p.step(false, false) // Shift-DR
	out := make([]uint32, nWords)
	total := nWords * 32
	n := 0
	for i := range out {
		var w uint32
		for b := 0; b < 32; b++ {
			n++
			bit := p.step(n == total, false)
			w <<= 1
			if bit {
				w |= 1
			}
		}
		out[i] = w
	}
	p.step(true, false)  // Update-DR
	p.step(false, false) // Run-Test/Idle
	return out
}

func refDeliverBurst(p *Port, words []uint32) error {
	if len(words) == 0 {
		return nil
	}
	p.Chain.ctrl.SetRedelivery(true)
	defer p.Chain.ctrl.SetRedelivery(false)
	var n uint64
	step := func(tms, tdi bool) bool {
		n++
		return p.Chain.Step(tms, tdi)
	}
	loadIRWith(step, InstrCfgIn)
	refShiftDRIn(step, words)
	if err := p.Chain.Err(); err != nil {
		return err
	}
	if n != burstCycles(len(words)) {
		return fmt.Errorf("jtag: burst stepped %d cycles, accounted %d", n, burstCycles(len(words)))
	}
	return nil
}

func refWriteUpdates(p *Port, updates []bitstream.FrameUpdate) error {
	if err := p.AwaitStream(); err != nil {
		return err
	}
	words := bitstream.EncodeStream(p.Chain.ctrl.Device(), p.compress, updates, p.meter.Traffic())
	if len(words) == 0 {
		return nil
	}
	p.LoadIR(InstrCfgIn)
	refShiftDRIn(p.step, words)
	return p.Chain.Err()
}

func refReadFrame(p *Port, addr fabric.FrameAddr) ([]uint32, error) {
	if err := p.AwaitStream(); err != nil {
		return nil, err
	}
	dev := p.Chain.ctrl.Device()
	req := bitstream.ReadFramesRequest(dev.FrameWords(), bitstream.FAR{Major: addr.Major, Minor: addr.Minor}, 1)
	p.LoadIR(InstrCfgIn)
	refShiftDRIn(p.step, req)
	p.LoadIR(InstrCfgOut)
	out := refShiftDROut(p, dev.FrameWords())
	if err := p.Chain.Err(); err != nil {
		return nil, err
	}
	if len(out) != dev.FrameWords() {
		return nil, fmt.Errorf("jtag: readback returned %d words", len(out))
	}
	return out, nil
}

// model is one twin's way of shifting: the port's word-stepping paths, or
// the bit-serial reference. Its background worker is set to match.
type model struct {
	shiftIn  func(p *Port, words []uint32)
	shiftOut func(p *Port, nWords int) []uint32
	write    func(p *Port, updates []bitstream.FrameUpdate) error
	read     func(p *Port, addr fabric.FrameAddr) ([]uint32, error)
	deliver  func(p *Port, words []uint32) error
}

var (
	wordModel = model{(*Port).ShiftDRIn, (*Port).ShiftDROut, (*Port).WriteUpdates, (*Port).ReadFrame, (*Port).deliverBurst}
	bitModel  = model{func(p *Port, w []uint32) { refShiftDRIn(p.step, w) }, refShiftDROut, refWriteUpdates, refReadFrame, refDeliverBurst}
)

func newTwin(preset fabric.Preset, m model) *Port {
	p := NewPort(bitstream.NewController(fabric.NewDevice(preset)), DefaultTCKHz)
	p.q.Deliver = func(words []uint32) error { return m.deliver(p, words) }
	return p
}

// portOp is one step of a differential scenario, run once on each twin with
// that twin's model. It returns the TDO words it shifted out, if any.
type portOp struct {
	name string
	run  func(p *Port, m model) ([]uint32, error)
}

func opWrite(updates []bitstream.FrameUpdate) portOp {
	return portOp{fmt.Sprintf("WriteUpdates(%d frames)", len(updates)), func(p *Port, m model) ([]uint32, error) {
		return nil, m.write(p, updates)
	}}
}

// opStream enqueues each set as one burst on the background worker, then
// awaits them all: the worker's own cycle cross-check surfaces here.
func opStream(sets ...[]bitstream.FrameUpdate) portOp {
	return portOp{fmt.Sprintf("StreamUpdates(%d bursts)+AwaitStream", len(sets)), func(p *Port, _ model) ([]uint32, error) {
		for _, s := range sets {
			p.StreamUpdates(s)
		}
		return nil, p.AwaitStream()
	}}
}

func opRead(addr fabric.FrameAddr) portOp {
	return portOp{fmt.Sprintf("ReadFrame(F%d.%d)", addr.Major, addr.Minor), func(p *Port, m model) ([]uint32, error) {
		return m.read(p, addr)
	}}
}

// opRawIn shifts arbitrary words through the foreground DR path under instr.
func opRawIn(name string, instr uint8, words []uint32) portOp {
	return portOp{name, func(p *Port, m model) ([]uint32, error) {
		p.LoadIR(instr)
		m.shiftIn(p, words)
		return nil, p.Chain.Err()
	}}
}

// opShiftIn shifts words through the foreground DR path under the current
// instruction, without an IR load (which would clear CFG_IN residual bits).
func opShiftIn(name string, words []uint32) portOp {
	return portOp{name, func(p *Port, m model) ([]uint32, error) {
		m.shiftIn(p, words)
		return nil, p.Chain.Err()
	}}
}

// opRawOut shifts nWords out of the DR under instr (TDI held low).
func opRawOut(name string, instr uint8, nWords int) portOp {
	return portOp{name, func(p *Port, m model) ([]uint32, error) {
		p.LoadIR(instr)
		return m.shiftOut(p, nWords), p.Chain.Err()
	}}
}

// opBurst enqueues arbitrary words as one worker burst, charged as
// StreamUpdates charges a burst.
func opBurst(name string, words []uint32) portOp {
	return portOp{name, func(p *Port, _ model) ([]uint32, error) {
		p.meter.Charge(burstCycles(len(words)))
		p.q.Enqueue(words)
		return nil, p.AwaitStream()
	}}
}

// opReadPast requests one frame of readback and shifts extra words past
// the served data under CFG_OUT.
func opReadPast(addr fabric.FrameAddr, extra int) portOp {
	return portOp{fmt.Sprintf("CFG_OUT %d words past F%d.%d", extra, addr.Major, addr.Minor), func(p *Port, m model) ([]uint32, error) {
		fw := p.Chain.ctrl.Device().FrameWords()
		p.LoadIR(InstrCfgIn)
		m.shiftIn(p, bitstream.ReadFramesRequest(fw, bitstream.FAR{Major: addr.Major, Minor: addr.Minor}, 1))
		p.LoadIR(InstrCfgOut)
		return m.shiftOut(p, fw+extra), p.Chain.Err()
	}}
}

// opUnaligned shifts nBits bits into CFG_IN, leaving residual bits.
func opUnaligned(nBits int) portOp {
	return portOp{fmt.Sprintf("unaligned CFG_IN shift of %d bits", nBits), func(p *Port, _ model) ([]uint32, error) {
		p.LoadIR(InstrCfgIn)
		p.step(true, false)
		p.step(false, false)
		p.step(false, false)
		for i := 0; i < nBits; i++ {
			p.step(i == nBits-1, i%3 == 0)
		}
		p.step(true, false)
		p.step(false, false)
		return nil, p.Chain.Err()
	}}
}

func opClass(c bitstream.Class) portOp {
	return portOp{fmt.Sprintf("SetClass(%d)", c), func(p *Port, _ model) ([]uint32, error) {
		p.meter.SetClass(c)
		return nil, nil
	}}
}

func opCompress(on bool) portOp {
	return portOp{fmt.Sprintf("SetCompress(%v)", on), func(p *Port, _ model) ([]uint32, error) {
		p.SetCompress(on)
		return nil, nil
	}}
}

// corpus draws seeded frame-update sets for one device.
type corpus struct {
	rng *rand.Rand
	dev *fabric.Device // a pristine device of the twins' preset
}

func newCorpus(preset fabric.Preset, seed int64) *corpus {
	return &corpus{rng: rand.New(rand.NewSource(seed)), dev: fabric.NewDevice(preset)}
}

func (c *corpus) frame() []uint32 {
	data := make([]uint32, c.dev.FrameWords())
	for i := range data {
		data[i] = c.rng.Uint32()
	}
	return data
}

func (c *corpus) addr() fabric.FrameAddr {
	major := c.rng.Intn(c.dev.NumMajors())
	col, _ := c.dev.ColumnByMajor(major)
	return fabric.FrameAddr{Major: major, Minor: c.rng.Intn(col.Frames)}
}

// updates draws runs of consecutive frames in random columns. With
// baselines, each frame carries a Prev: equal to Data (the encoder skips
// it), a few words off (a delta packet), or unrelated; some frames repeat
// an earlier payload (a multi-frame write).
func (c *corpus) updates(runs int, baselines bool) []bitstream.FrameUpdate {
	var ups []bitstream.FrameUpdate
	for r := 0; r < runs; r++ {
		start := c.addr()
		col, _ := c.dev.ColumnByMajor(start.Major)
		n := 1 + c.rng.Intn(4)
		for m := start.Minor; m < col.Frames && m < start.Minor+n; m++ {
			u := bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: start.Major, Minor: m}, Data: c.frame()}
			if len(ups) > 0 && c.rng.Intn(4) == 0 {
				u.Data = ups[c.rng.Intn(len(ups))].Data
			}
			if baselines {
				switch c.rng.Intn(3) {
				case 0:
					u.Prev = u.Data
				case 1:
					u.Prev = slices.Clone(u.Data)
					u.Prev[c.rng.Intn(len(u.Prev))] ^= 1 << c.rng.Intn(32)
				default:
					u.Prev = c.frame()
				}
			}
			ups = append(ups, u)
		}
	}
	return ups
}

// column is every frame of one column as one update set: on XCV800 its FDRI
// burst needs a Type-2 word count.
func (c *corpus) column(major int) []bitstream.FrameUpdate {
	col, _ := c.dev.ColumnByMajor(major)
	ups := make([]bitstream.FrameUpdate, col.Frames)
	for m := range ups {
		ups[m] = bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: major, Minor: m}, Data: c.frame()}
	}
	return ups
}

// crcErrorStream is a valid partial stream with one FDRI data word flipped
// (ErrCRC at its check word), followed by a second valid stream.
func (c *corpus) crcErrorStream() []uint32 {
	bad := bitstream.Partial(c.dev, c.updates(1, false))
	bad[len(bad)/2] ^= 0x00010000
	return append(bad, bitstream.Partial(c.dev, c.updates(2, false))...)
}

// protocolErrorStream writes a register the controller does not know
// (ErrProtocol), then carries on with a valid stream.
func (c *corpus) protocolErrorStream() []uint32 {
	const unknownReg = 13
	words := []uint32{bitstream.SyncWord, bitstream.Type1<<29 | 2<<27 | unknownReg<<13 | 1, 0xDEADBEEF}
	return append(words, bitstream.Partial(c.dev, c.updates(2, false))...)
}

// diffTwins reports the first observable difference between the twins:
// TAP and register state, the CFG_IN log and first error, the controller's
// complete state, every device frame, per-class meter usage and the
// worker's completed bursts.
func diffTwins(w, r *Port) string {
	a, b := w.Chain, r.Chain
	switch {
	case a.state != b.state || a.instr != b.instr:
		return fmt.Sprintf("TAP %v/%#x vs %v/%#x", a.state, a.instr, b.state, b.instr)
	case a.irShift != b.irShift || a.irBits != b.irBits || a.drShift != b.drShift || a.bypass != b.bypass:
		return "IR, IDCODE or BYPASS register differs"
	case a.inWord != b.inWord || a.inBits != b.inBits:
		return fmt.Sprintf("CFG_IN residual %#x/%d vs %#x/%d", a.inWord, a.inBits, b.inWord, b.inBits)
	case !slices.Equal(a.inLog, b.inLog):
		return fmt.Sprintf("inLog differs (%d vs %d words)", len(a.inLog), len(b.inLog))
	case !slices.Equal(a.outData, b.outData) || a.outWord != b.outWord || a.outBit != b.outBit:
		return fmt.Sprintf("CFG_OUT cursor %d.%d vs %d.%d", a.outWord, a.outBit, b.outWord, b.outBit)
	case errString(a.Err()) != errString(b.Err()):
		return fmt.Sprintf("Chain.Err: %v vs %v", a.Err(), b.Err())
	}
	if sa, sb := ctrlState(a.ctrl), ctrlState(b.ctrl); sa != sb {
		return fmt.Sprintf("controller state:\n  %s\nvs\n  %s", sa, sb)
	}
	if d := diffFrames(a.ctrl.Device(), b.ctrl.Device()); d != "" {
		return d
	}
	if ua, ub := w.meter.Usages(), r.meter.Usages(); !slices.Equal(ua, ub) {
		return fmt.Sprintf("meter usage %+v vs %+v", ua, ub)
	}
	if w.CompletedBursts() != r.CompletedBursts() {
		return fmt.Sprintf("completed bursts %d vs %d", w.CompletedBursts(), r.CompletedBursts())
	}
	return ""
}

// ctrlState renders every field of a controller but its device pointer —
// sync, CRC, FAR, command, packet and frame-buffer state and the counters —
// so the twins compare on the complete configuration-logic state.
func ctrlState(c *bitstream.Controller) string {
	v := reflect.ValueOf(c).Elem()
	var sb strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Pointer {
			fmt.Fprintf(&sb, "%s=%v ", v.Type().Field(i).Name, v.Field(i))
		}
	}
	return sb.String()
}

func diffFrames(a, b *fabric.Device) string {
	for major := 0; major < a.NumMajors(); major++ {
		col, _ := a.ColumnByMajor(major)
		for minor := 0; minor < col.Frames; minor++ {
			fa, _ := a.ReadFrame(major, minor)
			fb, _ := b.ReadFrame(major, minor)
			if !slices.Equal(fa, fb) {
				return fmt.Sprintf("device frame F%d.%d differs", major, minor)
			}
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestWordShiftMatchesBitSerial is the exactness gate of the whole-word
// Shift-DR transition: over a seeded corpus, a port that takes the word
// step and a twin that shifts every DR bit through Chain.Step (the loops
// above) must agree after every step on TAP state, CFG_IN log, first error,
// controller state, device frames, TDO words, per-class TCK cycles and the
// worker's cycle cross-check.
func TestWordShiftMatchesBitSerial(t *testing.T) {
	// wantErr is what the twins' sticky chain error must say at the end
	// ("" for none): it keeps each error scenario honest about the error
	// it exercises.
	type scenario struct {
		name    string
		preset  fabric.Preset
		wantErr string
		ops     func(c *corpus) []portOp
	}
	scenarios := []scenario{
		{"write-plain", fabric.TestDevice, "", func(c *corpus) []portOp {
			ops := []portOp{opClass(bitstream.Foreground)}
			for i := 0; i < 6; i++ {
				ops = append(ops, opWrite(c.updates(1+i%3, false)), opRead(c.addr()))
			}
			return append(ops, opClass(bitstream.Scrub), opRead(c.addr()), opReadPast(c.addr(), 3),
				opRawOut("CFG_OUT with no request", InstrCfgOut, 4))
		}},
		{"write-compressed", fabric.XCV50, "", func(c *corpus) []portOp {
			ops := []portOp{opCompress(true)}
			for i := 0; i < 6; i++ {
				ops = append(ops, opWrite(c.updates(2+i%3, true)), opRead(c.addr()))
			}
			return append(ops, opCompress(false), opWrite(c.updates(2, true)))
		}},
		{"stream-plain", fabric.TestDevice, "", func(c *corpus) []portOp {
			return []portOp{
				opStream(c.updates(1, false)),
				opClass(bitstream.Retry),
				opStream(c.updates(2, false), c.updates(3, false), c.updates(1, false)),
				opWrite(c.updates(2, false)),
				opStream(c.updates(4, false)),
				opRead(c.addr()),
			}
		}},
		{"stream-compressed", fabric.XCV50, "", func(c *corpus) []portOp {
			return []portOp{
				opCompress(true),
				opStream(c.updates(2, true), c.updates(3, true)),
				opClass(bitstream.Recovery),
				opStream(c.updates(1, true), c.updates(4, true)),
				opRead(c.addr()),
			}
		}},
		{"type2-column", fabric.XCV800, "", func(c *corpus) []portOp {
			return []portOp{
				opWrite(c.column(2)),
				opRead(fabric.FrameAddr{Major: 2, Minor: 47}),
				opStream(c.column(3), c.column(2)),
				opCompress(true),
				opWrite(c.column(4)),
				opStream(c.column(5)),
				opReadPast(fabric.FrameAddr{Major: 4, Minor: 0}, 2),
			}
		}},
		{"crc-error-foreground", fabric.TestDevice, "CRC mismatch", func(c *corpus) []portOp {
			return []portOp{
				opWrite(c.updates(2, false)),
				opRawIn("flipped stream, then more words", InstrCfgIn, c.crcErrorStream()),
				opWrite(c.updates(1, false)),
				opRead(c.addr()),
			}
		}},
		{"crc-error-worker", fabric.TestDevice, "CRC mismatch", func(c *corpus) []portOp {
			return []portOp{
				opStream(c.updates(2, false)),
				opBurst("flipped burst, then more words", c.crcErrorStream()),
				opStream(c.updates(1, false)),
			}
		}},
		{"protocol-error-foreground", fabric.TestDevice, "unknown register", func(c *corpus) []portOp {
			return []portOp{
				opRawIn("unknown register, then more words", InstrCfgIn, c.protocolErrorStream()),
				opWrite(c.updates(1, false)),
			}
		}},
		{"protocol-error-worker", fabric.TestDevice, "unknown register", func(c *corpus) []portOp {
			return []portOp{
				opBurst("unknown register, then more words", c.protocolErrorStream()),
				opStream(c.updates(1, false)),
			}
		}},
		{"idcode-bypass", fabric.TestDevice, "", func(c *corpus) []portOp {
			words := []uint32{0x12345678, 0x9ABCDEF0, 0x0F0F0F0F, 0xFFFFFFFF}
			return []portOp{
				opRawOut("IDCODE out", InstrIDCode, 3),
				opRawIn("IDCODE in", InstrIDCode, words),
				opRawOut("IDCODE out again", InstrIDCode, 2),
				opRawIn("BYPASS in", InstrBypass, words),
				opRawOut("BYPASS out", InstrBypass, 3),
				opWrite(c.updates(2, false)),
				opRead(c.addr()),
			}
		}},
		{"residual-bits", fabric.TestDevice, "not word-aligned", func(c *corpus) []portOp {
			return []portOp{
				opWrite(c.updates(1, false)),
				opUnaligned(33),
				opShiftIn("words after residual bits", bitstream.Partial(c.dev, c.updates(2, false))),
				opUnaligned(7),
				opShiftIn("more words after residual bits", bitstream.Partial(c.dev, c.updates(1, false))),
				opStream(c.updates(1, false)),
			}
		}},
	}
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			word, ref := newTwin(sc.preset, wordModel), newTwin(sc.preset, bitModel)
			for k, op := range sc.ops(newCorpus(sc.preset, int64(1600+i))) {
				tdoW, errW := op.run(word, wordModel)
				tdoR, errR := op.run(ref, bitModel)
				if errString(errW) != errString(errR) {
					t.Fatalf("op %d %s: error %v, bit-serial %v", k, op.name, errW, errR)
				}
				if !slices.Equal(tdoW, tdoR) {
					t.Fatalf("op %d %s: TDO words differ\n  word:       %#x\n  bit-serial: %#x", k, op.name, tdoW, tdoR)
				}
				if d := diffTwins(word, ref); d != "" {
					t.Fatalf("op %d %s: %s", k, op.name, d)
				}
			}
			if got := errString(word.Chain.Err()); !strings.Contains(got, sc.wantErr) || (sc.wantErr == "") != (got == "") {
				t.Errorf("chain error %q, want one saying %q", got, sc.wantErr)
			}
		})
	}
}

// TestWordStepAppliesOnlyOnConfigWords pins where the word step applies:
// on a word boundary of CFG_IN or CFG_OUT in Shift-DR. Everywhere else it
// must decline and leave the chain untouched, so the caller's bit-serial
// fallback sees exactly the state the bit-serial model would.
func TestWordStepAppliesOnlyOnConfigWords(t *testing.T) {
	enterShiftDR := func(p *Port, instr uint8) {
		p.LoadIR(instr)
		p.step(true, false)
		p.step(false, false)
		p.step(false, false)
	}
	declines := func(name string, p *Port) {
		t.Helper()
		before := *p.Chain
		before.inLog = slices.Clone(p.Chain.inLog)
		if _, ok := p.Chain.shiftWord(0xA5A5A5A5); ok {
			t.Errorf("%s: word step taken", name)
		}
		if !reflect.DeepEqual(before, *p.Chain) {
			t.Errorf("%s: declined word step changed the chain", name)
		}
	}
	for _, instr := range []uint8{InstrIDCode, InstrBypass, InstrJStart} {
		_, p := newPort(t)
		enterShiftDR(p, instr)
		declines(fmt.Sprintf("instr %#x", instr), p)
	}
	_, p := newPort(t)
	p.LoadIR(InstrCfgIn)
	declines("Run-Test/Idle", p)
	enterShiftDR(p, InstrCfgIn)
	if _, ok := p.Chain.shiftWord(bitstream.SyncWord); !ok {
		t.Error("CFG_IN word boundary: word step declined")
	}
	p.step(false, true)
	declines("CFG_IN with a residual bit", p)

	_, p = newPort(t)
	p.LoadIR(InstrCfgIn)
	p.ShiftDRIn(bitstream.ReadFramesRequest(p.Chain.ctrl.Device().FrameWords(), bitstream.FAR{Major: 1}, 1))
	enterShiftDR(p, InstrCfgOut)
	if _, ok := p.Chain.shiftWord(0); !ok {
		t.Error("CFG_OUT word boundary: word step declined")
	}
	p.step(false, false)
	declines("CFG_OUT mid-word", p)
}
