package bitstream

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
)

func TestFAREncodeDecodeRoundTrip(t *testing.T) {
	f := func(block, major, minor uint16) bool {
		far := FAR{Block: int(block % 16), Major: int(major % 4096), Minor: int(minor % 4096)}
		return DecodeFAR(EncodeFAR(far)) == far
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderEncoding(t *testing.T) {
	h := header1(opWrite, RegFDRI, 17)
	if h>>typeShift&7 != Type1 {
		t.Error("type bits wrong")
	}
	if int(h>>addrShift&addrMask) != RegFDRI {
		t.Error("addr bits wrong")
	}
	if int(h&wc1Mask) != 17 {
		t.Error("word count wrong")
	}
	h2 := header2(opWrite, 100000)
	if h2>>typeShift&7 != Type2 || int(h2&wc2Mask) != 100000 {
		t.Error("type2 encoding wrong")
	}
}

func TestCRCUpdateDeterministic(t *testing.T) {
	a := crcUpdate(0, RegFDRI, 0xDEADBEEF)
	b := crcUpdate(0, RegFDRI, 0xDEADBEEF)
	if a != b {
		t.Error("crcUpdate not deterministic")
	}
	if a == crcUpdate(0, RegFAR, 0xDEADBEEF) {
		t.Error("crc ignores register address")
	}
	if a == crcUpdate(0, RegFDRI, 0xDEADBEE0) {
		t.Error("crc ignores data")
	}
}

func newDevCtl() (*fabric.Device, *Controller) {
	dev := fabric.NewDevice(fabric.TestDevice)
	return dev, NewController(dev)
}

func TestWriteFramesThroughController(t *testing.T) {
	dev, ctl := newDevCtl()
	fw := dev.FrameWords()
	frames := [][]uint32{make([]uint32, fw), make([]uint32, fw), make([]uint32, fw)}
	for i, f := range frames {
		for j := range f {
			f[j] = uint32(i*1000 + j)
		}
	}
	major := dev.MajorOfArrayCol(2)
	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength().WriteFrames(FAR{Major: major, Minor: 5}, frames).Desync()
	if err := ctl.Feed(b.Words()...); err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		got, err := dev.ReadFrame(major, 5+i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != frames[i][j] {
				t.Fatalf("frame %d word %d = %d, want %d", i, j, got[j], frames[i][j])
			}
		}
	}
	if st := ctl.Stats(); st.FramesWritten != 3 {
		t.Errorf("FramesWritten = %d, want 3", st.FramesWritten)
	}
	// The pad frame must NOT have been committed to minor 5+3.
	got, _ := dev.ReadFrame(major, 8)
	for _, w := range got {
		if w != 0 {
			t.Fatal("pad frame leaked into configuration memory")
		}
	}
}

func TestCRCMismatchAborts(t *testing.T) {
	dev, ctl := newDevCtl()
	fw := dev.FrameWords()
	frames := [][]uint32{make([]uint32, fw)}
	frames[0][0] = 42
	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength().WriteFrames(FAR{Major: 1}, frames)
	words := b.Words()
	// Corrupt the CRC check word (last word emitted by CheckCRC).
	words[len(words)-1] ^= 0x1
	err := ctl.Feed(words...)
	if err == nil {
		t.Fatal("corrupted CRC accepted")
	}
	if ctl.Stats().CRCErrors != 1 {
		t.Errorf("CRCErrors = %d", ctl.Stats().CRCErrors)
	}
	// Controller desynchronises after a CRC error; further words are
	// ignored until a new sync word.
	if err := ctl.Feed(header1(opWrite, RegFAR, 1), 0); err != nil {
		t.Errorf("post-error words should be ignored, got %v", err)
	}
}

func TestCorruptedDataCaughtByCRC(t *testing.T) {
	dev, ctl := newDevCtl()
	fw := dev.FrameWords()
	frames := [][]uint32{make([]uint32, fw)}
	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength().WriteFrames(FAR{Major: 1}, frames)
	words := b.Words()
	// Flip a data bit mid-stream: the CRC check at the end must fire.
	words[len(words)-2-fw] ^= 0x10000
	if err := ctl.Feed(words...); err == nil {
		t.Fatal("corrupted data accepted")
	}
}

func TestFARAutoIncrementAcrossColumns(t *testing.T) {
	dev, ctl := newDevCtl()
	fw := dev.FrameWords()
	// Write across the clock-column boundary: majors 0 (8 frames) then 1.
	n := fabric.FramesPerClockColumn + 2
	frames := make([][]uint32, n)
	for i := range frames {
		frames[i] = make([]uint32, fw)
		frames[i][0] = uint32(i + 1)
	}
	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength().WriteFrames(FAR{Major: 0, Minor: 0}, frames).Desync()
	if err := ctl.Feed(b.Words()...); err != nil {
		t.Fatal(err)
	}
	got, _ := dev.ReadFrame(1, 0)
	if got[0] != uint32(fabric.FramesPerClockColumn+1) {
		t.Errorf("frame after column boundary = %d", got[0])
	}
	got, _ = dev.ReadFrame(1, 1)
	if got[0] != uint32(fabric.FramesPerClockColumn+2) {
		t.Errorf("second frame in next column = %d", got[0])
	}
}

func TestReadbackRoundTrip(t *testing.T) {
	dev, ctl := newDevCtl()
	c := fabric.Coord{Row: 2, Col: 3}
	dev.WriteCell(fabric.CellRef{Coord: c, Cell: 0}, fabric.CellConfig{LUT: 0xBEEF, FF: true})
	major := dev.MajorOfArrayCol(3)
	req := ReadFramesRequest(dev.FrameWords(), FAR{Major: major, Minor: 0}, 2)
	out, err := ctl.ExecRead(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2*dev.FrameWords() {
		t.Fatalf("readback length %d", len(out))
	}
	want, _ := dev.ReadFrame(major, 0)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("readback word %d mismatch", i)
		}
	}
	if ctl.Stats().FramesRead != 2 {
		t.Errorf("FramesRead = %d", ctl.Stats().FramesRead)
	}
}

func TestPartialBitstreamGroupsRuns(t *testing.T) {
	dev, ctl := newDevCtl()
	fw := dev.FrameWords()
	mk := func(v uint32) []uint32 {
		f := make([]uint32, fw)
		f[1] = v
		return f
	}
	ups := []FrameUpdate{
		{Addr: fabric.FrameAddr{Major: 2, Minor: 4}, Data: mk(10)},
		{Addr: fabric.FrameAddr{Major: 2, Minor: 5}, Data: mk(11)},
		{Addr: fabric.FrameAddr{Major: 2, Minor: 6}, Data: mk(12)},
		{Addr: fabric.FrameAddr{Major: 7, Minor: 0}, Data: mk(20)},
	}
	words := Partial(dev, ups)
	if err := ctl.Feed(words...); err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		got, _ := dev.ReadFrame(u.Addr.Major, u.Addr.Minor)
		if got[1] != u.Data[1] {
			t.Errorf("frame %v = %d, want %d", u.Addr, got[1], u.Data[1])
		}
	}
	// Grouping: 2 runs -> 2 pad frames; total data words = (3+1+1+1)*fw.
	wantData := (3 + 1 + 1 + 1) * fw
	if len(words) >= wantData+40 || len(words) <= wantData {
		t.Errorf("partial stream %d words, data %d: grouping suspicious", len(words), wantData)
	}
}

func TestPartialStreamWordsExact(t *testing.T) {
	dev := fabric.NewDevice(fabric.TestDevice)
	fw := dev.FrameWords()
	mk := func(addrs ...fabric.FrameAddr) []FrameUpdate {
		out := make([]FrameUpdate, len(addrs))
		for i, a := range addrs {
			out[i] = FrameUpdate{Addr: a, Data: make([]uint32, fw)}
		}
		return out
	}
	cases := [][]FrameUpdate{
		mk(fabric.FrameAddr{Major: 1, Minor: 0}),
		mk(fabric.FrameAddr{Major: 1, Minor: 0}, fabric.FrameAddr{Major: 1, Minor: 1}),
		mk(fabric.FrameAddr{Major: 1, Minor: 0}, fabric.FrameAddr{Major: 3, Minor: 5}),
	}
	// A run long enough to need a Type-2 FDRI header.
	var big []FrameUpdate
	for m := 0; m < fabric.FramesPerCLBColumn; m++ {
		big = append(big, FrameUpdate{Addr: fabric.FrameAddr{Major: 2, Minor: m}, Data: make([]uint32, fw)})
	}
	cases = append(cases, big)
	for i, updates := range cases {
		want := len(Partial(dev, updates))
		got := partialStreamWords(fw, updates)
		if got != want {
			t.Errorf("case %d: sized %d words, stream is %d", i, got, want)
		}
	}
}

func TestFullBitstreamRestoresDevice(t *testing.T) {
	dev, _ := newDevCtl()
	ref := fabric.CellRef{Coord: fabric.Coord{Row: 1, Col: 1}, Cell: 3}
	dev.WriteCell(ref, fabric.CellConfig{LUT: 0x1234, FF: true, CEUsed: true})
	dev.SetPIPMask(fabric.Coord{Row: 1, Col: 1}, fabric.LocalPinI(3, 0), 0b10)
	full, err := Full(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Apply to a fresh device: all state must carry over.
	dev2 := fabric.NewDevice(fabric.TestDevice)
	ctl2 := NewController(dev2)
	if err := ctl2.Feed(full...); err != nil {
		t.Fatal(err)
	}
	if got := dev2.ReadCell(ref); got.LUT != 0x1234 || !got.FF || !got.CEUsed {
		t.Errorf("cell after full config = %+v", got)
	}
	if got := dev2.PIPMask(fabric.Coord{Row: 1, Col: 1}, fabric.LocalPinI(3, 0)); got != 0b10 {
		t.Errorf("pip mask after full config = %#b", got)
	}
}

func TestShadowRecovery(t *testing.T) {
	dev, _ := newDevCtl()
	ref := fabric.CellRef{Coord: fabric.Coord{Row: 0, Col: 4}, Cell: 0}
	dev.WriteCell(ref, fabric.CellConfig{LUT: 0xABCD})
	shadow, err := NewShadow(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Device gets clobbered...
	dev.WriteCell(ref, fabric.CellConfig{})
	if dev.ReadCell(ref).LUT != 0 {
		t.Fatal("clobber failed")
	}
	// ...and the shadow restores it.
	dev2 := fabric.NewDevice(fabric.TestDevice)
	ctl2 := NewController(dev2)
	if err := ctl2.Feed(shadow.RecoveryBitstream()...); err != nil {
		t.Fatal(err)
	}
	if got := dev2.ReadCell(ref); got.LUT != 0xABCD {
		t.Errorf("recovered LUT = %#x", got.LUT)
	}
}

func TestParallelPort(t *testing.T) {
	dev, ctl := newDevCtl()
	port := NewParallelPort(ctl, 50e6)
	fw := dev.FrameWords()
	data := make([]uint32, fw)
	data[2] = 7
	err := port.WriteUpdates([]FrameUpdate{{Addr: fabric.FrameAddr{Major: 4, Minor: 2}, Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := dev.ReadFrame(4, 2)
	if got[2] != 7 {
		t.Error("port write did not land")
	}
	if port.Elapsed() <= 0 {
		t.Error("port consumed no time")
	}
	rb, err := port.ReadFrame(fabric.FrameAddr{Major: 4, Minor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rb[2] != 7 {
		t.Error("port readback mismatch")
	}
}

func TestFeedSplitAcrossCalls(t *testing.T) {
	dev, ctl := newDevCtl()
	fw := dev.FrameWords()
	frames := [][]uint32{make([]uint32, fw)}
	frames[0][3] = 5
	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength().WriteFrames(FAR{Major: 2, Minor: 0}, frames).Desync()
	words := b.Words()
	// Feed one word at a time: packet state must persist.
	for _, w := range words {
		if err := ctl.Feed(w); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := dev.ReadFrame(2, 0)
	if got[3] != 5 {
		t.Error("split feed lost data")
	}
}

func TestType2LargeWrite(t *testing.T) {
	// A write longer than the Type-1 word-count field (2047 words) must go
	// through the Type-2 packet path and still land frame-exact.
	dev, ctl := newDevCtl()
	fw := dev.FrameWords()
	n := (wc1Mask / fw) + 4 // enough frames to exceed the Type-1 limit
	frames := make([][]uint32, n)
	for i := range frames {
		frames[i] = make([]uint32, fw)
		frames[i][0] = uint32(i + 1)
	}
	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength().WriteFrames(FAR{Major: 1, Minor: 0}, frames).Desync()
	// Confirm a Type-2 header exists in the stream.
	hasType2 := false
	for _, w := range b.Words() {
		if int(w>>typeShift&7) == Type2 {
			hasType2 = true
		}
	}
	if !hasType2 {
		t.Fatal("large write did not use a Type-2 packet")
	}
	if err := ctl.Feed(b.Words()...); err != nil {
		t.Fatal(err)
	}
	// Spot-check first, middle, last frame (FAR auto-increments across
	// column boundaries).
	far := FAR{Major: 1, Minor: 0}
	for i := 0; i < n; i++ {
		got, err := dev.ReadFrame(far.Major, far.Minor)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != uint32(i+1) {
			t.Fatalf("frame %d: word0 = %d", i, got[0])
		}
		col, _ := dev.ColumnByMajor(far.Major)
		far.Minor++
		if far.Minor >= col.Frames {
			far.Minor = 0
			far.Major++
		}
	}
}

func TestXCV200BitstreamSizeRealistic(t *testing.T) {
	// The real XCV200 bitstream is about 1.3 Mbit; the model should be in
	// that ballpark (same column structure, slightly different packing).
	dev := fabric.NewDevice(fabric.XCV200)
	words, err := Full(dev)
	if err != nil {
		t.Fatal(err)
	}
	bits := len(words) * 32
	if bits < 800_000 || bits > 4_000_000 {
		t.Errorf("XCV200 full bitstream = %d bits, outside plausible range", bits)
	}
}
