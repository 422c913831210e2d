package bitstream

import (
	"fmt"

	"repro/internal/fabric"
)

// Builder assembles configuration packet streams (full or partial
// bitstreams) with a running CRC mirroring the controller's.
type Builder struct {
	frameWords int
	words      []uint32
	crc        uint16
}

// NewBuilder returns a builder for a device with the given frame length.
func NewBuilder(frameWords int) *Builder {
	return &Builder{frameWords: frameWords}
}

// NewBuilderFor returns a builder matched to a device.
func NewBuilderFor(dev *fabric.Device) *Builder {
	return NewBuilder(dev.FrameWords())
}

// Words returns the assembled packet stream.
func (b *Builder) Words() []uint32 { return b.words }

// Len returns the current stream length in words.
func (b *Builder) Len() int { return len(b.words) }

// Grow reserves capacity for at least n more words, so a caller that knows
// the stream size up front avoids append growth.
func (b *Builder) Grow(n int) *Builder {
	if cap(b.words)-len(b.words) < n {
		w := make([]uint32, len(b.words), len(b.words)+n)
		copy(w, b.words)
		b.words = w
	}
	return b
}

func (b *Builder) emit(ws ...uint32) { b.words = append(b.words, ws...) }

// Sync emits the synchronisation word.
func (b *Builder) Sync() *Builder {
	b.emit(SyncWord)
	return b
}

// writeReg emits a Type-1 single-word register write and folds the CRC.
func (b *Builder) writeReg(reg int, v uint32) {
	b.emit(header1(opWrite, reg, 1), v)
	if reg == RegCMD && (v == CmdRCRC || v == CmdDesync) {
		if v == CmdRCRC {
			b.crc = 0
		}
		return
	}
	b.crc = crcUpdate(b.crc, reg, v)
}

// ResetCRC emits the RCRC command.
func (b *Builder) ResetCRC() *Builder {
	b.writeReg(RegCMD, CmdRCRC)
	return b
}

// FrameLength emits the FLR register write.
func (b *Builder) FrameLength() *Builder {
	b.writeReg(RegFLR, uint32(b.frameWords))
	return b
}

// CheckCRC emits a CRC check word for everything since the last reset/check.
func (b *Builder) CheckCRC() *Builder {
	b.emit(header1(opWrite, RegCRC, 1), uint32(b.crc))
	b.crc = 0
	return b
}

// Start emits the START command (activate after full configuration).
func (b *Builder) Start() *Builder {
	b.writeReg(RegCMD, CmdStart)
	return b
}

// Desync emits the DESYNC command, ending the configuration session.
func (b *Builder) Desync() *Builder {
	b.writeReg(RegCMD, CmdDesync)
	return b
}

// WriteFrames emits a WCFG sequence writing consecutive frames starting at
// far. A trailing pad frame is appended automatically (the device's frame
// buffer semantics require flushing the last real frame through).
func (b *Builder) WriteFrames(far FAR, frames [][]uint32) *Builder {
	if len(frames) == 0 {
		return b
	}
	b.writeReg(RegCMD, CmdWCFG)
	b.writeReg(RegFAR, EncodeFAR(far))
	total := (len(frames) + 1) * b.frameWords
	if total <= wc1Mask {
		b.emit(header1(opWrite, RegFDRI, total))
	} else {
		b.emit(header1(opWrite, RegFDRI, 0), header2(opWrite, total))
	}
	for _, f := range frames {
		if len(f) != b.frameWords {
			panic(fmt.Sprintf("bitstream: frame length %d, want %d", len(f), b.frameWords))
		}
		for _, w := range f {
			b.emit(w)
			b.crc = crcUpdate(b.crc, RegFDRI, w)
		}
	}
	for i := 0; i < b.frameWords; i++ { // pad frame
		b.emit(0)
		b.crc = crcUpdate(b.crc, RegFDRI, 0)
	}
	b.CheckCRC()
	return b
}

// ReadFramesRequest builds a readback request for n frames starting at far.
func ReadFramesRequest(frameWords int, far FAR, n int) []uint32 {
	words := []uint32{SyncWord}
	words = append(words, header1(opWrite, RegCMD, 1), CmdRCFG)
	words = append(words, header1(opWrite, RegFAR, 1), EncodeFAR(far))
	total := n * frameWords
	if total <= wc1Mask {
		words = append(words, header1(opRead, RegFDRO, total))
	} else {
		words = append(words, header1(opRead, RegFDRO, 0), header2(opRead, total))
	}
	return words
}

// FrameUpdate is one frame's new content for partial reconfiguration. Prev,
// when set, is the content the fabric held before this update (the delta
// baseline): the compressed encoder diffs Data against it to ship only the
// changed word runs, and skips the frame entirely when they are equal. A nil
// or stale Prev is always safe — under write-through staging the device
// already holds Data, so a larger-than-needed delta merely ships more words.
type FrameUpdate struct {
	Addr fabric.FrameAddr
	Data []uint32
	Prev []uint32
}

// Partial builds a partial bitstream from frame updates, grouping runs of
// consecutive frames within a column into single FDRI bursts (minors must
// ascend within a major for grouping to apply; any order is accepted). The
// stream is sized exactly up front, so batched commits of many frames build
// without append growth.
func Partial(dev *fabric.Device, updates []FrameUpdate) []uint32 {
	b := NewBuilderFor(dev)
	b.Grow(partialStreamWords(dev.FrameWords(), updates))
	b.Sync().ResetCRC().FrameLength()
	appendUpdates(b, updates)
	b.Desync()
	return b.Words()
}

// updateRuns calls fn for each maximal run of consecutive frames (ascending
// minors within one major) in updates.
func updateRuns(updates []FrameUpdate, fn func(run []FrameUpdate)) {
	i := 0
	for i < len(updates) {
		j := i + 1
		for j < len(updates) &&
			updates[j].Addr.Major == updates[j-1].Addr.Major &&
			updates[j].Addr.Minor == updates[j-1].Addr.Minor+1 {
			j++
		}
		fn(updates[i:j])
		i = j
	}
}

// appendUpdates emits the WCFG bursts for a set of frame updates.
func appendUpdates(b *Builder, updates []FrameUpdate) {
	updateRuns(updates, func(run []FrameUpdate) {
		frames := make([][]uint32, len(run))
		for k, u := range run {
			frames[k] = u.Data
		}
		b.WriteFrames(FAR{Major: run[0].Addr.Major, Minor: run[0].Addr.Minor}, frames)
	})
}

// partialStreamWords returns the exact word count of the stream Partial
// builds for these updates: sync + RCRC + FLR preamble, per-run WCFG/FAR
// headers, frame data plus the trailing pad frame and CRC check, and the
// final desync.
func partialStreamWords(frameWords int, updates []FrameUpdate) int {
	n := 1 + 2 + 2 + 2 // sync, RCRC, FLR, desync
	updateRuns(updates, func(run []FrameUpdate) {
		total := (len(run) + 1) * frameWords
		hdr := 1
		if total > wc1Mask {
			hdr = 2
		}
		n += 2 + 2 + hdr + total + 2 // WCFG, FAR, FDRI header, data+pad, CRC
	})
	return n
}

// Full builds a complete bitstream of the device's current configuration.
func Full(dev *fabric.Device) ([]uint32, error) {
	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength()
	for _, col := range dev.Columns() {
		frames := make([][]uint32, col.Frames)
		for m := 0; m < col.Frames; m++ {
			f, err := dev.ReadFrame(col.Major, m)
			if err != nil {
				return nil, err
			}
			frames[m] = f
		}
		b.WriteFrames(FAR{Major: col.Major}, frames)
	}
	b.Start().Desync()
	return b.Words(), nil
}

// Shadow mirrors the device configuration on the host. The paper's tool
// "always keeps a complete copy of the current configuration, enabling
// system recovery in case of failure"; Shadow is that copy, a plain frame
// store. Frame slices in the shadow are replaced wholesale on every note and
// never mutated in place, which is what lets the frame tool's checkpoint
// keep a replaced slice as a frame's pre-image instead of copying it.
type Shadow struct {
	frameWords int
	columns    []fabric.Column
	data       map[fabric.FrameAddr][]uint32
}

// NewShadow captures the device's current full configuration.
func NewShadow(dev *fabric.Device) (*Shadow, error) {
	s := &Shadow{
		frameWords: dev.FrameWords(),
		columns:    dev.Columns(),
		data:       make(map[fabric.FrameAddr][]uint32),
	}
	for _, col := range dev.Columns() {
		for m := 0; m < col.Frames; m++ {
			f, err := dev.ReadFrame(col.Major, m)
			if err != nil {
				return nil, err
			}
			s.data[fabric.FrameAddr{Major: col.Major, Minor: m}] = f
		}
	}
	return s, nil
}

// NoteOwned records a frame update taking ownership of the slice (the caller
// must not mutate it afterwards).
func (s *Shadow) NoteOwned(addr fabric.FrameAddr, data []uint32) {
	s.data[addr] = data
}

// Frame returns the shadowed content of a frame.
func (s *Shadow) Frame(addr fabric.FrameAddr) ([]uint32, bool) {
	f, ok := s.data[addr]
	return f, ok
}

// RecoveryBitstream builds a full bitstream restoring the shadowed state.
func (s *Shadow) RecoveryBitstream() []uint32 {
	b := NewBuilder(s.frameWords)
	b.Sync().ResetCRC().FrameLength()
	for _, col := range s.columns {
		frames := make([][]uint32, col.Frames)
		for m := 0; m < col.Frames; m++ {
			frames[m] = s.data[fabric.FrameAddr{Major: col.Major, Minor: m}]
		}
		b.WriteFrames(FAR{Major: col.Major}, frames)
	}
	b.Start().Desync()
	return b.Words()
}
