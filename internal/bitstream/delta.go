package bitstream

import (
	"errors"

	"repro/internal/fabric"
)

// This file is the compressed configuration stream layer: partial-frame
// delta packets (only the changed word runs of a frame ship), multi-frame
// writes (one FDRI payload committed at a list of frame addresses — the
// Virtex-II MFWR idea: defragmentation slides rewrite near-identical frames
// over and over), and the encoder that picks, per frame, the cheapest of
// skip / delta / full / multi-frame. Verification stays CRC-only on this hot
// path; the full readback-verify survives as the escalation tier of the
// facade's retry ladder.
//
// Compressed delivery is frame-bit-identical to full-frame delivery by
// construction: a delta packet is applied read-modify-write against the
// configuration memory, which under the write-through staging model already
// holds every frame's final content — so the baseline a stale Prev diffs
// against can only enlarge the shipped set, never corrupt it.

// Compressed-stream register addresses and command (Virtex-II flavoured).
const (
	// RegMFWR is the multi-frame-write register: a short dummy-word packet
	// that re-commits the last FDRI-loaded frame at the current FAR.
	RegMFWR = 10
	// RegDELTA is the partial-frame delta register (a model extension): its
	// payload is a sequence of word runs patched into the frame at FAR.
	RegDELTA = 12
)

// CmdMFW arms multi-frame write mode: while it is the current command, each
// RegMFWR packet copies the frame buffer to the FAR'd frame.
const CmdMFW = 2

// mfwrDummyWords is the dummy payload length of one RegMFWR packet (the real
// part clocks two dummy words through to trigger the commit).
const mfwrDummyWords = 2

// ErrDelta is returned for malformed delta or multi-frame-write packets:
// out-of-range runs, truncated run payloads, an MFWR with no loaded frame.
var ErrDelta = errors.New("bitstream: malformed delta packet")

// deltaRunHeader packs one run descriptor: word offset in the frame and run
// length, both bounded by the frame length register.
func deltaRunHeader(offset, count int) uint32 {
	return uint32(offset&0xFFFF)<<16 | uint32(count&0xFFFF)
}

// EncodeStats describes one compressed stream against its uncompressed
// equivalent.
type EncodeStats struct {
	// WordsShifted is the length of the compressed stream.
	WordsShifted int
	// FullWords is the length of the stream Partial would have built for the
	// same updates — the uncompressed baseline of the compression ratio.
	FullWords int
	// DeltaFrames counts frames shipped as partial-frame delta packets.
	DeltaFrames int
	// MFWRFrames counts frames committed by multi-frame-write packets (the
	// first frame of each identical-payload group ships as a full frame and
	// is not counted here).
	MFWRFrames int
	// SkippedFrames counts frames elided entirely because their content
	// equals the Prev baseline (an identical rewrite carries no information).
	SkippedFrames int
	// FullFrames counts frames that shipped as ordinary full-frame FDRI data
	// (no usable baseline, or the delta would have been larger).
	FullFrames int
}

// deltaRun is one changed word run of a frame.
type deltaRun struct {
	off   int
	words []uint32
}

// diffRuns returns the maximal runs of words where next differs from prev.
func diffRuns(prev, next []uint32) []deltaRun {
	var runs []deltaRun
	i := 0
	for i < len(next) {
		if prev[i] == next[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(next) && prev[j] != next[j] {
			j++
		}
		runs = append(runs, deltaRun{off: i, words: next[i:j]})
		i = j
	}
	return runs
}

// CompressedPartial builds a compressed partial bitstream for the updates:
// frames whose Prev baseline equals their content are skipped, frames with a
// baseline and a small diff ship as delta packets, repeated identical
// payloads among the rest collapse into multi-frame writes, and everything
// else falls back to the ordinary consecutive-run FDRI bursts. The result is
// protocol-complete (sync, CRC brackets, desync) and decodes on the stock
// Controller to exactly the same frame images Partial produces.
func CompressedPartial(dev *fabric.Device, updates []FrameUpdate) ([]uint32, EncodeStats) {
	fw := dev.FrameWords()
	st := EncodeStats{FullWords: partialStreamWords(fw, updates)}

	type deltaFrame struct {
		addr fabric.FrameAddr
		runs []deltaRun
	}
	var deltas []deltaFrame
	var full []FrameUpdate
	for _, u := range updates {
		if len(u.Prev) != fw || len(u.Data) != fw {
			full = append(full, u)
			continue
		}
		runs := diffRuns(u.Prev, u.Data)
		if len(runs) == 0 {
			st.SkippedFrames++
			continue
		}
		payload := 0
		for _, r := range runs {
			payload += 1 + len(r.words)
		}
		// A delta costs a FAR write (2 words) plus the packet header on top
		// of its payload; the break-even against riding in a full-frame FDRI
		// run is roughly the frame length. Oversized payloads (beyond a
		// Type-1 word count) also fall back.
		if 3+payload >= fw || payload > wc1Mask {
			full = append(full, u)
			continue
		}
		st.DeltaFrames++
		deltas = append(deltas, deltaFrame{addr: u.Addr, runs: runs})
	}

	// Group identical payloads among the full-frame pool: each group of two
	// or more commits one FDRI frame and re-targets it with MFWR packets.
	type group struct{ members []int }
	byContent := map[string]*group{}
	order := []*group{}
	for i, u := range full {
		key := frameKey(u.Data)
		g := byContent[key]
		if g == nil {
			g = &group{}
			byContent[key] = g
			order = append(order, g)
		}
		g.members = append(g.members, i)
	}

	b := NewBuilderFor(dev)
	b.Sync().ResetCRC().FrameLength()

	var singles []FrameUpdate
	for _, g := range order {
		if len(g.members) < 2 {
			singles = append(singles, full[g.members[0]])
			continue
		}
		first := full[g.members[0]]
		b.WriteFrames(FAR{Major: first.Addr.Major, Minor: first.Addr.Minor}, [][]uint32{first.Data})
		st.FullFrames++
		b.writeReg(RegCMD, CmdMFW)
		for _, idx := range g.members[1:] {
			u := full[idx]
			b.writeReg(RegFAR, EncodeFAR(FAR{Major: u.Addr.Major, Minor: u.Addr.Minor}))
			b.emit(header1(opWrite, RegMFWR, mfwrDummyWords))
			for k := 0; k < mfwrDummyWords; k++ {
				b.emit(0)
				b.crc = crcUpdate(b.crc, RegMFWR, 0)
			}
			st.MFWRFrames++
		}
		b.CheckCRC()
	}
	if len(singles) > 0 {
		st.FullFrames += len(singles)
		appendUpdates(b, singles)
	}
	if len(deltas) > 0 {
		b.writeReg(RegCMD, CmdWCFG)
		for _, d := range deltas {
			b.writeReg(RegFAR, EncodeFAR(FAR{Major: d.addr.Major, Minor: d.addr.Minor}))
			total := 0
			for _, r := range d.runs {
				total += 1 + len(r.words)
			}
			b.emit(header1(opWrite, RegDELTA, total))
			for _, r := range d.runs {
				b.emit(deltaRunHeader(r.off, len(r.words)))
				b.crc = crcUpdate(b.crc, RegDELTA, deltaRunHeader(r.off, len(r.words)))
				for _, w := range r.words {
					b.emit(w)
					b.crc = crcUpdate(b.crc, RegDELTA, w)
				}
			}
		}
		b.CheckCRC()
	}
	b.Desync()
	words := b.Words()
	if st.SkippedFrames == len(updates) && len(updates) > 0 {
		// Everything was an identical rewrite: ship nothing at all instead
		// of a payload-free protocol shell.
		words = nil
	}
	st.WordsShifted = len(words)
	return words, st
}

// frameKey builds a content key for MFWR grouping.
func frameKey(words []uint32) string {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	return string(buf)
}

// Traffic accumulates a port's configuration-write payload accounting: how
// many words actually shipped versus what the uncompressed streams would
// have taken. Readback traffic is excluded — the ratio measures write-path
// compression only.
type Traffic struct {
	// WordsShifted counts the stream words actually delivered.
	WordsShifted uint64 `json:"words_shifted,omitempty"`
	// FullWords counts the words the same deliveries would have taken
	// uncompressed (equal to WordsShifted when compression is off).
	FullWords uint64 `json:"full_words,omitempty"`
	// FramesDelivered counts the frame updates handed to the port's write
	// paths (skipped identical rewrites included: the caller asked for them).
	FramesDelivered uint64 `json:"frames_delivered,omitempty"`
}

// CompressionRatio returns FullWords/WordsShifted (1 when nothing shipped,
// so an idle or fully-elided port reads as "no compression win" rather than
// infinity).
func (t Traffic) CompressionRatio() float64 {
	if t.WordsShifted == 0 {
		return 1
	}
	return float64(t.FullWords) / float64(t.WordsShifted)
}

// EncodeStream builds the write stream for updates — compressed or not —
// and accounts it into tr. A nil return (only possible compressed, when
// every frame was an identical rewrite) means nothing needs shipping. Both
// stock ports route their write paths through it.
func EncodeStream(dev *fabric.Device, compress bool, updates []FrameUpdate, tr *Traffic) []uint32 {
	tr.FramesDelivered += uint64(len(updates))
	if !compress {
		words := Partial(dev, updates)
		tr.WordsShifted += uint64(len(words))
		tr.FullWords += uint64(len(words))
		return words
	}
	words, st := CompressedPartial(dev, updates)
	tr.WordsShifted += uint64(st.WordsShifted)
	tr.FullWords += uint64(st.FullWords)
	return words
}
