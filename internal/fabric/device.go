package fabric

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
)

// ColumnKind distinguishes the configuration column types of the device.
type ColumnKind uint8

const (
	// ColClock is the single centre clock column.
	ColClock ColumnKind = iota
	// ColCLB is a CLB column (one per array column).
	ColCLB
	// ColIOB is one of the two vertical IOB columns (left, right).
	ColIOB
	// ColBRAM is a block-RAM content column (size accounting only).
	ColBRAM
)

var colKindNames = [...]string{"CLOCK", "CLB", "IOB", "BRAM"}

func (k ColumnKind) String() string { return colKindNames[k] }

// Column describes one configuration column of the device.
type Column struct {
	Kind   ColumnKind
	Major  int // major frame address
	Frames int // number of frames (minor addresses)
	// ArrayCol is the CLB array column this configuration column carries
	// (only for ColCLB).
	ArrayCol int
}

// Preset names a supported device geometry.
type Preset struct {
	Name string
	Rows int
	Cols int
}

// Device presets. XCV200 is the device used in the paper's experiments.
var (
	// TestDevice is a small array for fast unit tests.
	TestDevice = Preset{Name: "TEST12x8", Rows: 8, Cols: 12}
	// XCV50 approximates the smallest Virtex part (16x24 CLBs).
	XCV50 = Preset{Name: "XCV50", Rows: 16, Cols: 24}
	// XCV200 approximates the paper's device (28x42 CLBs).
	XCV200 = Preset{Name: "XCV200", Rows: 28, Cols: 42}
	// XCV800 approximates a large Virtex part (56x84 CLBs).
	XCV800 = Preset{Name: "XCV800", Rows: 56, Cols: 84}
)

// Presets lists every device preset, smallest first.
var Presets = []Preset{TestDevice, XCV50, XCV200, XCV800}

// PresetByName looks a preset up by its (case-insensitive) name.
func PresetByName(name string) (Preset, bool) {
	for _, p := range Presets {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return Preset{}, false
}

// PadsPerEdgeTile is the number of IOB pads attached per border tile edge
// position.
const PadsPerEdgeTile = 2

// Device is a Virtex-class FPGA: geometry, configuration memory, and the
// mapping between configuration bits and fabric resources. All mutation of
// device behaviour happens by writing configuration frames (or the bit-level
// helpers layered on them), exactly as on real silicon.
type Device struct {
	Preset
	mu sync.RWMutex

	columns    []Column
	majorOfCol []int // array column -> major address
	frameBase  []int // major -> linear index of its first frame
	frameWords int   // uniform frame length in 32-bit words
	frameBits  int   // uniform frame length in bits
	frames     [][]uint32
	// frameGen[i] is the generation at which frame i last changed;
	// addrOfFrame maps the linear frame index back to its address. Together
	// they let host-side tools synchronise shadow copies frame-by-frame
	// instead of re-reading the whole configuration.
	frameGen    []uint64
	addrOfFrame []FrameAddr

	// pipOffset[sinkLocal] is the bit offset of the sink's PIP mask within
	// the tile's configuration slot space; pipWidth its width. sinkAt is the
	// inverse: the sink whose mask holds a slot in [cellSlot(CellsPerCLB),
	// pipEnd).
	pipOffset [sinkCount]int
	pipWidth  [sinkCount]int
	sinkAt    [TileConfigBits]uint8
	pipEnd    int

	// tileGen is bumped whenever configuration covering the tile changes;
	// simulators use it for incremental re-derivation.
	tileGen []uint64
	padGen  uint64
	gen     uint64
}

// NewDevice builds a device with all configuration memory zeroed.
func NewDevice(p Preset) *Device {
	d := &Device{Preset: p}
	d.frameBits = (p.Rows + 2) * BitsPerTileRow
	d.frameWords = (d.frameBits + 31) / 32

	// Column layout: clock, CLB columns left to right, two IOB columns,
	// two BRAM content columns. Majors are assigned sequentially.
	d.majorOfCol = make([]int, p.Cols)
	major := 0
	add := func(kind ColumnKind, frames, arrayCol int) {
		d.columns = append(d.columns, Column{Kind: kind, Major: major, Frames: frames, ArrayCol: arrayCol})
		major++
	}
	add(ColClock, FramesPerClockColumn, -1)
	for c := 0; c < p.Cols; c++ {
		d.majorOfCol[c] = major
		add(ColCLB, FramesPerCLBColumn, c)
	}
	add(ColIOB, FramesPerIOBColumn, -1)
	add(ColIOB, FramesPerIOBColumn, -1)
	add(ColBRAM, 64, -1)
	add(ColBRAM, 64, -1)

	d.frames = make([][]uint32, 0, d.totalFrames())
	d.frameBase = make([]int, len(d.columns))
	for _, col := range d.columns {
		d.frameBase[col.Major] = len(d.frames)
		for i := 0; i < col.Frames; i++ {
			d.frames = append(d.frames, make([]uint32, d.frameWords))
			d.addrOfFrame = append(d.addrOfFrame, FrameAddr{Major: col.Major, Minor: i})
		}
	}
	d.frameGen = make([]uint64, len(d.frames))
	d.tileGen = make([]uint64, p.Rows*p.Cols)

	// Variable-width PIP mask packing after the 128 logic bits.
	off := CellsPerCLB * cellConfigBits
	for s := 0; s < sinkCount; s++ {
		d.pipOffset[s] = off
		d.pipWidth[s] = len(sinkSources[s])
		off += d.pipWidth[s]
	}
	if off > TileConfigBits {
		panic(fmt.Sprintf("fabric: tile config needs %d bits, have %d", off, TileConfigBits))
	}
	for s := 0; s < sinkCount; s++ {
		for b := 0; b < d.pipWidth[s]; b++ {
			d.sinkAt[d.pipOffset[s]+b] = uint8(s)
		}
	}
	d.pipEnd = off
	return d
}

// Columns returns the configuration column table.
func (d *Device) Columns() []Column { return d.columns }

// FrameWords returns the uniform frame length in 32-bit words.
func (d *Device) FrameWords() int { return d.frameWords }

// FrameBits returns the uniform frame length in bits.
func (d *Device) FrameBits() int { return d.frameBits }

// NumMajors returns the number of configuration columns.
func (d *Device) NumMajors() int { return len(d.columns) }

// MajorOfArrayCol returns the major address of the CLB column carrying
// array column c.
func (d *Device) MajorOfArrayCol(c int) int { return d.majorOfCol[c] }

// ColumnByMajor returns the column descriptor for a major address.
func (d *Device) ColumnByMajor(major int) (Column, bool) {
	if major < 0 || major >= len(d.columns) {
		return Column{}, false
	}
	return d.columns[major], true
}

func (d *Device) totalFrames() int {
	n := 0
	for _, c := range d.columns {
		n += c.Frames
	}
	return n
}

// TotalFrames returns the total frame count of the device.
func (d *Device) TotalFrames() int { return len(d.frames) }

// ConfigBits returns the total size of the configuration memory in bits.
func (d *Device) ConfigBits() int { return len(d.frames) * d.frameBits }

func (d *Device) frameIndex(major, minor int) (int, error) {
	if major < 0 || major >= len(d.columns) {
		return 0, fmt.Errorf("fabric: major %d out of range [0,%d)", major, len(d.columns))
	}
	col := d.columns[major]
	if minor < 0 || minor >= col.Frames {
		return 0, fmt.Errorf("fabric: minor %d out of range [0,%d) in major %d", minor, col.Frames, major)
	}
	return d.frameBase[major] + minor, nil
}

// ReadFrame copies one configuration frame out of the device.
func (d *Device) ReadFrame(major, minor int) ([]uint32, error) {
	idx, err := d.frameIndex(major, minor)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]uint32, d.frameWords)
	copy(out, d.frames[idx])
	return out, nil
}

// ReadFrameInto copies one configuration frame into dst, which must hold
// FrameWords words: ReadFrame without the allocation, for a reader that
// walks every frame through one buffer.
func (d *Device) ReadFrameInto(major, minor int, dst []uint32) error {
	idx, err := d.frameIndex(major, minor)
	if err != nil {
		return err
	}
	if len(dst) != d.frameWords {
		return fmt.Errorf("fabric: frame buffer length %d, want %d words", len(dst), d.frameWords)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	copy(dst, d.frames[idx])
	return nil
}

// WriteFrame overwrites one configuration frame. Writing a frame marks every
// tile of the column stale for simulation purposes, even when the data is
// identical: rewriting identical bits is glitch-free on the fabric (a
// property the relocation procedure depends on), and the simulator verifies
// that by re-deriving and comparing.
func (d *Device) WriteFrame(major, minor int, data []uint32) error {
	_, err := d.writeFrame(major, minor, data, true)
	return err
}

func (d *Device) writeFrame(major, minor int, data []uint32, force bool) (bool, error) {
	idx, err := d.frameIndex(major, minor)
	if err != nil {
		return false, err
	}
	if len(data) != d.frameWords {
		return false, fmt.Errorf("fabric: frame data length %d, want %d words", len(data), d.frameWords)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.frames[idx]
	if !force {
		same := true
		for i, w := range data {
			if cur[i] != w {
				same = false
				break
			}
		}
		if same {
			return false, nil
		}
	}
	copy(cur, data)
	d.touchColumnLocked(major)
	d.frameGen[idx] = d.gen
	return true, nil
}

// WriteFrameIfChanged writes one configuration frame only when the data
// differs from the current content, reporting whether anything changed. A
// no-delta write bumps no generation counter and marks nothing stale — the
// configuration logic uses it to deliver partial bitstreams whose frames were
// already staged write-through, so a background shift-out re-delivering
// staged data is invisible to host-side generation tracking (and performs
// only reads of the configuration memory).
func (d *Device) WriteFrameIfChanged(major, minor int, data []uint32) (bool, error) {
	return d.writeFrame(major, minor, data, false)
}

func (d *Device) touchColumnLocked(major int) {
	d.gen++
	col := d.columns[major]
	switch col.Kind {
	case ColCLB:
		for r := 0; r < d.Rows; r++ {
			d.tileGen[r*d.Cols+col.ArrayCol] = d.gen
		}
		d.padGen = d.gen // pseudo-rows carry top/bottom pads
	case ColIOB:
		d.padGen = d.gen
	}
}

// Generation returns the global configuration generation counter.
func (d *Device) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// FramesChangedSince returns the addresses of every frame written after the
// given generation, in frame-address order. Host-side shadow copies use it
// to re-read only what moved — rollback and synchronisation state stays
// proportional to the change, not to the device.
func (d *Device) FramesChangedSince(gen uint64) []FrameAddr {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []FrameAddr
	for i, g := range d.frameGen {
		if g > gen {
			out = append(out, d.addrOfFrame[i])
		}
	}
	return out
}

// TileGeneration returns the configuration generation of one tile.
func (d *Device) TileGeneration(c Coord) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tileGen[c.Row*d.Cols+c.Col]
}

// PadGeneration returns the configuration generation of the IOB ring.
func (d *Device) PadGeneration() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.padGen
}

// InBounds reports whether a coordinate addresses a CLB on the array.
func (d *Device) InBounds(c Coord) bool {
	return c.Row >= 0 && c.Row < d.Rows && c.Col >= 0 && c.Col < d.Cols
}

// FrameIndex returns the linear index of a valid frame address: frames
// number 0..TotalFrames()-1 in frame-address order.
func (d *Device) FrameIndex(a FrameAddr) int { return d.frameBase[a.Major] + a.Minor }

// FrameAddrAt is the inverse of FrameIndex.
func (d *Device) FrameAddrAt(i int) FrameAddr { return d.addrOfFrame[i] }

// TileIndex returns the linear index of a tile.
func (d *Device) TileIndex(c Coord) int { return c.Row*d.Cols + c.Col }

// CoordOfTile is the inverse of TileIndex.
func (d *Device) CoordOfTile(idx int) Coord {
	return Coord{Row: idx / d.Cols, Col: idx % d.Cols}
}

// NodeIDAt packs a tile-local routing node into a device-wide NodeID.
func (d *Device) NodeIDAt(c Coord, local int) NodeID {
	return NodeID(d.TileIndex(c)*NodeSlots + local)
}

// PadBase returns the first NodeID used for IOB pads.
func (d *Device) PadBase() NodeID { return NodeID(d.Rows * d.Cols * NodeSlots) }

// SplitNode splits a NodeID into tile coordinate and local id; ok is false
// for pad nodes.
func (d *Device) SplitNode(n NodeID) (Coord, int, bool) {
	if n >= d.PadBase() {
		return Coord{}, 0, false
	}
	return d.CoordOfTile(int(n) / NodeSlots), int(n) % NodeSlots, true
}

// --- bit-level access to a tile's configuration slot space ---------------

// tileBitAddr maps (tile, slot) to (major, minor, bit offset inside frame).
// Tile r of column c stores slot s at frame minor s/BitsPerTileRow, bit
// r*BitsPerTileRow + s%BitsPerTileRow.
func (d *Device) tileBitAddr(c Coord, slot int) (major, minor, bit int) {
	major = d.majorOfCol[c.Col]
	minor = slot / BitsPerTileRow
	bit = c.Row*BitsPerTileRow + slot%BitsPerTileRow
	return
}

func (d *Device) getBitLocked(frameIdx, bit int) bool {
	return d.frames[frameIdx][bit/32]>>(bit%32)&1 == 1
}

func (d *Device) setBitLocked(frameIdx, bit int, v bool) {
	if v {
		d.frames[frameIdx][bit/32] |= 1 << (bit % 32)
	} else {
		d.frames[frameIdx][bit/32] &^= 1 << (bit % 32)
	}
}

// GetTileField reads width bits starting at a tile slot, LSB first.
func (d *Device) GetTileField(c Coord, slot, width int) uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.getTileFieldLocked(c, slot, width)
}

func (d *Device) getTileFieldLocked(c Coord, slot, width int) uint32 {
	// Consecutive slots share a frame until the slot index crosses a
	// BitsPerTileRow boundary, so the field is read one run per frame. A run
	// is at most BitsPerTileRow bits, so it lies within two adjacent frame
	// words and comes out of one 64-bit window. This path sits under every
	// PIP-mask and cell-config read — the hottest loop of the occupancy view
	// and the relocation engine's free-resource checks.
	var v uint32
	base := d.frameBase[d.majorOfCol[c.Col]]
	rowBase := c.Row * BitsPerTileRow
	for i := 0; i < width; {
		s := slot + i
		off := s % BitsPerTileRow
		n := min(BitsPerTileRow-off, width-i)
		frame := d.frames[base+s/BitsPerTileRow]
		bit := rowBase + off
		w := bit / 32
		window := uint64(frame[w])
		if w+1 < len(frame) {
			window |= uint64(frame[w+1]) << 32
		}
		v |= uint32(window>>(bit%32)&(1<<n-1)) << i
		i += n
	}
	return v
}

// SetTileField writes width bits starting at a tile slot, LSB first, and
// marks the tile stale. This is the "designer-level" mutation path used by
// initial placement; the relocation tool goes through frames instead.
func (d *Device) SetTileField(c Coord, slot, width int, v uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++
	d.setTileFieldLocked(c, slot, width, v)
	d.tileGen[d.TileIndex(c)] = d.gen
}

func (d *Device) setTileFieldLocked(c Coord, slot, width int, v uint32) {
	for i := 0; i < width; i++ {
		major, minor, bit := d.tileBitAddr(c, slot+i)
		idx, _ := d.frameIndex(major, minor)
		d.setBitLocked(idx, bit, v>>i&1 == 1)
		d.frameGen[idx] = d.gen
	}
}

// TouchedFrames returns the distinct (major, minor) frames that hold the
// given tile slots — the frame cost of changing those bits. Slot ranges are
// given as [start, start+width) pairs.
func (d *Device) TouchedFrames(c Coord, ranges ...[2]int) []FrameAddr {
	seen := map[FrameAddr]bool{}
	var out []FrameAddr
	for _, rg := range ranges {
		for s := rg[0]; s < rg[0]+rg[1]; s++ {
			major, minor, _ := d.tileBitAddr(c, s)
			fa := FrameAddr{Major: major, Minor: minor}
			if !seen[fa] {
				seen[fa] = true
				out = append(out, fa)
			}
		}
	}
	return out
}

// FrameAddr addresses one configuration frame.
type FrameAddr struct {
	Major, Minor int
}

func (f FrameAddr) String() string { return fmt.Sprintf("F%d.%d", f.Major, f.Minor) }

// Compare orders frame addresses by major, then minor: the order a partial
// bitstream writes them in, so consecutive frames share FDRI bursts.
func (f FrameAddr) Compare(g FrameAddr) int {
	return cmp.Or(cmp.Compare(f.Major, g.Major), cmp.Compare(f.Minor, g.Minor))
}
