package fabric

import "fmt"

// NodeKind classifies a local routing-graph node inside one tile.
type NodeKind uint8

const (
	// KindSingle is the start of a single-length wire leaving the tile.
	KindSingle NodeKind = iota
	// KindHex is the start of a hex-length (six tile) wire leaving the tile.
	KindHex
	// KindPinI is a LUT input pin of one cell (I0..I3).
	KindPinI
	// KindPinBX is the direct FF-bypass input pin of one cell.
	KindPinBX
	// KindPinCE is the clock-enable input pin of one cell.
	KindPinCE
	// KindOutX is the combinational (LUT) output of one cell.
	KindOutX
	// KindOutXQ is the registered (FF/latch) output of one cell.
	KindOutXQ
	// KindPad is an IOB pad node on the device periphery.
	KindPad
)

var kindNames = [...]string{"SGL", "HEX", "I", "BX", "CE", "X", "XQ", "PAD"}

func (k NodeKind) String() string { return kindNames[k] }

// Local node id layout within one tile. Wire starts and input pins are
// configuration sinks (they have a PIP mask); cell outputs are pure sources.
const (
	localSingleBase = 0                                     // 4 dirs x SinglesPerDir
	localHexBase    = localSingleBase + 4*SinglesPerDir     // 4 dirs x HexesPerDir
	localPinIBase   = localHexBase + 4*HexesPerDir          // CellsPerCLB x LUTInputs
	localPinBXBase  = localPinIBase + CellsPerCLB*LUTInputs // CellsPerCLB
	localPinCEBase  = localPinBXBase + CellsPerCLB          // CellsPerCLB
	localOutXBase   = localPinCEBase + CellsPerCLB          // CellsPerCLB
	localOutXQBase  = localOutXBase + CellsPerCLB           // CellsPerCLB
	localNodeCount  = localOutXQBase + CellsPerCLB          // total locals per tile
	sinkCount       = localOutXBase                         // locals [0,sinkCount) are sinks
	// NodeSlots is the node-id stride per tile (locals padded to a fixed
	// power-of-two-ish stride for cheap packing).
	NodeSlots = 96
)

// NodeID identifies a routing-graph node device-wide. Tile-local nodes are
// packed as tileIndex*NodeSlots+local; IOB pads live above PadBase.
type NodeID uint32

// InvalidNode is the zero-value "no node" sentinel.
const InvalidNode NodeID = 0xFFFFFFFF

// LocalSingle returns the local id of the single-wire start (d, i).
func LocalSingle(d Dir, i int) int { return localSingleBase + int(d)*SinglesPerDir + i }

// LocalHex returns the local id of the hex-wire start (d, j).
func LocalHex(d Dir, j int) int { return localHexBase + int(d)*HexesPerDir + j }

// LocalPinI returns the local id of LUT input pin k of the given cell.
func LocalPinI(cell, k int) int { return localPinIBase + cell*LUTInputs + k }

// LocalPinBX returns the local id of the BX pin of the given cell.
func LocalPinBX(cell int) int { return localPinBXBase + cell }

// LocalPinCE returns the local id of the CE pin of the given cell.
func LocalPinCE(cell int) int { return localPinCEBase + cell }

// LocalOutX returns the local id of the combinational output of the cell.
func LocalOutX(cell int) int { return localOutXBase + cell }

// LocalOutXQ returns the local id of the registered output of the cell.
func LocalOutXQ(cell int) int { return localOutXQBase + cell }

// DecodeLocal splits a local node id into its kind and parameters.
// For wires it returns (kind, dir, index); for pins and outputs dir is 0 and
// index encodes cell*LUTInputs+k for KindPinI or the cell number otherwise.
func DecodeLocal(local int) (kind NodeKind, d Dir, index int) {
	switch {
	case local < localHexBase:
		l := local - localSingleBase
		return KindSingle, Dir(l / SinglesPerDir), l % SinglesPerDir
	case local < localPinIBase:
		l := local - localHexBase
		return KindHex, Dir(l / HexesPerDir), l % HexesPerDir
	case local < localPinBXBase:
		return KindPinI, 0, local - localPinIBase
	case local < localPinCEBase:
		return KindPinBX, 0, local - localPinBXBase
	case local < localOutXBase:
		return KindPinCE, 0, local - localPinCEBase
	case local < localOutXQBase:
		return KindOutX, 0, local - localOutXBase
	default:
		return KindOutXQ, 0, local - localOutXQBase
	}
}

// IsSink reports whether a local node id is a configuration sink (has PIPs).
func IsLocalSink(local int) bool { return local >= 0 && local < sinkCount }

// SourceRef describes one candidate driver of a sink, relative to the
// sink's tile: the source node lives DRow/DCol tiles away.
type SourceRef struct {
	DRow, DCol int
	Local      int
}

// sinkSources is the translation-invariant PIP template: for each sink
// local id, the ordered list of candidate sources. The PIP mask bit i of a
// sink corresponds to sinkSources[sink][i]. Border tiles simply cannot
// enable PIPs whose source tile falls outside the array.
var sinkSources [sinkCount][]SourceRef

// maxPIPsPerSink caps the per-sink PIP count; the configuration encoding
// reserves exactly this many bits per sink.
const maxPIPsPerSink = 16

// HexSpan is the tile span of a hex wire — the farthest any PIP template
// reaches across the array.
const HexSpan = 6

func init() {
	buildSinkTemplates()
}

func buildSinkTemplates() {
	// Single-wire starts.
	for d := Dir(0); d < 4; d++ {
		for i := 0; i < SinglesPerDir; i++ {
			sink := LocalSingle(d, i)
			var src []SourceRef
			// Local cell outputs.
			src = append(src,
				here(LocalOutX(i%CellsPerCLB)),
				here(LocalOutXQ(i%CellsPerCLB)),
				here(LocalOutX((i+1)%CellsPerCLB)),
				here(LocalOutXQ((i+3)%CellsPerCLB)),
			)
			// Straight-through singles from the tile behind (same index and
			// index+4), letting signals continue in the same direction.
			back := d.Opposite()
			src = append(src,
				from(back, LocalSingle(d, i)),
				from(back, LocalSingle(d, (i+4)%SinglesPerDir)),
			)
			// Turning singles: a wire arriving from the left turns right
			// into this direction with an index shuffle of +1/-1 so that
			// multi-hop routes can reach every index class.
			src = append(src,
				from(d.Left().Opposite(), LocalSingle(d.Left(), (i+SinglesPerDir-1)%SinglesPerDir)),
				from(d.Right().Opposite(), LocalSingle(d.Right(), (i+1)%SinglesPerDir)),
			)
			// Hex arriving straight-through six tiles back.
			src = append(src, SourceRef{
				DRow:  -HexSpan * d.DeltaRow(),
				DCol:  -HexSpan * d.DeltaCol(),
				Local: LocalHex(d, i%HexesPerDir),
			})
			sinkSources[sink] = src
		}
	}
	// Hex-wire starts.
	for d := Dir(0); d < 4; d++ {
		for j := 0; j < HexesPerDir; j++ {
			sink := LocalHex(d, j)
			back := d.Opposite()
			src := []SourceRef{
				here(LocalOutXQ(j % CellsPerCLB)),
				here(LocalOutX(j % CellsPerCLB)),
				from(back, LocalSingle(d, j)),
				from(back, LocalSingle(d, j+HexesPerDir)),
				from(d.Left().Opposite(), LocalSingle(d.Left(), j)),
				from(d.Right().Opposite(), LocalSingle(d.Right(), j)),
				{DRow: -HexSpan * d.DeltaRow(), DCol: -HexSpan * d.DeltaCol(), Local: LocalHex(d, j)},
			}
			sinkSources[sink] = src
		}
	}
	// LUT input pins.
	for cell := 0; cell < CellsPerCLB; cell++ {
		for k := 0; k < LUTInputs; k++ {
			sink := LocalPinI(cell, k)
			p := cell*LUTInputs + k
			src := []SourceRef{
				here(LocalOutX(p % CellsPerCLB)),
				here(LocalOutX((p + 1) % CellsPerCLB)),
				here(LocalOutXQ(p % CellsPerCLB)),
				here(LocalOutXQ((p + 2) % CellsPerCLB)),
			}
			for d := Dir(0); d < 4; d++ {
				// Singles arriving at this tile travelling direction d
				// started one tile behind.
				src = append(src,
					from(d.Opposite(), LocalSingle(d, p%SinglesPerDir)),
					from(d.Opposite(), LocalSingle(d, (p+3)%SinglesPerDir)),
				)
			}
			for d := Dir(0); d < 4; d++ {
				idx := p % HexesPerDir
				if d == South || d == West {
					idx = (p + 1) % HexesPerDir
				}
				src = append(src, SourceRef{
					DRow:  -HexSpan * d.DeltaRow(),
					DCol:  -HexSpan * d.DeltaCol(),
					Local: LocalHex(d, idx),
				})
				if len(src) == maxPIPsPerSink {
					break
				}
			}
			sinkSources[sink] = src
		}
	}
	// BX pins: reachable from singles on every side (two index classes)
	// plus one hex per side, giving relocation transfer paths headroom.
	for cell := 0; cell < CellsPerCLB; cell++ {
		sink := LocalPinBX(cell)
		var src []SourceRef
		for d := Dir(0); d < 4; d++ {
			src = append(src,
				from(d.Opposite(), LocalSingle(d, (cell*2)%SinglesPerDir)),
				from(d.Opposite(), LocalSingle(d, (cell*2+1)%SinglesPerDir)),
			)
		}
		for d := Dir(0); d < 4; d++ {
			src = append(src, SourceRef{
				DRow: -HexSpan * d.DeltaRow(), DCol: -HexSpan * d.DeltaCol(),
				Local: LocalHex(d, cell%HexesPerDir),
			})
		}
		sinkSources[sink] = src
	}
	// CE pins: reachable from singles and one hex per side.
	for cell := 0; cell < CellsPerCLB; cell++ {
		sink := LocalPinCE(cell)
		var src []SourceRef
		for d := Dir(0); d < 4; d++ {
			src = append(src,
				from(d.Opposite(), LocalSingle(d, (cell+4)%SinglesPerDir)),
				from(d.Opposite(), LocalSingle(d, cell%SinglesPerDir)),
			)
		}
		for d := Dir(0); d < 4; d++ {
			src = append(src, SourceRef{
				DRow: -HexSpan * d.DeltaRow(), DCol: -HexSpan * d.DeltaCol(),
				Local: LocalHex(d, (cell+2)%HexesPerDir),
			})
		}
		sinkSources[sink] = src
	}
	for sink, src := range sinkSources {
		if len(src) > maxPIPsPerSink {
			panic(fmt.Sprintf("fabric: sink %d has %d sources, max %d", sink, len(src), maxPIPsPerSink))
		}
	}
}

func here(local int) SourceRef { return SourceRef{Local: local} }

// from returns a source one tile away: the wire arrived here travelling
// direction travel, so its origin tile is one step back along travel.
func from(back Dir, local int) SourceRef {
	return SourceRef{DRow: back.DeltaRow(), DCol: back.DeltaCol(), Local: local}
}

// SinkSources returns the PIP source template of a sink local id. The
// returned slice must not be modified.
func SinkSources(local int) []SourceRef {
	if !IsLocalSink(local) {
		return nil
	}
	return sinkSources[local]
}

// WireDelayNs returns the intrinsic propagation delay contributed by a node,
// in nanoseconds. Wire segments dominate; pins add a small buffer delay.
// These values drive the paper's Fig. 6 fuzziness-interval experiment.
func WireDelayNs(kind NodeKind) float64 {
	switch kind {
	case KindSingle:
		return 0.35
	case KindHex:
		return 1.10
	case KindPinI, KindPinBX, KindPinCE:
		return 0.05
	case KindPad:
		return 0.50
	default:
		return 0
	}
}
