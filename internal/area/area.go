// Package area manages the FPGA logic space as a 2D grid of CLBs: it tracks
// occupancy per task, finds placements under several allocation policies,
// and measures fragmentation — the quantity the paper's on-line
// rearrangement exists to fight ("unallocated areas tend to become so small
// that they fail to satisfy any request and for that reason remain unused,
// leading to a fragmentation of the FPGA logic space").
package area

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/fabric"
)

// Policy selects the placement heuristic.
type Policy uint8

const (
	// FirstFit takes the first feasible position in row-major order.
	FirstFit Policy = iota
	// BestFit takes the feasible position with the highest contact
	// perimeter against occupied cells and device borders (tightest
	// packing).
	BestFit
	// BottomLeft takes the feasible position with the largest row, then
	// the smallest column (classic BL packing).
	BottomLeft
)

var policyNames = [...]string{"first-fit", "best-fit", "bottom-left"}

func (p Policy) String() string { return policyNames[p] }

// Manager tracks allocations on an R x C CLB grid.
//
// Mutations can be bracketed by Mark/Rewind/Release epochs: while any mark
// is outstanding the manager appends inverse records to an undo log, so a
// checkpoint costs O(1) and a rollback costs O(mutations since the mark) —
// the run-time manager's per-operation checkpoints no longer clone the grid.
// A quarantine mask (lazily allocated) marks CLBs whose configuration
// frames failed persistently: quarantined cells are never free for
// placement, shrink the reported capacity, and — unlike occupancy — are
// permanent: Rewind, Restore and Free never lift a quarantine.
type Manager struct {
	Rows, Cols int
	occ        []int // 0 = free, else allocation id
	allocs     map[int]fabric.Rect
	next       int
	quar       []bool // nil until the first Quarantine call

	undo  []undoRec
	marks int // outstanding Mark count; the log records only while > 0
}

// undoRec is one inverse mutation on the undo log.
type undoRec struct {
	kind undoKind
	id   int
	rect fabric.Rect // alloc/free: the allocation's rect; move: the FROM rect
}

type undoKind uint8

const (
	undoAlloc undoKind = iota // commit() happened: remove the allocation
	undoFree                  // Free() happened: reinstate the allocation
	undoMove                  // Move() happened: move back to rect
)

// Mark opens an undo epoch at the current log position. Every Mark must be
// paired with exactly one Release; Rewind may be called any number of times
// in between (the mark stays armed, backing retry loops).
func (m *Manager) Mark() Mark {
	m.marks++
	return Mark{pos: len(m.undo)}
}

// Mark is a position on the manager's undo log.
type Mark struct{ pos int }

// Rewind undoes every mutation since the mark, in reverse order, and
// truncates the log back to it. The mark stays armed.
func (m *Manager) Rewind(mk Mark) {
	for len(m.undo) > mk.pos {
		rec := m.undo[len(m.undo)-1]
		m.undo = m.undo[:len(m.undo)-1]
		switch rec.kind {
		case undoAlloc:
			m.fill(rec.rect, 0)
			delete(m.allocs, rec.id)
			m.next = rec.id // ids stay deterministic across retries
		case undoFree:
			m.allocs[rec.id] = rec.rect
			m.fill(rec.rect, rec.id)
		case undoMove:
			m.fill(m.allocs[rec.id], 0)
			m.fill(rec.rect, rec.id)
			m.allocs[rec.id] = rec.rect
		}
	}
}

// Release closes one epoch; when the last outstanding mark is released the
// undo log is dropped and recording stops.
func (m *Manager) Release(Mark) {
	if m.marks > 0 {
		m.marks--
	}
	if m.marks == 0 {
		m.undo = m.undo[:0]
	}
}

// record appends an inverse record while any epoch is open.
func (m *Manager) record(kind undoKind, id int, rect fabric.Rect) {
	if m.marks > 0 {
		m.undo = append(m.undo, undoRec{kind: kind, id: id, rect: rect})
	}
}

// fill paints a rectangle of the occupancy grid with an allocation id.
func (m *Manager) fill(rect fabric.Rect, id int) {
	for r := rect.Row; r < rect.Row+rect.H; r++ {
		for c := rect.Col; c < rect.Col+rect.W; c++ {
			m.occ[m.idx(r, c)] = id
		}
	}
}

// NewManager creates an empty grid.
func NewManager(rows, cols int) *Manager {
	return &Manager{
		Rows:   rows,
		Cols:   cols,
		occ:    make([]int, rows*cols),
		allocs: map[int]fabric.Rect{},
		next:   1,
	}
}

// NewManagerFor sizes the grid to a device.
func NewManagerFor(dev *fabric.Device) *Manager { return NewManager(dev.Rows, dev.Cols) }

func (m *Manager) idx(r, c int) int { return r*m.Cols + c }

// blocked reports whether a CLB is quarantined (masked out of the logic
// space).
func (m *Manager) blocked(r, c int) bool { return m.quar != nil && m.quar[m.idx(r, c)] }

// Quarantine masks a rectangle of CLBs out of the logic space: the cells
// stop counting as free capacity and no placement, allocation or move may
// cover them. Cells currently under an allocation stay attributed to it
// until the owner moves or frees — the caller evacuates residents. The mask
// is deliberately outside the undo log: Rewind, Restore and Free never lift
// it; only an explicit Unquarantine (the caller's probe/release cycle)
// returns capacity to service.
func (m *Manager) Quarantine(rect fabric.Rect) {
	if m.quar == nil {
		m.quar = make([]bool, m.Rows*m.Cols)
	}
	for r := rect.Row; r < rect.Row+rect.H; r++ {
		for c := rect.Col; c < rect.Col+rect.W; c++ {
			if r >= 0 && r < m.Rows && c >= 0 && c < m.Cols {
				m.quar[m.idx(r, c)] = true
			}
		}
	}
}

// Unquarantine lifts the quarantine mask from a rectangle of CLBs,
// returning the cells to free capacity. The caller (the facade's health
// lifecycle) has re-verified the underlying configuration memory; like
// Quarantine, this is outside the undo log and survives Rewind/Restore.
func (m *Manager) Unquarantine(rect fabric.Rect) {
	if m.quar == nil {
		return
	}
	for r := rect.Row; r < rect.Row+rect.H; r++ {
		for c := rect.Col; c < rect.Col+rect.W; c++ {
			if r >= 0 && r < m.Rows && c >= 0 && c < m.Cols {
				m.quar[m.idx(r, c)] = false
			}
		}
	}
}

// Quarantined reports whether a CLB is masked out of the logic space.
func (m *Manager) Quarantined(c fabric.Coord) bool { return m.blocked(c.Row, c.Col) }

// QuarantineOverlaps reports whether any cell of rect is quarantined (used
// to distinguish "region busy" from "region condemned" in error reporting).
func (m *Manager) QuarantineOverlaps(rect fabric.Rect) bool {
	if m.quar == nil {
		return false
	}
	for r := rect.Row; r < rect.Row+rect.H; r++ {
		for c := rect.Col; c < rect.Col+rect.W; c++ {
			if r >= 0 && r < m.Rows && c >= 0 && c < m.Cols && m.quar[m.idx(r, c)] {
				return true
			}
		}
	}
	return false
}

// QuarantinedCLBs returns the number of CLBs masked out of the logic space.
func (m *Manager) QuarantinedCLBs() int {
	n := 0
	for _, q := range m.quar {
		if q {
			n++
		}
	}
	return n
}

// Occupied reports whether a CLB is allocated.
func (m *Manager) Occupied(c fabric.Coord) bool {
	return m.occ[m.idx(c.Row, c.Col)] != 0
}

// OwnerAt returns the allocation id covering a CLB (0 = free).
func (m *Manager) OwnerAt(c fabric.Coord) int { return m.occ[m.idx(c.Row, c.Col)] }

// Rect returns the rectangle of an allocation.
func (m *Manager) Rect(id int) (fabric.Rect, bool) {
	r, ok := m.allocs[id]
	return r, ok
}

// Allocations returns the live allocation ids.
func (m *Manager) Allocations() []int {
	out := make([]int, 0, len(m.allocs))
	for id := range m.allocs {
		out = append(out, id)
	}
	return out
}

// FreeCLBs returns the number of CLBs available for placement: unallocated
// and not quarantined (quarantine degrades capacity, so utilisation and
// fragmentation measure the remaining usable space).
func (m *Manager) FreeCLBs() int {
	n := 0
	for i, v := range m.occ {
		if v == 0 && !(m.quar != nil && m.quar[i]) {
			n++
		}
	}
	return n
}

// fits reports whether rect is in bounds, fully free, and clear of the
// quarantine mask.
func (m *Manager) fits(rect fabric.Rect) bool {
	if rect.Row < 0 || rect.Col < 0 || rect.Row+rect.H > m.Rows || rect.Col+rect.W > m.Cols {
		return false
	}
	for r := rect.Row; r < rect.Row+rect.H; r++ {
		for c := rect.Col; c < rect.Col+rect.W; c++ {
			if m.occ[m.idx(r, c)] != 0 || m.blocked(r, c) {
				return false
			}
		}
	}
	return true
}

// Fits reports whether rect is in bounds and completely free.
func (m *Manager) Fits(rect fabric.Rect) bool { return m.fits(rect) }

// CanMove reports whether an allocation could move to a new rectangle right
// now (the target may overlap the allocation's own cells, as in a staged
// relocation through adjacent space). The manager is not modified — and
// nothing is cloned: the target only needs every covered CLB to be free or
// owned by the moving allocation itself.
func (m *Manager) CanMove(id int, to fabric.Rect) bool {
	rect, ok := m.allocs[id]
	if !ok {
		return false
	}
	if to.H != rect.H || to.W != rect.W {
		return false
	}
	if to.Row < 0 || to.Col < 0 || to.Row+to.H > m.Rows || to.Col+to.W > m.Cols {
		return false
	}
	for r := to.Row; r < to.Row+to.H; r++ {
		for c := to.Col; c < to.Col+to.W; c++ {
			if owner := m.occ[m.idx(r, c)]; owner != 0 && owner != id {
				return false
			}
			if m.blocked(r, c) {
				return false
			}
		}
	}
	return true
}

// FindPlacement searches for a feasible H x W rectangle under the policy
// without committing it.
func (m *Manager) FindPlacement(h, w int, policy Policy) (fabric.Rect, bool) {
	best := fabric.Rect{}
	found := false
	bestScore := math.MinInt
	for r := 0; r+h <= m.Rows; r++ {
		for c := 0; c+w <= m.Cols; c++ {
			rect := fabric.Rect{Row: r, Col: c, H: h, W: w}
			if !m.fits(rect) {
				continue
			}
			switch policy {
			case FirstFit:
				return rect, true
			case BottomLeft:
				score := r*m.Cols + (m.Cols - c)
				if score > bestScore {
					bestScore, best, found = score, rect, true
				}
			case BestFit:
				score := m.contact(rect)
				if score > bestScore {
					bestScore, best, found = score, rect, true
				}
			}
		}
	}
	return best, found
}

// contact measures the rectangle's adjacency to occupied cells and borders.
func (m *Manager) contact(rect fabric.Rect) int {
	score := 0
	side := func(r, c int) {
		if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
			score++ // device border counts
			return
		}
		if m.occ[m.idx(r, c)] != 0 || m.blocked(r, c) {
			score++
		}
	}
	for c := rect.Col; c < rect.Col+rect.W; c++ {
		side(rect.Row-1, c)
		side(rect.Row+rect.H, c)
	}
	for r := rect.Row; r < rect.Row+rect.H; r++ {
		side(r, rect.Col-1)
		side(r, rect.Col+rect.W)
	}
	return score
}

// Allocate finds and commits an H x W rectangle, returning its id.
func (m *Manager) Allocate(h, w int, policy Policy) (int, fabric.Rect, bool) {
	rect, ok := m.FindPlacement(h, w, policy)
	if !ok {
		return 0, fabric.Rect{}, false
	}
	id := m.commit(rect)
	return id, rect, true
}

// AllocateAt commits an explicit rectangle (must be free).
func (m *Manager) AllocateAt(rect fabric.Rect) (int, error) {
	if !m.fits(rect) {
		return 0, fmt.Errorf("area: rect %v not free", rect)
	}
	return m.commit(rect), nil
}

func (m *Manager) commit(rect fabric.Rect) int {
	id := m.next
	m.next++
	m.allocs[id] = rect
	m.fill(rect, id)
	m.record(undoAlloc, id, rect)
	return id
}

// Free releases an allocation.
func (m *Manager) Free(id int) error {
	rect, ok := m.allocs[id]
	if !ok {
		return fmt.Errorf("area: unknown allocation %d", id)
	}
	m.fill(rect, 0)
	delete(m.allocs, id)
	m.record(undoFree, id, rect)
	return nil
}

// Move reassigns an allocation to a new rectangle (the physical relocation
// is the engine's business; this updates the book-keeping).
func (m *Manager) Move(id int, to fabric.Rect) error {
	rect, ok := m.allocs[id]
	if !ok {
		return fmt.Errorf("area: unknown allocation %d", id)
	}
	// Clear, check, commit (the regions may overlap: staged relocation goes
	// through adjacent space).
	m.fill(rect, 0)
	if !m.fits(to) {
		m.fill(rect, id) // roll back
		return fmt.Errorf("area: move target %v not free", to)
	}
	m.fill(to, id)
	m.allocs[id] = to
	m.record(undoMove, id, rect)
	return nil
}

// MaxFreeRect returns the largest-area free rectangle (maximal-rectangle
// histogram algorithm, O(Rows*Cols)).
func (m *Manager) MaxFreeRect() fabric.Rect {
	heights := make([]int, m.Cols)
	best := fabric.Rect{}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.occ[m.idx(r, c)] == 0 && !m.blocked(r, c) {
				heights[c]++
			} else {
				heights[c] = 0
			}
		}
		// Largest rectangle in histogram via stack.
		type entry struct{ col, h int }
		var stack []entry
		for c := 0; c <= m.Cols; c++ {
			h := 0
			if c < m.Cols {
				h = heights[c]
			}
			start := c
			for len(stack) > 0 && stack[len(stack)-1].h > h {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				area := top.h * (c - top.col)
				if area > best.Area() {
					best = fabric.Rect{Row: r - top.h + 1, Col: top.col, H: top.h, W: c - top.col}
				}
				start = top.col
			}
			if h > 0 && (len(stack) == 0 || stack[len(stack)-1].h < h) {
				stack = append(stack, entry{start, h})
			}
		}
	}
	return best
}

// Fragmentation is 1 - (largest free rectangle / total free area): 0 when
// all free space is one rectangle, approaching 1 as free space shatters.
func (m *Manager) Fragmentation() float64 {
	free := m.FreeCLBs()
	if free == 0 {
		return 0
	}
	return 1 - float64(m.MaxFreeRect().Area())/float64(free)
}

// CanFit reports whether an H x W task fits anywhere right now.
func (m *Manager) CanFit(h, w int) bool {
	_, ok := m.FindPlacement(h, w, FirstFit)
	return ok
}

// Utilisation is the fraction of CLBs allocated.
func (m *Manager) Utilisation() float64 {
	return 1 - float64(m.FreeCLBs())/float64(m.Rows*m.Cols)
}

// String renders the grid (for the tool's display; '.' free, 'x'
// quarantined, letters by id).
func (m *Manager) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			id := m.occ[m.idx(r, c)]
			switch {
			case id != 0:
				b.WriteByte(byte('A' + (id-1)%26))
			case m.blocked(r, c):
				b.WriteByte('x')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Alloc is one allocation in an exported occupancy snapshot.
type Alloc struct {
	ID   int
	Rect fabric.Rect
}

// Export returns every live allocation (sorted by id) plus the next-id
// counter — the serialisable occupancy state the journal persists. Restoring
// the counter keeps allocation ids deterministic across a crash, which the
// rearrangement planners rely on.
func (m *Manager) Export() ([]Alloc, int) {
	out := make([]Alloc, 0, len(m.allocs))
	for id, r := range m.allocs {
		out = append(out, Alloc{ID: id, Rect: r})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, m.next
}

// Restore overwrites the manager with an exported occupancy state, in place:
// holders of the pointer (schedulers, observers) see the restored state.
// Overlapping or out-of-bounds allocations are rejected, and it must not be
// called with outstanding marks, since a wholesale overwrite cannot be
// expressed on the undo log. The quarantine mask is not part of the
// exported state and survives a Restore untouched — the recovery path
// re-applies it from the journal's own quarantine record.
func (m *Manager) Restore(allocs []Alloc, next int) error {
	if m.marks > 0 {
		return fmt.Errorf("area: Restore into a manager with outstanding marks")
	}
	occ := make([]int, m.Rows*m.Cols)
	table := make(map[int]fabric.Rect, len(allocs))
	for _, a := range allocs {
		if a.ID <= 0 || a.ID >= next {
			return fmt.Errorf("area: restore allocation id %d outside [1,%d)", a.ID, next)
		}
		if _, dup := table[a.ID]; dup {
			return fmt.Errorf("area: restore duplicate allocation id %d", a.ID)
		}
		r := a.Rect
		if r.Row < 0 || r.Col < 0 || r.H <= 0 || r.W <= 0 || r.Row+r.H > m.Rows || r.Col+r.W > m.Cols {
			return fmt.Errorf("area: restore allocation %d rect %v out of bounds", a.ID, r)
		}
		for row := r.Row; row < r.Row+r.H; row++ {
			for col := r.Col; col < r.Col+r.W; col++ {
				if occ[row*m.Cols+col] != 0 {
					return fmt.Errorf("area: restore allocations %d and %d overlap", occ[row*m.Cols+col], a.ID)
				}
				occ[row*m.Cols+col] = a.ID
			}
		}
		table[a.ID] = r
	}
	m.occ = occ
	m.allocs = table
	m.next = next
	m.undo = m.undo[:0]
	return nil
}

// Clone returns an independent copy of the manager (planners simulate
// rearrangements on clones before committing to the fabric).
func (m *Manager) Clone() *Manager {
	cp := &Manager{
		Rows:   m.Rows,
		Cols:   m.Cols,
		occ:    append([]int{}, m.occ...),
		allocs: make(map[int]fabric.Rect, len(m.allocs)),
		next:   m.next,
	}
	for id, r := range m.allocs {
		cp.allocs[id] = r
	}
	if m.quar != nil {
		cp.quar = append([]bool{}, m.quar...)
	}
	return cp
}
