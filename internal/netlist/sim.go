package netlist

import "fmt"

// Sim is the golden behavioural simulator of a netlist. It is the reference
// model: the fabric-mapped circuit must match it output for output, cycle
// for cycle, while relocations are in progress.
type Sim struct {
	nl    *Netlist
	order []ID
	val   []bool
	state []bool   // FF/latch stored state, indexed by node id
	ram   []uint16 // RAM contents, indexed by node id
	// settleCap bounds the latch fixpoint iteration; exceeding it means an
	// oscillating asynchronous loop.
	settleCap int
}

// NewSim builds a simulator; the netlist must validate.
func NewSim(nl *Netlist) (*Sim, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	order, err := nl.combOrder()
	if err != nil {
		return nil, err
	}
	s := &Sim{
		nl:        nl,
		order:     order,
		val:       make([]bool, len(nl.Nodes)),
		state:     make([]bool, len(nl.Nodes)),
		ram:       make([]uint16, len(nl.Nodes)),
		settleCap: 4 + len(nl.Nodes),
	}
	s.Reset()
	return s, nil
}

// Netlist returns the simulated netlist.
func (s *Sim) Netlist() *Netlist { return s.nl }

// Reset restores initial state (FF/latch init values, RAMs cleared).
func (s *Sim) Reset() {
	for i := range s.val {
		s.val[i] = false
		s.ram[i] = 0
	}
	for i, nd := range s.nl.Nodes {
		if nd.Kind == KindFF || nd.Kind == KindLatch {
			s.state[i] = nd.Init
		}
	}
	s.refreshSequentialOutputs()
}

func (s *Sim) refreshSequentialOutputs() {
	for i, nd := range s.nl.Nodes {
		if nd.Kind == KindFF || nd.Kind == KindLatch {
			s.val[i] = s.state[i]
		} else if nd.Kind == KindConst {
			s.val[i] = nd.LUT&1 == 1
		}
	}
}

// settle evaluates combinational logic to a fixpoint, honouring transparent
// latches. It returns an error if an asynchronous loop oscillates.
func (s *Sim) settle() error {
	for iter := 0; ; iter++ {
		if iter > s.settleCap {
			return fmt.Errorf("netlist %s: asynchronous oscillation did not settle", s.nl.Name)
		}
		for _, id := range s.order {
			nd := &s.nl.Nodes[id]
			switch nd.Kind {
			case KindLUT:
				var in uint8
				for b, r := range nd.Ins {
					if s.val[r] {
						in |= 1 << b
					}
				}
				s.val[id] = nd.LUT>>(in&0xF)&1 == 1
			case KindOutput:
				s.val[id] = s.val[nd.Ins[0]]
			case KindRAM:
				s.val[id] = s.ram[id]>>s.ramAddr(nd)&1 == 1
			}
		}
		changed := false
		for i, nd := range s.nl.Nodes {
			if nd.Kind != KindLatch {
				continue
			}
			gate := nd.CE == None || s.val[nd.CE]
			if gate {
				d := s.val[nd.D]
				if s.state[i] != d {
					s.state[i] = d
					changed = true
				}
				if s.val[i] != d {
					s.val[i] = d
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

func (s *Sim) ramAddr(nd *Node) uint {
	var a uint
	for b, r := range nd.Ins {
		if s.val[r] {
			a |= 1 << b
		}
	}
	return a & 0xF
}

// SetInputs applies primary input values in declaration order.
func (s *Sim) SetInputs(vals []bool) error {
	ins := s.nl.Inputs()
	if len(vals) != len(ins) {
		return fmt.Errorf("netlist %s: %d input values for %d inputs", s.nl.Name, len(vals), len(ins))
	}
	for i, id := range ins {
		s.val[id] = vals[i]
	}
	return nil
}

// Settle propagates combinational logic without a clock edge (used between
// edges and for asynchronous designs).
func (s *Sim) Settle() error { return s.settle() }

// Step applies one full clock cycle: settle, rising clock edge (FF and RAM
// updates), settle again, and returns the primary output values.
func (s *Sim) Step(inputs []bool) ([]bool, error) {
	if err := s.SetInputs(inputs); err != nil {
		return nil, err
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	s.ClockEdge()
	if err := s.settle(); err != nil {
		return nil, err
	}
	return s.Outputs(), nil
}

// ClockEdge performs the rising-edge state update of FFs and RAM write
// ports (latches are level-sensitive and unaffected).
func (s *Sim) ClockEdge() {
	type upd struct {
		id ID
		v  bool
	}
	type ramUpd struct {
		id   ID
		addr uint
		v    bool
	}
	var ffUpds []upd
	var ramUpds []ramUpd
	for i, nd := range s.nl.Nodes {
		switch nd.Kind {
		case KindFF:
			if nd.CE == None || s.val[nd.CE] {
				ffUpds = append(ffUpds, upd{ID(i), s.val[nd.D]})
			}
		case KindRAM:
			if nd.CE != None && s.val[nd.CE] {
				ramUpds = append(ramUpds, ramUpd{ID(i), s.ramAddr(&nd), s.val[nd.D]})
			}
		}
	}
	for _, u := range ffUpds {
		s.state[u.id] = u.v
		s.val[u.id] = u.v
	}
	for _, u := range ramUpds {
		if u.v {
			s.ram[u.id] |= 1 << u.addr
		} else {
			s.ram[u.id] &^= 1 << u.addr
		}
	}
}

// Outputs returns the current primary output values in declaration order.
func (s *Sim) Outputs() []bool {
	ids := s.nl.Outputs()
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = s.val[id]
	}
	return out
}

// Value returns the current value of any node.
func (s *Sim) Value(id ID) bool { return s.val[id] }

// State returns the stored state of an FF or latch.
func (s *Sim) State(id ID) bool { return s.state[id] }

// RAMContents returns the contents of a RAM node.
func (s *Sim) RAMContents(id ID) uint16 { return s.ram[id] }

// Snapshot captures all sequential state for later comparison.
type Snapshot struct {
	FF  map[string]bool
	RAM map[string]uint16
}

// Snapshot returns a copy of all FF/latch states and RAM contents by name.
func (s *Sim) Snapshot() Snapshot {
	snap := Snapshot{FF: map[string]bool{}, RAM: map[string]uint16{}}
	for i, nd := range s.nl.Nodes {
		switch nd.Kind {
		case KindFF, KindLatch:
			snap.FF[nd.Name] = s.state[i]
		case KindRAM:
			snap.RAM[nd.Name] = s.ram[i]
		}
	}
	return snap
}
