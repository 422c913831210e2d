package bitstream

// Class names what a piece of configuration-port traffic is for. The
// paper's cost model (Tab. 2's ms per CLB, Fig. 7's TCK count) charges an
// operation only for its own configuration traffic, so a port keeps the
// run-time manager's maintenance traffic in classes of its own instead of
// folding it into the foreground totals.
type Class uint8

const (
	// Foreground is the traffic of the operations themselves: the class a
	// port charges unless told otherwise.
	Foreground Class = iota
	// Retry is the fault-tolerance ladder's re-deliveries and verifies.
	Retry
	// Scrub is the scrubber's readback comparisons and repairs.
	Scrub
	// Probe is the test-pattern probing of quarantined columns.
	Probe
	// Recovery is crash recovery's digest reads and undo writes.
	Recovery
	numClasses
)

// Usage is the port cost charged to one class: clock cycles plus the write
// traffic that shipped in them.
type Usage struct {
	Cycles uint64 `json:"cycles,omitempty"`
	Traffic
}

// Meter is a port's cost ledger: one Usage per Class, charged to whichever
// class is current. Both stock ports keep one and read their Cycles and
// Elapsed from its Foreground class; a wrapper returns the meter of the port
// it wraps.
type Meter struct {
	// Hz is the port clock rate that converts cycles into seconds.
	Hz    float64
	class Class
	use   [numClasses]Usage
}

// SetClass makes c the class later traffic is charged to and returns the
// class it replaces.
func (m *Meter) SetClass(c Class) Class {
	prev := m.class
	m.class = c
	return prev
}

// Charge adds clock cycles to the current class.
func (m *Meter) Charge(cycles uint64) { m.use[m.class].Cycles += cycles }

// Traffic returns the current class's write-traffic counters, for
// EncodeStream to account into.
func (m *Meter) Traffic() *Traffic { return &m.use[m.class].Traffic }

// Usage returns what class c has been charged.
func (m *Meter) Usage(c Class) Usage { return m.use[c] }

// Seconds returns class c's cycles as transport time.
func (m *Meter) Seconds(c Class) float64 { return float64(m.use[c].Cycles) / m.Hz }

// Usages returns every class's usage, indexed by Class.
func (m *Meter) Usages() []Usage { return append([]Usage(nil), m.use[:]...) }

// Restore overwrites the per-class usage with a reading Usages took (journal
// recovery makes a recovered system's accounting the never-crashed twin's).
func (m *Meter) Restore(u []Usage) { copy(m.use[:], u) }
