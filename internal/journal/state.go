package journal

import (
	"encoding/json"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/relocate"
)

// Init is the journal's opening record: everything needed to rebuild a
// matching System over the same device geometry before replaying state.
type Init struct {
	Preset  string  `json:"preset"`
	Rows    int     `json:"rows,omitempty"` // geometry cross-check
	Cols    int     `json:"cols,omitempty"`
	Port    string  `json:"port"` // "jtag", "selectmap", "custom"
	ClockHz float64 `json:"clock_hz,omitempty"`
	// Compress records that the port delivered compressed (delta/MFWR)
	// write streams; recovery rebuilds the system compressed so its traffic
	// and cycle accounting stay bit-identical. Absent in older journals.
	Compress bool `json:"compress,omitempty"`
	// PortWidth is the SelectMAP data-port width in bits (0 = the 8-bit
	// default). Absent in older journals and on Boundary-Scan systems.
	PortWidth int `json:"port_width,omitempty"`
}

// Begin declares one facade operation's intent. Recovery never re-executes
// the intent (roll-forward installs the Post state instead); the record
// exists so an interrupted journal is self-describing.
type Begin struct {
	Seq    uint64      `json:"seq"`
	Op     string      `json:"op"` // load, unload, move, move-staged, plan, defrag-need, defrag-slide
	Design string      `json:"design,omitempty"`
	Region fabric.Rect `json:"region,omitempty"`
	Detail string      `json:"detail,omitempty"`
}

// Undo carries the pre-image of one frame the operation dirties, appended
// before the frame's new content is delivered through the port.
type Undo struct {
	Seq   uint64           `json:"seq"`
	Addr  fabric.FrameAddr `json:"addr"`
	Words []uint32         `json:"words"`
}

// FrameDigest is the CRC-32 of one frame's post-operation content; the
// recovery path compares these against device readback to decide between
// roll-forward and roll-back.
type FrameDigest struct {
	Addr fabric.FrameAddr `json:"addr"`
	CRC  uint32           `json:"crc"`
}

// Post carries the complete post-operation host state.
type Post struct {
	Seq   uint64        `json:"seq"`
	State State         `json:"state"`
	Dirty []FrameDigest `json:"dirty,omitempty"`
}

// Seal is the payload of RecCommit and RecAbort.
type Seal struct {
	Seq uint64 `json:"seq"`
}

// DesignState serialises one loaded design's book-keeping: the netlist
// content and the placement tables. Its routing is not here: configuration
// memory is the one record of which PIPs are on, and recovery reads it back
// (journals written before the routed nets left carry them under "nets",
// which decoding ignores). Maps keyed by integer ids marshal
// deterministically (encoding/json sorts keys).
type DesignState struct {
	Name     string                        `json:"name"`
	Region   fabric.Rect                   `json:"region"`
	Alloc    int                           `json:"alloc"`
	Nodes    []netlist.Node                `json:"nodes"`
	CellOf   map[netlist.ID]fabric.CellRef `json:"cell_of"`
	PadOf    map[netlist.ID]fabric.PadRef  `json:"pad_of,omitempty"`
	SourceOf map[netlist.ID]fabric.NodeID  `json:"source_of,omitempty"`
}

// Alloc is one area-manager allocation.
type Alloc struct {
	ID   int         `json:"id"`
	Rect fabric.Rect `json:"rect"`
}

// State is the complete host book-keeping at a committed operation
// boundary: designs, area occupancy, and the accounting counters (engine
// statistics, the port meter's per-class usage, engine tick cursor) that
// make a recovered system's TCK accounting bit-identical to a never-crashed
// twin's. Pad reservations are the designs' PadOf tables; journals that
// also list them under "pads" decode with that key ignored.
type State struct {
	Seq       uint64         `json:"seq"`
	Designs   []DesignState  `json:"designs,omitempty"`
	Allocs    []Alloc        `json:"allocs,omitempty"`
	NextAlloc int            `json:"next_alloc"`
	Stats     relocate.Stats `json:"stats"`
	// Port is the port meter's reading, one Usage per bitstream.Class.
	Port     []bitstream.Usage `json:"port,omitempty"`
	LastTick float64           `json:"last_tick"`
	// Health is the per-column health ledger (states, error rates, probe
	// history) of the self-healing layer. It is the only record of column
	// quarantine: recovery restores it and re-applies the area mask of its
	// quarantined columns before anything is delivered.
	Health []ColumnHealth `json:"health,omitempty"`
}

// ColumnHealth serialises one column of the health ledger. State matches
// internal/health.State (0 healthy, 1 suspect, 2 quarantined, 3 probation);
// plain ints keep the journal schema free of the health package.
type ColumnHealth struct {
	Major       int     `json:"major"`
	State       uint8   `json:"state"`
	Rate        float64 `json:"rate,omitempty"`
	CleanProbes int     `json:"clean_probes,omitempty"`
	CleanChecks int     `json:"clean_checks,omitempty"`
	Probes      int     `json:"probes,omitempty"`
	ProbeFails  int     `json:"probe_fails,omitempty"`
	Repairs     int     `json:"repairs,omitempty"`
}

// TailOp is an operation whose records reach the end of the journal without
// a Commit or Abort seal — the crash window recovery must reconcile.
type TailOp struct {
	Begin Begin
	// Undo holds the journaled pre-images in append order. A frame can
	// appear once per operation (the writer dedups); recovery applies them
	// as a set.
	Undo []Undo
	// Post is non-nil when the operation journaled its post state (the
	// shift completed) but the seal did not land — the roll-forward case.
	Post *Post
}

// Replayed is the outcome of replaying a scanned journal.
type Replayed struct {
	Init Init
	// State is the last sealed (committed) state; zero-valued with Seq 0
	// when no operation ever committed.
	State State
	// Tail is the unsealed trailing operation, nil when the journal ends
	// clean.
	Tail *TailOp
	// LastSeq is the highest operation sequence number that appears in the
	// journal (sealed either way, or open in the tail); an appender resumes
	// numbering after it. State.Seq is NOT that number when the last
	// operations aborted.
	LastSeq uint64
	// Torn is carried over from the scan.
	Torn bool
	// ValidLen is carried over from the scan (where an appender resumes).
	ValidLen int64
}

// Replay walks a scanned log and folds it into the last durable state plus
// the unsealed tail. The record grammar is
//
//	Init (Begin (Undo|Post)* (Commit|Abort))* (Begin (Undo|Post)*)?
//
// and any violation fails with ErrMalformed (wrapped): the journal writer
// is the only producer, so a grammar break means corruption that passed the
// checksums, and recovery must not guess. An operation can carry several
// Post records (a commit whose seal failed to append is retried after a
// rollback, e.g. across defragmentation candidates); the LAST one is the
// roll-forward candidate, and the digest comparison against device readback
// decides whether it stands.
//
// Replay is its two steps run back to back: Prepare, the grammar pass, then
// Decode. A caller with other work to do can run them apart, and drop the
// Log in between.
func Replay(log *Log) (*Replayed, error) {
	p, err := Prepare(log)
	if err != nil {
		return nil, err
	}
	return p.Decode()
}

// Prepared is a journal between Replay's two steps: every record has passed
// the grammar pass and Init is decoded, and the payloads Decode reads are
// copies, so a Prepared holds no reference to the scanned Log, its image or
// the file PrepareFile read.
type Prepared struct {
	// Init is the journal's opening record, decoded.
	Init Init

	lastSeq  uint64
	torn     bool
	validLen int64
	records  int
	// post is the last Post of the last committed operation (zero Type
	// when none committed), and tail the open operation's records (nil
	// when the journal ends sealed). Their payloads are slices of one slab.
	// postSeq and seq are the two operations' sequence numbers.
	post         Record
	tail         []Record
	postSeq, seq uint64
}

// Prepare is Replay's grammar pass. It decodes Init and checks every record
// after it, reading each one's sequence number from its leading {"seq":N
// (see recordSeq), then copies the payloads Decode reads into one slab.
//
// Replay costs O(tail + live state), not O(history): only Init, the last
// Post of the last committed operation and the open tail's records are
// decoded in full, and each decoded record must carry the sequence number
// the pass read. The payload of a sealed, superseded record is therefore
// covered by its CRC-32 alone: one that passes its checksum but is not
// valid JSON, or carries a second seq key, replays.
func Prepare(log *Log) (*Prepared, error) {
	if log == nil || len(log.Records) == 0 {
		return nil, ErrEmpty
	}
	recs := log.Records
	var g grammar
	for i, rec := range recs {
		if err := g.feed(rec.Type, rec.Payload, span{int64(i), int64(i) + 1}); err != nil {
			return nil, err
		}
	}
	var tail []Record
	if g.begin != (span{}) {
		tail = recs[g.begin.from:]
	}
	n := 0
	if g.committed != (span{}) {
		n += len(recs[g.committed.from].Payload)
	}
	for _, rec := range tail {
		n += len(rec.Payload)
	}
	slab := make([]byte, 0, n)
	clone := func(rec Record) Record {
		at := len(slab)
		slab = append(slab, rec.Payload...)
		return Record{Type: rec.Type, Payload: slab[at:len(slab):len(slab)]}
	}
	p := g.prepared(log.Torn, log.ValidLen)
	if g.committed != (span{}) {
		p.post = clone(recs[g.committed.from])
	}
	if tail != nil {
		p.tail = make([]Record, len(tail))
		for i, rec := range tail {
			p.tail[i] = clone(rec)
		}
	}
	return p, nil
}

// span is where a record lies: its index in a scanned Log (from i to i+1),
// or the byte range of its header and payload in a journal file. The zero
// span is no record, as every record's span ends past 0.
type span struct{ from, to int64 }

// grammar checks the record stream Replay accepts one record at a time, so
// that Prepare over a scanned Log and PrepareFile over a file apply one set
// of rules. It decodes Init, and notes where the records Decode reads lie:
// the open operation's Begin (the tail runs from it to the last record)
// and the last Post of the last committed operation.
type grammar struct {
	init    Init
	fed     int // records fed so far
	lastSeq uint64
	// seq is the open operation's sequence number (the last one's, once it
	// is sealed), and postSeq the last committed operation's.
	seq, postSeq uint64
	// begin is the open operation's Begin and post its last Post; the zero
	// span when there is none. committed is the last committed operation's
	// last Post.
	begin, post, committed span
}

// seqHead is how many leading payload bytes leadingSeq reads at most: the
// prefix, up to 20 digits and the byte after them.
const seqHead = len(seqPrefix) + 21

// wantsWhole reports whether feed needs a record's whole payload, head
// being at least its first seqHead bytes: it decodes Init, and decodes in
// full a payload whose leading sequence number it cannot read.
func (g *grammar) wantsWhole(t RecType, head []byte) bool {
	if g.fed == 0 {
		return t == RecInit
	}
	_, ok := leadingSeq(head)
	return !ok
}

// feed checks the next record, of type t, lying at at. payload is the
// record's whole payload, or at least its first seqHead bytes where
// wantsWhole reports false. Any violation fails with ErrMalformed
// (wrapped), and the grammar is then spent.
func (g *grammar) feed(t RecType, payload []byte, at span) error {
	i := g.fed
	g.fed++
	if i == 0 {
		if t != RecInit {
			return fmt.Errorf("%w: first record is %v, want init", ErrMalformed, t)
		}
		if err := json.Unmarshal(payload, &g.init); err != nil {
			return fmt.Errorf("%w: init: %v", ErrMalformed, err)
		}
		return nil
	}
	switch t {
	case RecInit:
		return fmt.Errorf("%w: duplicate init at record %d", ErrMalformed, i)
	case RecBegin, RecUndo, RecPost, RecCommit, RecAbort:
	default:
		return fmt.Errorf("%w: unknown record type %v", ErrMalformed, t)
	}
	s, err := recordSeq(Record{Type: t, Payload: payload})
	if err != nil {
		return err
	}
	if t == RecBegin {
		if g.begin != (span{}) {
			return fmt.Errorf("%w: begin inside open op %d", ErrMalformed, g.seq)
		}
		g.begin, g.post, g.seq = at, span{}, s
		g.lastSeq = max(g.lastSeq, s)
		return nil
	}
	if g.begin == (span{}) {
		return fmt.Errorf("%w: %v outside op body", ErrMalformed, t)
	}
	if s != g.seq {
		return fmt.Errorf("%w: %v seq %d inside op %d", ErrMalformed, t, s, g.seq)
	}
	switch t {
	case RecPost:
		g.post = at
	case RecCommit:
		if g.post == (span{}) {
			return fmt.Errorf("%w: commit of op %d without post state", ErrMalformed, s)
		}
		g.committed, g.postSeq, g.begin = g.post, s, span{}
	case RecAbort:
		g.begin = span{}
	}
	return nil
}

// prepared returns the Prepared of a stream the grammar accepted, without
// the records Decode reads.
func (g *grammar) prepared(torn bool, validLen int64) *Prepared {
	return &Prepared{Init: g.init, lastSeq: g.lastSeq, torn: torn, validLen: validLen,
		records: g.fed, postSeq: g.postSeq, seq: g.seq}
}

// Decode is Replay's second step: it decodes the last committed Post and
// the open tail's records from the copies Prepare kept. Each call returns
// a new Replayed.
func (p *Prepared) Decode() (*Replayed, error) {
	out := &Replayed{Init: p.Init, LastSeq: p.lastSeq, Torn: p.torn, ValidLen: p.validLen}
	if p.post.Type == RecPost {
		var post Post
		if err := decodeRecord(p.post, &post, &post.Seq, p.postSeq); err != nil {
			return nil, err
		}
		out.State = post.State
	}
	if p.tail != nil {
		tail := &TailOp{}
		for _, rec := range p.tail {
			var err error
			switch rec.Type {
			case RecBegin:
				err = decodeRecord(rec, &tail.Begin, &tail.Begin.Seq, p.seq)
			case RecUndo:
				var u Undo
				err = decodeRecord(rec, &u, &u.Seq, p.seq)
				tail.Undo = append(tail.Undo, u)
			case RecPost:
				post := new(Post)
				err = decodeRecord(rec, post, &post.Seq, p.seq)
				tail.Post = post
			}
			if err != nil {
				return nil, err
			}
		}
		out.Tail = tail
	}
	return out, nil
}

// decodeRecord decodes rec's payload into v, whose sequence number lands in
// *got, and checks it against want, the number Prepare's grammar pass read.
// A payload that repeats its seq key with another value fails here.
func decodeRecord(rec Record, v any, got *uint64, want uint64) error {
	if err := json.Unmarshal(rec.Payload, v); err != nil {
		return fmt.Errorf("%w: %v: %v", ErrMalformed, rec.Type, err)
	}
	if *got != want {
		return fmt.Errorf("%w: %v decodes to seq %d, its leading seq is %d", ErrMalformed, rec.Type, *got, want)
	}
	return nil
}

// seqPrefix is how the payload of every record after Init starts: Seq is the
// first field of Begin, Undo, Post and Seal, so encoding/json writes it
// first.
const seqPrefix = `{"seq":`

// leadingSeq reads a payload's sequence number from its leading {"seq":N,
// strictly: 1 to 19 decimal digits with no leading zero (except "0" itself),
// followed by ',' or '}'. Nineteen digits cannot overflow a uint64. ok is
// false for any other payload.
func leadingSeq(p []byte) (seq uint64, ok bool) {
	if len(p) < len(seqPrefix) || string(p[:len(seqPrefix)]) != seqPrefix {
		return 0, false
	}
	p = p[len(seqPrefix):]
	n := 0
	for n < len(p) && n < 20 && '0' <= p[n] && p[n] <= '9' {
		seq = seq*10 + uint64(p[n]-'0')
		n++
	}
	if n == 0 || n > 19 || n == len(p) || (p[0] == '0' && n > 1) || (p[n] != ',' && p[n] != '}') {
		return 0, false
	}
	return seq, true
}

// recordSeq returns the sequence number of a record after Init. A payload
// leadingSeq declines (a writer that ordered its fields differently, an
// exponent, a 20-digit number, a non-object) is decoded in full into a Seal,
// and fails with ErrMalformed when that does not decode.
func recordSeq(rec Record) (uint64, error) {
	if s, ok := leadingSeq(rec.Payload); ok {
		return s, nil
	}
	var s Seal
	if err := json.Unmarshal(rec.Payload, &s); err != nil {
		return 0, fmt.Errorf("%w: %v: %v", ErrMalformed, rec.Type, err)
	}
	return s.Seq, nil
}
