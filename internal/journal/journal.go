// Package journal implements the durable host-state layer: an append-only,
// checksummed operation journal for the run-time manager's facade. The
// paper's tool keeps a complete shadow copy of the configuration for failure
// recovery; the journal is its host-side counterpart — it records each
// facade operation's intent, the copy-on-write frame pre-images the
// operation dirties (before they are delivered through the configuration
// port), and the full post-operation book-keeping state, so a host crash at
// any point can be reconciled against the device readback: a completed-but-
// unsealed shift rolls forward, an interrupted shift rolls back via the
// replayed undo records.
//
// File layout: an 8-byte magic header followed by framed records. Each
// record is a 9-byte header — type byte, little-endian uint32 payload
// length, little-endian uint32 IEEE CRC-32 of the payload — followed by the
// JSON payload. A crash can tear at most the final record; a reader
// tolerates a torn tail (the incomplete record is dropped and reported) but
// treats a checksum mismatch anywhere before the tail as corruption.
//
// A journal file is read in one pass: PrepareFile checks every record's
// framing and the record grammar through one buffered reader, and reads
// back only the records still to be decoded (the last committed Post and
// the open tail); Decode decodes them. Its memory follows those records,
// not the history. An in-memory image takes the same checks in steps:
// ScanBytes (or Scan, which loads the file) checks the framing, Prepare the
// grammar, copying out the payloads still to be decoded, and Decode decodes
// them; Replay runs the last two back to back. Both paths share the framing
// rules and the grammar.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Magic is the journal file signature (8 bytes, version in the last digit).
const Magic = "RLMJNL1\n"

const recHeaderLen = 9

// maxPayload bounds a single record's payload; Scan rejects anything larger
// as corruption before attempting to allocate it.
const maxPayload = 1 << 28

// RecType identifies a journal record.
type RecType uint8

// Record types, in the order an operation emits them.
const (
	// RecInit opens the journal: device geometry, port model, clocking.
	RecInit RecType = 1
	// RecBegin declares an operation's intent before any frame flushes.
	RecBegin RecType = 2
	// RecUndo carries one dirtied frame's pre-image, durable before the
	// frame's new content is delivered through the port.
	RecUndo RecType = 3
	// RecPost carries the complete post-operation host state plus content
	// digests of the frames the operation dirtied.
	RecPost RecType = 4
	// RecCommit seals an operation: its post state is the durable truth.
	RecCommit RecType = 5
	// RecAbort seals a rolled-back operation: the previous durable state
	// still stands.
	RecAbort RecType = 6
)

var recNames = map[RecType]string{
	RecInit: "init", RecBegin: "begin", RecUndo: "undo",
	RecPost: "post", RecCommit: "commit", RecAbort: "abort",
}

func (t RecType) String() string {
	if n, ok := recNames[t]; ok {
		return n
	}
	return fmt.Sprintf("rec%d", uint8(t))
}

// Typed sentinel errors. Every failure mode of reading or reconciling a
// journal maps onto one of these (wrapped with context); none panics.
var (
	// ErrBadMagic: the file does not start with the journal signature.
	ErrBadMagic = errors.New("journal: bad magic")
	// ErrChecksum: a record before the tail fails its CRC — the file is
	// corrupt, not merely torn.
	ErrChecksum = errors.New("journal: checksum mismatch")
	// ErrTorn reports a truncated or CRC-failing FINAL record. Scan drops
	// the torn tail and reports it on the Log rather than failing; the
	// sentinel exists for callers that want to surface it.
	ErrTorn = errors.New("journal: torn final record")
	// ErrEmpty: the journal holds no operation history (zero bytes, or a
	// bare header with no Init record) — there is nothing to recover.
	ErrEmpty = errors.New("journal: empty")
	// ErrDeviceMismatch: the journal's state references configuration the
	// device readback does not show (wrong device, or fabric lost state).
	ErrDeviceMismatch = errors.New("journal: device readback mismatch")
	// ErrExists: a fresh journal was requested at a path that already
	// holds operation history (recover from it instead of truncating).
	ErrExists = errors.New("journal: already exists")
	// ErrMalformed: a record's payload does not decode, or the record
	// sequence violates the Begin/Undo/Post/seal grammar.
	ErrMalformed = errors.New("journal: malformed record stream")
)

// Journal is an open journal file in append mode. Not safe for concurrent
// use; the facade serialises access under its own lock.
type Journal struct {
	f   file
	off int64
	// broken is set when a failed append could not be truncated away: the
	// file may end in a partial record, so no later record may land behind
	// it. Every later Append fails wrapping it.
	broken error
	// buf frames each record, its header first and then the payload enc
	// encodes; both are reused from one Append to the next.
	buf bytes.Buffer
	enc *json.Encoder
}

// file is what a Journal needs of its file; *os.File satisfies it.
type file interface {
	io.WriteCloser
	io.Seeker
	Sync() error
	Truncate(size int64) error
}

// Create opens a fresh journal at path, writing the magic header. It fails
// with ErrExists (wrapped) if the path already holds journal history — a
// crashed system's journal must be recovered, never truncated.
func Create(path string) (*Journal, error) {
	if st, err := os.Stat(path); err == nil && st.Size() > int64(len(Magic)) {
		return nil, fmt.Errorf("%w: %s holds %d bytes", ErrExists, path, st.Size())
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, off: int64(len(Magic))}, nil
}

// OpenAppend opens an existing journal for appending (the recovery path
// seals the reconciled tail through this). The caller has already scanned
// the file; no validation is repeated here. If the file ends in a torn
// record, the tear is truncated away so the seal lands on a clean boundary.
func OpenAppend(path string, validLen int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, off: validLen}, nil
}

// Append frames and writes one record. The payload is marshalled to JSON,
// byte for byte what json.Marshal gives; the record is not readable by Scan
// until the write fully lands, which is exactly the torn-tail tolerance
// recovery relies on. A write that fails part-way (a full disk, an I/O
// error) is truncated back to the last good record, so the next append does
// not land behind a partial one and turn a tolerated torn tail into mid-file
// corruption.
func (j *Journal) Append(t RecType, payload any) error {
	if j.broken != nil {
		return fmt.Errorf("journal: appending %v after an untruncated failed append: %w", t, j.broken)
	}
	if j.enc == nil {
		j.enc = json.NewEncoder(&j.buf)
	}
	j.buf.Reset()
	var hdr [recHeaderLen]byte
	j.buf.Write(hdr[:])
	if err := j.enc.Encode(payload); err != nil {
		return fmt.Errorf("journal: encoding %v: %w", t, err)
	}
	// Encode ends the value with a newline that json.Marshal does not write.
	rec := j.buf.Bytes()
	rec = rec[:len(rec)-1]
	body := rec[recHeaderLen:]
	rec[0] = byte(t)
	binary.LittleEndian.PutUint32(rec[1:5], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[5:9], crc32.ChecksumIEEE(body))
	if _, err := j.f.Write(rec); err != nil {
		err = fmt.Errorf("journal: appending %v: %w", t, err)
		if terr := j.rewind(); terr != nil {
			j.broken = err
			return fmt.Errorf("%w (truncating back to offset %d failed: %v)", err, j.off, terr)
		}
		return err
	}
	j.off += int64(len(rec))
	return nil
}

// rewind cuts the file back to the end of the last good record and moves
// the write position there.
func (j *Journal) rewind() error {
	if err := j.f.Truncate(j.off); err != nil {
		return err
	}
	_, err := j.f.Seek(j.off, io.SeekStart)
	return err
}

// Sync forces the journal to stable storage — called after the records whose
// durability the recovery contract depends on (Begin, the undo batch before
// a flush, Post, and the seals).
func (j *Journal) Sync() error { return j.f.Sync() }

// Offset returns the current end of the journal in bytes. The crash-torture
// harness snapshots offsets to reconstruct every crash prefix.
func (j *Journal) Offset() int64 { return j.off }

// Close closes the file.
func (j *Journal) Close() error { return j.f.Close() }

// Record is one decoded journal record.
type Record struct {
	Type    RecType
	Payload []byte
}

// Log is a scanned journal.
type Log struct {
	Records []Record
	// Torn reports a truncated or checksum-failing final record (dropped
	// from Records).
	Torn bool
	// ValidLen is the byte length of the well-formed prefix — where an
	// appender must resume to keep the file parseable.
	ValidLen int64
}

// Scan reads and validates a journal file. A torn final record is tolerated
// (Log.Torn); a short header tail likewise. Zero-length files fail with
// ErrEmpty, non-journal files with ErrBadMagic, mid-file corruption with
// ErrChecksum. It holds the whole file: recovery reads a journal through
// PrepareFile instead.
func Scan(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ScanBytes(data)
}

// ScanBytes validates an in-memory journal image (the fuzz target's entry
// point; Scan delegates here).
func ScanBytes(data []byte) (*Log, error) {
	size := int64(len(data))
	if err := checkMagic(data[:min(len(data), len(Magic))], size); err != nil {
		return nil, err
	}
	log, err := scanRecords(data, int64(len(Magic)))
	if err != nil {
		return nil, err
	}
	if len(log.Records) == 0 {
		return nil, noRecords(log.Torn)
	}
	return log, nil
}

// passBuffer is the size of PrepareFile's read buffer. A record that fits
// is checked where it lies in the buffer; a longer one is checksummed
// through it a buffer at a time.
const passBuffer = 32 << 10

// PrepareFile reads the journal at path in one pass and returns what Scan
// and then Prepare return, without holding the file. Through one buffered
// reader it checks every record's framing as ScanBytes does and feeds each
// record to Prepare's grammar, then reads back only the records Decode
// reads: the last committed Post and the open tail. Its memory follows the
// buffer, those records, Init and any payload whose leading sequence
// number cannot be read (the grammar decodes those whole), not the
// history. The errors are those of Scan and then Prepare: the pass reads
// on after a grammar error, so a framing error anywhere in the file wins.
func PrepareFile(path string) (*Prepared, error) {
	return prepareFile(path, passBuffer)
}

// prepareFile is PrepareFile with a read buffer of bufSize bytes, at least
// seqHead.
func prepareFile(path string, bufSize int) (*Prepared, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	ps := &pass{r: bufio.NewReaderSize(io.NewSectionReader(f, 0, size), bufSize)}
	magic, err := ps.r.Peek(int(min(size, int64(len(Magic)))))
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	if err := checkMagic(magic, size); err != nil {
		return nil, err
	}
	ps.skip = len(Magic)
	validLen, torn := int64(len(Magic)), false
	for validLen < size {
		fr, payload, err := ps.next(validLen, size)
		if err == ErrTorn {
			torn = true
			break
		}
		if err != nil {
			return nil, err
		}
		if ps.gerr == nil {
			ps.gerr = ps.g.feed(fr.t, payload, span{fr.off, fr.end()})
		}
		validLen = fr.end()
	}
	if validLen == int64(len(Magic)) {
		return nil, noRecords(torn)
	}
	if ps.gerr != nil {
		return nil, ps.gerr
	}
	g := &ps.g
	p := g.prepared(torn, validLen)
	var tail span
	if g.begin != (span{}) {
		tail = span{g.begin.from, validLen}
	}
	post := g.committed.to - g.committed.from
	slab := make([]byte, post+tail.to-tail.from)
	if post > 0 {
		recs, err := readBack(f, slab[:post], g.committed.from)
		if err != nil {
			return nil, err
		}
		p.post = recs[0]
	}
	if tail != (span{}) {
		if p.tail, err = readBack(f, slab[post:], tail.from); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// pass is PrepareFile's reader: one buffer over the file, and the grammar
// it feeds. Each Discard drops bytes a Peek has already buffered, so none
// can fail.
type pass struct {
	r    *bufio.Reader
	g    grammar
	gerr error // the grammar's first error; it is fed nothing after it
	// skip is how many bytes of the last payload to discard before the next
	// header: a payload that fits is read where it lies in the buffer.
	skip int
	head [seqHead]byte
}

// next reads the record at off of a file of size bytes: its framing, and
// what the grammar reads of its payload. It fails as nextFrame and
// frame.checkSum do.
func (ps *pass) next(off, size int64) (frame, []byte, error) {
	_, _ = ps.r.Discard(ps.skip)
	ps.skip = 0
	hdr, err := ps.r.Peek(int(min(recHeaderLen, size-off)))
	if err != nil {
		return frame{}, nil, fmt.Errorf("journal: reading at offset %d: %w", off, err)
	}
	fr, err := nextFrame(hdr, off, size)
	if err != nil {
		return frame{}, nil, err
	}
	_, _ = ps.r.Discard(recHeaderLen)
	payload, crc, err := ps.payload(fr)
	if err != nil {
		return frame{}, nil, fmt.Errorf("journal: reading at offset %d: %w", off, err)
	}
	return fr, payload, fr.checkSum(crc, size)
}

// payload consumes fr's payload and returns its CRC-32 and what the grammar
// reads of it: the payload where it lies in the buffer if it fits, a copy
// if the grammar wants it whole, else its head. A longer payload is
// checksummed a buffer at a time, where it lies.
func (ps *pass) payload(fr frame) ([]byte, uint32, error) {
	n := int(fr.n)
	first, err := ps.r.Peek(min(n, ps.r.Size()))
	switch {
	case err != nil:
		return nil, 0, err
	case n == len(first):
		ps.skip = n
		return first, crc32.ChecksumIEEE(first), nil
	case ps.gerr == nil && ps.g.wantsWhole(fr.t, first):
		whole := make([]byte, n)
		_, err := io.ReadFull(ps.r, whole)
		return whole, crc32.ChecksumIEEE(whole), err
	}
	head := ps.head[:copy(ps.head[:], first)]
	var crc uint32
	for n > 0 {
		b, err := ps.r.Peek(min(n, ps.r.Size()))
		if err != nil {
			return nil, 0, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		_, _ = ps.r.Discard(len(b))
		n -= len(b)
	}
	return head, crc, nil
}

// readBack reads whole records into buf from offset off of f and frames
// them. The pass has checked them already, so a failure means the file
// changed under it.
func readBack(f *os.File, buf []byte, off int64) ([]Record, error) {
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("journal: reading %s back: %w", f.Name(), err)
	}
	log, err := scanRecords(buf, 0)
	if err == nil && log.Torn {
		err = ErrTorn
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %s changed while it was read: %w", f.Name(), err)
	}
	return log.Records, nil
}

// scanRecords frames the records of data from off to its end.
func scanRecords(data []byte, off int64) (*Log, error) {
	size := int64(len(data))
	log := &Log{ValidLen: off}
	for log.ValidLen < size {
		f, err := nextFrame(data[log.ValidLen:], log.ValidLen, size)
		var body []byte
		if err == nil {
			body = data[f.off+recHeaderLen : f.end()]
			err = f.checkSum(crc32.ChecksumIEEE(body), size)
		}
		if err == ErrTorn {
			log.Torn = true
			break
		}
		if err != nil {
			return nil, err
		}
		log.Records = append(log.Records, Record{Type: f.t, Payload: body})
		log.ValidLen = f.end()
	}
	return log, nil
}

// The framing rules, shared by ScanBytes and PrepareFile.

// checkMagic checks a journal's signature: head holds its first bytes, up
// to len(Magic) of them, and size is its length.
func checkMagic(head []byte, size int64) error {
	if size == 0 {
		return ErrEmpty
	}
	if string(head) != Magic {
		return ErrBadMagic
	}
	return nil
}

// frame is one record's framing: its type, the offset of its header, its
// payload length and its payload's CRC-32.
type frame struct {
	t   RecType
	off int64
	n   int64
	sum uint32
}

// end is the offset just past the record.
func (f frame) end() int64 { return f.off + recHeaderLen + f.n }

// nextFrame reads the header of the record at off of a journal image of
// size bytes; hdr holds the image from off, at least min(recHeaderLen,
// size-off) bytes of it. It fails with ErrTorn when the record is a torn
// final record: a header cut short, an impossible header, or a payload
// that overruns the image. An impossible header on an earlier record is
// corruption (ErrChecksum). A record's length is thus checked against the
// image before anything reads its payload.
func nextFrame(hdr []byte, off, size int64) (frame, error) {
	if size-off < recHeaderLen {
		return frame{}, ErrTorn // header torn mid-write
	}
	f := frame{
		t:   RecType(hdr[0]),
		off: off,
		n:   int64(binary.LittleEndian.Uint32(hdr[1:5])),
		sum: binary.LittleEndian.Uint32(hdr[5:9]),
	}
	if f.t < RecInit || f.t > RecAbort || f.n > maxPayload {
		// An impossible header: on the final record (its claimed extent
		// reaches or overruns the end) this is a torn write; earlier it is
		// corruption.
		if f.end() >= size {
			return frame{}, ErrTorn
		}
		return frame{}, fmt.Errorf("%w: record header at offset %d", ErrChecksum, off)
	}
	if f.end() > size {
		return frame{}, ErrTorn // payload torn mid-write
	}
	return f, nil
}

// checkSum compares crc, the CRC-32 of f's payload, with its header's. On
// the final record a mismatch is a tear inside the last write, whose
// payload landed at full length but with wrong bits (ErrTorn); earlier it
// is corruption (ErrChecksum).
func (f frame) checkSum(crc uint32, size int64) error {
	switch {
	case crc == f.sum:
		return nil
	case f.end() == size:
		return ErrTorn
	}
	return fmt.Errorf("%w: %v record at offset %d", ErrChecksum, f.t, f.off)
}

// noRecords is the error for an image that frames no record.
func noRecords(torn bool) error {
	note := ""
	if torn {
		note = " (torn tail)"
	}
	return fmt.Errorf("%w: no records%s", ErrEmpty, note)
}
