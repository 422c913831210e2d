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
// JSON payload. A crash can tear at most the final record; Scan tolerates a
// torn tail (the incomplete record is dropped and reported) but treats a
// checksum mismatch anywhere before the tail as corruption.
//
// Reading a journal back takes three steps: Scan checks the framing,
// Prepare checks the record grammar and copies out the payloads still to
// be decoded, and Decode decodes them. Replay runs the last two back to
// back; a caller that has other work can drop the scanned Log after
// Prepare and decode later.
package journal

import (
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
// ErrChecksum.
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
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	log := &Log{ValidLen: int64(len(Magic))}
	off := len(Magic)
	for off < len(data) {
		if len(data)-off < recHeaderLen {
			log.Torn = true // header torn mid-write
			break
		}
		t := RecType(data[off])
		n := binary.LittleEndian.Uint32(data[off+1 : off+5])
		sum := binary.LittleEndian.Uint32(data[off+5 : off+9])
		if t < RecInit || t > RecAbort || n > maxPayload {
			// An impossible header: on the final record this is a torn
			// write; earlier it is corruption.
			if lastRecord(data, off+recHeaderLen+int(n)) {
				log.Torn = true
				break
			}
			return nil, fmt.Errorf("%w: record header at offset %d", ErrChecksum, off)
		}
		end := off + recHeaderLen + int(n)
		if end > len(data) {
			log.Torn = true // payload torn mid-write
			break
		}
		body := data[off+recHeaderLen : end]
		if crc32.ChecksumIEEE(body) != sum {
			if end == len(data) {
				// The final record's payload landed at full length but with
				// wrong bits — a tear inside the last write, recoverable.
				log.Torn = true
				break
			}
			return nil, fmt.Errorf("%w: %v record at offset %d", ErrChecksum, t, off)
		}
		log.Records = append(log.Records, Record{Type: t, Payload: body})
		off = end
		log.ValidLen = int64(off)
	}
	if len(log.Records) == 0 {
		return nil, fmt.Errorf("%w: no records%s", ErrEmpty, tornNote(log.Torn))
	}
	return log, nil
}

// lastRecord reports whether a record claiming to end at end would be the
// file's final record (its claimed extent reaches or overruns the end).
func lastRecord(data []byte, end int) bool { return end >= len(data) }

func tornNote(torn bool) string {
	if torn {
		return " (torn tail)"
	}
	return ""
}
