package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fabric"
)

// writeJournal builds a journal file from records and returns its path.
func writeJournal(t *testing.T, recs ...func(*Journal) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "op.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := r(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func app(tp RecType, payload any) func(*Journal) error {
	return func(j *Journal) error { return j.Append(tp, payload) }
}

func TestRoundTrip(t *testing.T) {
	path := writeJournal(t,
		app(RecInit, Init{Preset: "TEST12x8", Rows: 8, Cols: 12, Port: "jtag"}),
		app(RecBegin, Begin{Seq: 1, Op: "load", Design: "b01"}),
		app(RecUndo, Undo{Seq: 1, Addr: fabric.FrameAddr{Major: 2, Minor: 3}, Words: []uint32{1, 2, 3}}),
		app(RecPost, Post{Seq: 1, State: State{Seq: 1, NextAlloc: 2}}),
		app(RecCommit, Seal{Seq: 1}),
	)
	log, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Torn {
		t.Error("clean journal reported torn")
	}
	if len(log.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(log.Records))
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.ValidLen != st.Size() {
		t.Errorf("ValidLen = %d, file size %d", log.ValidLen, st.Size())
	}
	rs, err := Replay(log)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Tail != nil {
		t.Error("sealed journal has a tail")
	}
	if rs.State.Seq != 1 || rs.State.NextAlloc != 2 {
		t.Errorf("state = %+v, want seq 1 next 2", rs.State)
	}
	if rs.Init.Preset != "TEST12x8" || rs.Init.Rows != 8 {
		t.Errorf("init = %+v", rs.Init)
	}
	if rs.LastSeq != 1 {
		t.Errorf("LastSeq = %d, want 1", rs.LastSeq)
	}
}

// TestAppendMatchesMarshal pins Append's bytes: each record is its header
// and exactly the payload json.Marshal gives, HTML escaping included, for
// one record of every type.
func TestAppendMatchesMarshal(t *testing.T) {
	name := `<b01 & "b02">`
	recs := []struct {
		tp RecType
		v  any
	}{
		{RecInit, Init{Preset: "TEST12x8", Rows: 8, Cols: 12, Port: "jtag", ClockHz: 1e6}},
		{RecBegin, Begin{Seq: 1, Op: "load", Design: name, Region: fabric.Rect{H: 2, W: 2}, Detail: "<&>"}},
		{RecUndo, Undo{Seq: 1, Addr: fabric.FrameAddr{Major: 3, Minor: 7}, Words: []uint32{0, 1, 1 << 31}}},
		{RecPost, Post{Seq: 1, State: State{Seq: 1, NextAlloc: 2, Designs: []DesignState{{Name: name, Alloc: 1}},
			Allocs: []Alloc{{ID: 1, Rect: fabric.Rect{H: 2, W: 2}}}}, Dirty: []FrameDigest{{CRC: 9}}}},
		{RecCommit, Seal{Seq: 1}},
		{RecAbort, Seal{Seq: 2}},
	}
	want := []byte(Magic)
	var apps []func(*Journal) error
	for _, r := range recs {
		body, err := json.Marshal(r.v)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, byte(r.tp))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(body)))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(body))
		want = append(want, body...)
		apps = append(apps, app(r.tp, r.v))
	}
	got, err := os.ReadFile(writeJournal(t, apps...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("appended records differ from header + json.Marshal:\n got %q\nwant %q", got, want)
	}
}

func TestScanEmpty(t *testing.T) {
	// Zero-byte file.
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(path); !errors.Is(err, ErrEmpty) {
		t.Errorf("zero-byte scan: %v, want ErrEmpty", err)
	}
	// Bare header, no records: also empty.
	path2 := writeJournal(t)
	if _, err := Scan(path2); !errors.Is(err, ErrEmpty) {
		t.Errorf("bare-header scan: %v, want ErrEmpty", err)
	}
}

func TestScanBadMagic(t *testing.T) {
	if _, err := ScanBytes([]byte("NOTAJRNL records...")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("got %v, want ErrBadMagic", err)
	}
	if _, err := ScanBytes([]byte("RLM")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("short file: %v, want ErrBadMagic", err)
	}
}

// TestScanTornTail covers every tear position of the final record: inside the
// header, inside the payload, and a full-length payload with flipped bits.
func TestScanTornTail(t *testing.T) {
	path := writeJournal(t,
		app(RecInit, Init{Preset: "TEST12x8"}),
		app(RecBegin, Begin{Seq: 1, Op: "move"}),
	)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := ScanBytes(whole)
	if err != nil {
		t.Fatal(err)
	}
	fullLen := int(log.ValidLen)
	initEnd := fullLen - tornRecordLen(t, whole, fullLen)

	for cut := initEnd + 1; cut < fullLen; cut++ {
		log, err := ScanBytes(whole[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !log.Torn {
			t.Fatalf("cut at %d not reported torn", cut)
		}
		if log.ValidLen != int64(initEnd) {
			t.Fatalf("cut at %d: ValidLen %d, want %d", cut, log.ValidLen, initEnd)
		}
		if len(log.Records) != 1 || log.Records[0].Type != RecInit {
			t.Fatalf("cut at %d: records %v", cut, log.Records)
		}
	}

	// Full length but the final payload's bits got mangled in the tear.
	mangled := append([]byte(nil), whole...)
	mangled[len(mangled)-1] ^= 0xff
	log2, err := ScanBytes(mangled)
	if err != nil {
		t.Fatalf("mangled tail: %v", err)
	}
	if !log2.Torn || len(log2.Records) != 1 {
		t.Errorf("mangled tail: torn=%v records=%d, want torn with 1 record", log2.Torn, len(log2.Records))
	}
}

// tornRecordLen returns the byte length of the final record of a scanned
// image (header + payload).
func tornRecordLen(t *testing.T, data []byte, end int) int {
	t.Helper()
	// Walk records from the top to find the last one's start.
	off := len(Magic)
	last := off
	for off < end {
		last = off
		n := binary.LittleEndian.Uint32(data[off+1 : off+5])
		off += recHeaderLen + int(n)
	}
	return end - last
}

func TestScanMidFileChecksum(t *testing.T) {
	path := writeJournal(t,
		app(RecInit, Init{Preset: "TEST12x8"}),
		app(RecBegin, Begin{Seq: 1, Op: "move"}),
		app(RecCommit, Seal{Seq: 1}),
	)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: corruption before the tail.
	data[len(Magic)+recHeaderLen] ^= 0x01
	if _, err := ScanBytes(data); !errors.Is(err, ErrChecksum) {
		t.Errorf("mid-file corruption: %v, want ErrChecksum", err)
	}
}

func TestScanImpossibleHeader(t *testing.T) {
	head := []byte(Magic)
	// A record with an impossible type mid-file is corruption...
	rec := func(tp byte, body []byte) []byte {
		r := make([]byte, recHeaderLen+len(body))
		r[0] = tp
		binary.LittleEndian.PutUint32(r[1:5], uint32(len(body)))
		binary.LittleEndian.PutUint32(r[5:9], crc32.ChecksumIEEE(body))
		return append(r[:recHeaderLen], body...)
	}
	img := append(append([]byte(nil), head...), rec(99, []byte("{}"))...)
	img = append(img, rec(byte(RecInit), []byte("{}"))...)
	if _, err := ScanBytes(img); !errors.Is(err, ErrChecksum) {
		t.Errorf("impossible type mid-file: %v, want ErrChecksum", err)
	}
	// ...but as the final record it is a tear.
	img2 := append(append([]byte(nil), head...), rec(byte(RecInit), []byte("{}"))...)
	img2 = append(img2, rec(99, []byte("{}"))...)
	log, err := ScanBytes(img2)
	if err != nil {
		t.Fatalf("impossible final header: %v", err)
	}
	if !log.Torn {
		t.Error("impossible final header not reported torn")
	}
}

func TestCreateRefusesHistory(t *testing.T) {
	path := writeJournal(t, app(RecInit, Init{Preset: "TEST12x8"}))
	if _, err := Create(path); !errors.Is(err, ErrExists) {
		t.Errorf("Create over history: %v, want ErrExists", err)
	}
}

func TestOpenAppendTruncatesTear(t *testing.T) {
	path := writeJournal(t,
		app(RecInit, Init{Preset: "TEST12x8"}),
		app(RecBegin, Begin{Seq: 1, Op: "move"}),
	)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the begin record, then seal through OpenAppend.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := Scan(path)
	if err != nil || !log.Torn {
		t.Fatalf("scan: torn=%v err=%v", log.Torn, err)
	}
	j, err := OpenAppend(path, log.ValidLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(RecBegin, Begin{Seq: 1, Op: "retry"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Torn || len(log2.Records) != 2 {
		t.Fatalf("after reseal: torn=%v records=%d", log2.Torn, len(log2.Records))
	}
	var b Begin
	if err := unmarshalRecord(log2.Records[1], &b); err != nil || b.Op != "retry" {
		t.Errorf("resealed record = %+v err=%v", b, err)
	}
}

func TestReplayGrammar(t *testing.T) {
	build := func(recs ...func(*Journal) error) *Log {
		path := writeJournal(t, recs...)
		log, err := Scan(path)
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	malformed := []struct {
		name string
		recs []func(*Journal) error
	}{
		{"no init", []func(*Journal) error{app(RecBegin, Begin{Seq: 1})}},
		{"duplicate init", []func(*Journal) error{app(RecInit, Init{}), app(RecInit, Init{})}},
		{"undo outside op", []func(*Journal) error{app(RecInit, Init{}), app(RecUndo, Undo{Seq: 1})}},
		{"post outside op", []func(*Journal) error{app(RecInit, Init{}), app(RecPost, Post{Seq: 1})}},
		{"seal without op", []func(*Journal) error{app(RecInit, Init{}), app(RecCommit, Seal{Seq: 1})}},
		{"nested begin", []func(*Journal) error{app(RecInit, Init{}),
			app(RecBegin, Begin{Seq: 1}), app(RecBegin, Begin{Seq: 2})}},
		{"seq mismatch", []func(*Journal) error{app(RecInit, Init{}),
			app(RecBegin, Begin{Seq: 1}), app(RecUndo, Undo{Seq: 7})}},
		{"commit without post", []func(*Journal) error{app(RecInit, Init{}),
			app(RecBegin, Begin{Seq: 1}), app(RecCommit, Seal{Seq: 1})}},
	}
	for _, tc := range malformed {
		if _, err := Replay(build(tc.recs...)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", tc.name, err)
		}
	}

	// Abort seals without a Post; a later op's commit supersedes state; an
	// open tail is surfaced.
	log := build(
		app(RecInit, Init{Preset: "TEST12x8"}),
		app(RecBegin, Begin{Seq: 1, Op: "load"}),
		app(RecUndo, Undo{Seq: 1, Addr: fabric.FrameAddr{Major: 1}}),
		app(RecAbort, Seal{Seq: 1}),
		app(RecBegin, Begin{Seq: 2, Op: "move"}),
		app(RecPost, Post{Seq: 2, State: State{Seq: 2, NextAlloc: 3}}),
		app(RecCommit, Seal{Seq: 2}),
		app(RecBegin, Begin{Seq: 3, Op: "unload"}),
		app(RecUndo, Undo{Seq: 3, Addr: fabric.FrameAddr{Major: 2}}),
	)
	rs, err := Replay(log)
	if err != nil {
		t.Fatal(err)
	}
	if rs.State.Seq != 2 || rs.State.NextAlloc != 3 {
		t.Errorf("state = %+v, want committed op 2", rs.State)
	}
	if rs.Tail == nil || rs.Tail.Begin.Seq != 3 || rs.Tail.Post != nil || len(rs.Tail.Undo) != 1 {
		t.Errorf("tail = %+v, want open op 3 with one undo", rs.Tail)
	}
	if rs.LastSeq != 3 {
		t.Errorf("LastSeq = %d, want 3", rs.LastSeq)
	}

	// Several Posts in one op: the last one wins (commit-seal retry loops).
	log2 := build(
		app(RecInit, Init{}),
		app(RecBegin, Begin{Seq: 1}),
		app(RecPost, Post{Seq: 1, State: State{Seq: 1, NextAlloc: 2}}),
		app(RecUndo, Undo{Seq: 1, Addr: fabric.FrameAddr{Major: 3}}),
		app(RecPost, Post{Seq: 1, State: State{Seq: 1, NextAlloc: 9}}),
		app(RecCommit, Seal{Seq: 1}),
	)
	rs2, err := Replay(log2)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.State.NextAlloc != 9 {
		t.Errorf("state.NextAlloc = %d, want last post (9)", rs2.State.NextAlloc)
	}

	if _, err := Replay(&Log{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty log replay: %v, want ErrEmpty", err)
	}
}

// unmarshalRecord decodes one record payload (test helper mirroring what
// Replay does internally).
func unmarshalRecord(r Record, into any) error {
	return json.Unmarshal(r.Payload, into)
}
