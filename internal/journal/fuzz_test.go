package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzRecord frames one record the way Append does.
func fuzzRecord(t RecType, body []byte) []byte {
	r := make([]byte, recHeaderLen, recHeaderLen+len(body))
	r[0] = byte(t)
	binary.LittleEndian.PutUint32(r[1:5], uint32(len(body)))
	binary.LittleEndian.PutUint32(r[5:9], crc32.ChecksumIEEE(body))
	return append(r, body...)
}

// FuzzJournalScan feeds arbitrary bytes through the scanner and, when they
// parse, through Replay. The invariants: no panic ever; Scan's ValidLen is a
// re-scannable prefix yielding the same records; errors are always one of the
// package's typed sentinels; Replay's two steps, run on a copy of the input
// that is cleared between them, replay exactly as Replay does; and the same
// bytes read from a file in one pass (PrepareFile, then Decode, at its own
// buffer size and at the smallest) replay exactly as ScanBytes, Prepare and
// Decode do, or fail with the same sentinels.
func FuzzJournalScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("not a journal at all"))
	wellFormed := append([]byte(Magic),
		fuzzRecord(RecInit, []byte(`{"preset":"TEST12x8","rows":8,"cols":12,"port":"jtag"}`))...)
	wellFormed = append(wellFormed, fuzzRecord(RecBegin, []byte(`{"seq":1,"op":"load","design":"b01"}`))...)
	wellFormed = append(wellFormed, fuzzRecord(RecUndo, []byte(`{"seq":1,"addr":{"Major":2,"Minor":3},"words":[1,2,3]}`))...)
	wellFormed = append(wellFormed, fuzzRecord(RecPost, []byte(`{"seq":1,"state":{"seq":1,"next_alloc":2,"stats":{},"port_cycles":0,"last_tick":0}}`))...)
	wellFormed = append(wellFormed, fuzzRecord(RecCommit, []byte(`{"seq":1}`))...)
	f.Add(wellFormed)
	f.Add(wellFormed[:len(wellFormed)-3]) // torn tail
	f.Add(append(append([]byte(nil), wellFormed...), fuzzRecord(RecBegin, []byte(`{"seq":2,"op":"move"}`))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := replayScanned(data)
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, size := range passBuffers {
			got, gotErr := replayFile(path, size)
			if d := replayMismatch(got, gotErr, want, wantErr); d != "" {
				t.Fatalf("one pass over the file, %d-byte buffer: %s", size, d)
			}
		}

		log, err := ScanBytes(data)
		if err != nil {
			for _, want := range []error{ErrEmpty, ErrBadMagic, ErrChecksum} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("scan error %v is not a typed sentinel", err)
		}
		if log.ValidLen < int64(len(Magic)) || log.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d outside [%d,%d]", log.ValidLen, len(Magic), len(data))
		}
		// The well-formed prefix must re-scan to the same records, untorn.
		again, err := ScanBytes(data[:log.ValidLen])
		if err != nil {
			t.Fatalf("rescan of valid prefix: %v", err)
		}
		if again.Torn || len(again.Records) != len(log.Records) {
			t.Fatalf("rescan: torn=%v records=%d, want clean %d", again.Torn, len(again.Records), len(log.Records))
		}
		for i := range log.Records {
			if again.Records[i].Type != log.Records[i].Type ||
				!bytes.Equal(again.Records[i].Payload, log.Records[i].Payload) {
				t.Fatalf("rescan record %d differs", i)
			}
		}
		// Replay either succeeds or fails with a typed sentinel; no panic.
		want, err = Replay(log)
		if err != nil && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrEmpty) {
			t.Fatalf("replay error %v is not a typed sentinel", err)
		}
		// Its two steps apart, with the image cleared between them, replay
		// exactly as the intact input did.
		got, gotErr := replayApart(data)
		if d := replayMismatch(got, gotErr, want, err); d != "" {
			t.Fatalf("decoding after the image is cleared: %s", d)
		}
	})
}
