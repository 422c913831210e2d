package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// replayScanned replays an image the in-memory way: ScanBytes, Prepare,
// Decode.
func replayScanned(img []byte) (*Replayed, error) {
	log, err := ScanBytes(img)
	if err != nil {
		return nil, err
	}
	p, err := Prepare(log)
	if err != nil {
		return nil, err
	}
	return p.Decode()
}

// replayFile replays the journal at path through the one-pass read with a
// buffer of bufSize bytes.
func replayFile(path string, bufSize int) (*Replayed, error) {
	p, err := prepareFile(path, bufSize)
	if err != nil {
		return nil, err
	}
	return p.Decode()
}

// passBuffers are the read buffers the differential runs the pass with:
// PrepareFile's own, and the smallest the grammar allows, under which every
// record but the shortest is checksummed a buffer at a time or read whole.
var passBuffers = []int{passBuffer, seqHead}

// pastEnd is a journal whose second record, not its last, has a length
// field that points past the end of the file: the scan must take it for the
// torn tail, and the pass must not allocate what it claims.
func pastEnd() []byte {
	img := rawImage([]rawRec{
		{RecBegin, `{"seq":1,"op":"load"}`},
		{RecPost, `{"seq":1,"state":{"seq":1,"next_alloc":2}}`},
		{RecCommit, `{"seq":1}`},
	})
	at := recordEnds(img)[0] // where the Begin after Init starts
	binary.LittleEndian.PutUint32(img[at+1:at+5], maxPayload)
	return img
}

// TestPrepareFileMatchesScan is the differential gate of the one-pass read:
// over seeded journals written by the journal writer, the hand-written
// images of TestRecordSeqFallback and pastEnd, cut at every byte and with
// every single byte flipped, PrepareFile and then Decode must replay
// exactly what ScanBytes, Prepare and Decode replay, or fail with the same
// sentinels, at its own buffer size and at the smallest.
func TestPrepareFileMatchesScan(t *testing.T) {
	images := map[string][]byte{"past-end": pastEnd()}
	for _, seed := range []int64{14, 17} {
		images[fmt.Sprintf("seed-%d", seed)] = genJournal(t, seed)
	}
	for _, tc := range seqFallbackCases {
		images[tc.name] = rawImage(tc.recs)
	}
	path := filepath.Join(t.TempDir(), "pass.journal")
	var replayed, torn, refused int
	check := func(name string, img []byte) {
		want, wantErr := replayScanned(img)
		switch {
		case wantErr != nil:
			refused++
		case want.Torn:
			torn++
		default:
			replayed++
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, size := range passBuffers {
			got, gotErr := replayFile(path, size)
			if d := replayMismatch(got, gotErr, want, wantErr); d != "" {
				t.Fatalf("%s, %d-byte buffer: %s", name, size, d)
			}
		}
	}
	for name, img := range images {
		for cut := 0; cut <= len(img); cut++ {
			check(fmt.Sprintf("%s cut at %d", name, cut), img[:cut])
		}
		flipped := make([]byte, len(img))
		for i := range img {
			copy(flipped, img)
			flipped[i] ^= 0xff
			check(fmt.Sprintf("%s with byte %d flipped", name, i), flipped)
		}
	}
	t.Logf("%d images replayed, %d replayed torn, %d refused", replayed, torn, refused)
	if replayed == 0 || torn == 0 || refused == 0 {
		t.Fatal("corpus too narrow")
	}

	// The record past the end is the torn tail: the pass must not allocate
	// the 256 MiB its length field claims.
	img := pastEnd()
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := PrepareFile(path)
	runtime.ReadMemStats(&after)
	if err != nil || !p.torn || p.records != 1 {
		t.Fatalf("past-end journal: %+v, %v; want Init alone, torn", p, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("PrepareFile allocated %d bytes for a %d-byte journal", grew, len(img))
	}
}
