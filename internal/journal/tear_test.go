package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/fabric"
)

// tearFile is a journal file whose armed write lands only its first tear
// bytes and then fails, as a write into a full disk does.
type tearFile struct {
	*os.File
	tear        int // bytes the next write lands; < 0 when disarmed
	truncateErr error
}

func (f *tearFile) Write(p []byte) (int, error) {
	if f.tear < 0 {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:min(f.tear, len(p))])
	f.tear = -1
	if err != nil {
		return n, err
	}
	return n, syscall.ENOSPC
}

func (f *tearFile) Truncate(size int64) error {
	if f.truncateErr != nil {
		return f.truncateErr
	}
	return f.File.Truncate(size)
}

// tornAppend opens a journal with an Init and a Begin record, then appends
// an Undo record that tears after tear bytes.
func tornAppend(t *testing.T, tear int, truncateErr error) (j *Journal, path string, appendErr error) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "op.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tf := &tearFile{File: j.f.(*os.File), tear: -1, truncateErr: truncateErr}
	j.f = tf
	if err := j.Append(RecInit, Init{Preset: "TEST12x8", Rows: 8, Cols: 12, Port: "jtag"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(RecBegin, Begin{Seq: 1, Op: "move", Design: "b01"}); err != nil {
		t.Fatal(err)
	}
	tf.tear = tear
	return j, path, j.Append(RecUndo, tornUndo)
}

var tornUndo = Undo{Seq: 1, Addr: fabric.FrameAddr{Major: 2, Minor: 3}, Words: []uint32{1, 2, 3, 4, 5, 6}}

func scanTypes(t *testing.T, path string) (*Log, []RecType) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := ScanBytes(data)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var types []RecType
	for _, r := range log.Records {
		types = append(types, r.Type)
	}
	return log, types
}

// TestFailedAppendTruncatesToLastGoodRecord tears an append at every kind
// of byte offset — nothing written, one byte, mid-header, header end,
// mid-payload, one byte short — and appends a good record after it. The
// journal must scan untorn and hold exactly the good records: the partial
// record is cut away instead of being buried mid-file, where Scan would
// reject it as corruption.
func TestFailedAppendTruncatesToLastGoodRecord(t *testing.T) {
	body, err := json.Marshal(tornUndo)
	if err != nil {
		t.Fatal(err)
	}
	recLen := recHeaderLen + len(body)
	for _, tear := range []int{0, 1, recHeaderLen / 2, recHeaderLen, recHeaderLen + len(body)/2, recLen - 1} {
		t.Run(fmt.Sprintf("tear-at-%d-of-%d", tear, recLen), func(t *testing.T) {
			j, path, appendErr := tornAppend(t, tear, nil)
			if !errors.Is(appendErr, syscall.ENOSPC) {
				t.Fatalf("torn append returned %v, want ENOSPC", appendErr)
			}
			good := j.Offset()
			if err := j.Append(RecAbort, Seal{Seq: 1}); err != nil {
				t.Fatalf("append after a truncated tear: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			log, types := scanTypes(t, path)
			if want := []RecType{RecInit, RecBegin, RecAbort}; log.Torn || !slices.Equal(types, want) {
				t.Fatalf("scan: torn=%v records %v, want untorn %v", log.Torn, types, want)
			}
			if st, _ := os.Stat(path); log.ValidLen != st.Size() || log.ValidLen <= good {
				t.Errorf("ValidLen %d, file size %d, offset before the seal %d", log.ValidLen, st.Size(), good)
			}
			if _, err := Replay(log); err != nil {
				t.Errorf("replay: %v", err)
			}
		})
	}
}

// TestAppendAfterUntruncatableTearFails: when the tear cannot be truncated
// away either, no later record may land behind it. Every later Append fails
// wrapping the first error, and the file keeps a torn tail Scan tolerates.
func TestAppendAfterUntruncatableTearFails(t *testing.T) {
	j, path, appendErr := tornAppend(t, recHeaderLen+2, errors.New("truncate: read-only file system"))
	if !errors.Is(appendErr, syscall.ENOSPC) {
		t.Fatalf("torn append returned %v, want ENOSPC", appendErr)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(RecAbort, Seal{Seq: 1}); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append %d after an untruncated tear returned %v, want it to wrap ENOSPC", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log, types := scanTypes(t, path)
	if want := []RecType{RecInit, RecBegin}; !log.Torn || !slices.Equal(types, want) {
		t.Fatalf("scan: torn=%v records %v, want a torn tail after %v", log.Torn, types, want)
	}
}
