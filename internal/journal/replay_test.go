package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/relocate"
)

// genState draws a small but fully populated host state.
func genState(rng *rand.Rand, seq uint64) State {
	st := State{
		Seq:       seq,
		NextAlloc: rng.Intn(1 << 20),
		Stats:     relocate.Stats{CellsRelocated: rng.Intn(100), FramesWritten: rng.Intn(1000), PortSeconds: rng.Float64()},
		Port:      []bitstream.Usage{{Cycles: rng.Uint64() >> 8, Traffic: bitstream.Traffic{WordsShifted: uint64(rng.Intn(1 << 16))}}},
		LastTick:  rng.Float64(),
	}
	for d := rng.Intn(3); d > 0; d-- {
		r := fabric.Rect{Row: rng.Intn(8), Col: rng.Intn(12), H: 1 + rng.Intn(4), W: 1 + rng.Intn(4)}
		st.Designs = append(st.Designs, DesignState{
			Name: fmt.Sprintf("d%d", rng.Intn(100)), Region: r, Alloc: rng.Intn(50),
			CellOf: map[netlist.ID]fabric.CellRef{netlist.ID(rng.Intn(40)): {Coord: fabric.Coord{Row: r.Row, Col: r.Col}, Cell: rng.Intn(4)}},
			PadOf:  map[netlist.ID]fabric.PadRef{netlist.ID(rng.Intn(40)): {Side: fabric.Dir(rng.Intn(4)), Pos: rng.Intn(8)}},
		})
		st.Allocs = append(st.Allocs, Alloc{ID: rng.Intn(50), Rect: r})
	}
	if rng.Intn(2) == 0 {
		st.Health = []ColumnHealth{{Major: rng.Intn(12), State: uint8(rng.Intn(4)), Rate: rng.Float64()}}
	}
	return st
}

func genUndo(rng *rand.Rand, seq uint64) Undo {
	u := Undo{Seq: seq, Addr: fabric.FrameAddr{Major: rng.Intn(50), Minor: rng.Intn(48)}}
	for w := rng.Intn(5); w > 0; w-- {
		u.Words = append(u.Words, rng.Uint32())
	}
	return u
}

func genPost(rng *rand.Rand, seq uint64) Post {
	p := Post{Seq: seq, State: genState(rng, seq)}
	for d := rng.Intn(3); d > 0; d-- {
		p.Dirty = append(p.Dirty, FrameDigest{Addr: fabric.FrameAddr{Major: rng.Intn(50), Minor: rng.Intn(48)}, CRC: rng.Uint32()})
	}
	return p
}

// genJournal writes one seeded history through Journal.Append and returns
// the file image: operations with 0 to 5 Undos and 0 to 3 Posts each,
// sealed by Commit or Abort, sometimes compacted part-way, sometimes ending
// in an open tail with or without a Post. Sequence numbers start anywhere
// from 1 to past 10^19, so both the leading read and its fallback run. One
// journal in five carries a grammar break, the kind Replay must refuse.
func genJournal(t *testing.T, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "gen.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	put := func(tp RecType, v any) {
		if err := j.Append(tp, v); err != nil {
			t.Fatal(err)
		}
	}
	put(RecInit, Init{Preset: "TEST12x8", Rows: 8, Cols: 12, Port: "jtag", ClockHz: float64(rng.Intn(1e6))})
	var seq uint64
	switch rng.Intn(4) {
	case 1:
		seq = uint64(rng.Intn(1e6))
	case 2:
		seq = 1e18 + uint64(rng.Int63n(1e17))
	case 3:
		seq = 1e19 + uint64(rng.Int63n(1e17))
	}
	rogue := -1
	if rng.Intn(5) == 0 {
		rogue = rng.Intn(8)
	}
	ops := func(n int, open bool) {
		for k := 0; k < n; k++ {
			seq++
			put(RecBegin, Begin{Seq: seq, Op: []string{"load", "move", "defrag-slide"}[rng.Intn(3)],
				Design: fmt.Sprintf("d%d", rng.Intn(100)), Detail: strconv.Itoa(k)})
			undos, posts := rng.Intn(6), rng.Intn(4)
			for undos+posts > 0 {
				if rng.Intn(undos+posts) < posts {
					put(RecPost, genPost(rng, seq))
					posts--
				} else {
					put(RecUndo, genUndo(rng, seq))
					undos--
				}
			}
			if rogue == k {
				switch rng.Intn(4) {
				case 0:
					put(RecUndo, genUndo(rng, seq+1))
				case 1:
					put(RecBegin, Begin{Seq: seq + 1})
				case 2:
					put(RecInit, Init{})
				default:
					put(RecCommit, Seal{Seq: seq}) // with or without a Post
					put(RecPost, genPost(rng, seq))
				}
			}
			switch {
			case open && k == n-1:
				if rng.Intn(2) == 0 {
					put(RecPost, genPost(rng, seq))
				}
			case rng.Intn(4) == 0:
				put(RecAbort, Seal{Seq: seq})
			default:
				put(RecPost, genPost(rng, seq))
				put(RecCommit, Seal{Seq: seq})
			}
		}
	}
	if rng.Intn(3) == 0 && rogue < 0 {
		ops(1+rng.Intn(4), false)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		n, err := Compact(path)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = OpenAppend(path, n); err != nil {
			t.Fatal(err)
		}
	}
	ops(rng.Intn(7), rng.Intn(2) == 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// recordEnds returns the byte offset at which each record of a well-formed
// journal image ends.
func recordEnds(img []byte) []int {
	var ends []int
	for off := len(Magic); off+recHeaderLen <= len(img); {
		off += recHeaderLen + int(binary.LittleEndian.Uint32(img[off+1:off+5]))
		ends = append(ends, off)
	}
	return ends
}

// sameReplay checks that Replay and replayEager agree on log: deep-equal
// results, or errors matching the same sentinels. It reports whether both
// replayed.
func sameReplay(t *testing.T, name string, log *Log) bool {
	t.Helper()
	got, gotErr := Replay(log)
	want, wantErr := replayEager(log)
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%s: Replay error %v, eager replay error %v", name, gotErr, wantErr)
		return false
	}
	for _, sentinel := range []error{ErrMalformed, ErrEmpty} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			t.Errorf("%s: Replay error %v, eager replay error %v", name, gotErr, wantErr)
			return false
		}
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Replay differs from the eager replay\n got %+v\nwant %+v", name, got, want)
		return false
	}
	return gotErr == nil
}

// decodedRecords lists the records a successful Replay decodes in full after
// Init: the last Post of the last committed operation and every record of
// the open tail.
func decodedRecords(recs []Record) []int {
	begin, post, committed := -1, -1, -1
	for i, rec := range recs {
		switch rec.Type {
		case RecBegin:
			begin, post = i, -1
		case RecPost:
			post = i
		case RecCommit:
			committed, begin = post, -1
		case RecAbort:
			begin = -1
		}
	}
	var idx []int
	if committed >= 0 {
		idx = append(idx, committed)
	}
	for i := begin; begin >= 0 && i < len(recs); i++ {
		idx = append(idx, i)
	}
	return idx
}

// secondSeq returns payload with a second seq key, one higher, right after
// its leading {"seq":N, so the leading read and a full decode disagree; nil
// when the payload has no leading seq.
func secondSeq(payload []byte) []byte {
	s, ok := leadingSeq(payload)
	if !ok {
		return nil
	}
	head := len(seqPrefix) + len(strconv.FormatUint(s, 10))
	return fmt.Appendf(nil, `%s,"seq":%d%s`, payload[:head], s+1, payload[head:])
}

// TestReplayMatchesEager is the differential gate of the lazy Replay: over
// seeded histories written by the journal writer, cut at every record
// boundary, it must return exactly what the eager reference replay returns,
// or fail as the reference does. On every cut that replays, each record it
// decodes is also given a second, disagreeing seq key, which must fail.
func TestReplayMatchesEager(t *testing.T) {
	sameReplay(t, "nil log", nil)
	sameReplay(t, "empty log", &Log{})
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	var replayed, refused, probed int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		img := genJournal(t, seed)
		for _, end := range recordEnds(img) {
			name := fmt.Sprintf("seed %d cut at %d", seed, end)
			log, err := ScanBytes(img[:end])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameReplay(t, name, log) {
				refused++
				continue
			}
			replayed++
			for _, i := range decodedRecords(log.Records) {
				bad := secondSeq(log.Records[i].Payload)
				if bad == nil {
					continue
				}
				mut := &Log{Records: append([]Record(nil), log.Records...), ValidLen: log.ValidLen}
				mut.Records[i].Payload = bad
				if _, err := Replay(mut); !errors.Is(err, ErrMalformed) {
					t.Errorf("%s: %v record %d with a second seq key: %v, want ErrMalformed", name, mut.Records[i].Type, i, err)
				}
				probed++
			}
		}
	}
	if replayed == 0 || refused == 0 || probed == 0 {
		t.Fatalf("corpus too narrow: %d cuts replayed, %d refused, %d records probed", replayed, refused, probed)
	}
}

// replayApart replays a copy of img in Replay's two steps and clears every
// byte of the copy between them, so Decode can read only what Prepare kept.
func replayApart(img []byte) (*Replayed, error) {
	scratch := append([]byte(nil), img...)
	log, err := ScanBytes(scratch)
	if err != nil {
		return nil, err
	}
	p, err := Prepare(log)
	if err != nil {
		return nil, err
	}
	clear(scratch)
	return p.Decode()
}

// replayMismatch describes how two replays of one journal differ: "" when
// both return deep-equal results, or both fail matching the same sentinels.
func replayMismatch(got *Replayed, gotErr error, want *Replayed, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	for _, sentinel := range []error{ErrMalformed, ErrEmpty, ErrBadMagic, ErrChecksum} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("replayed\n got %+v\nwant %+v", got, want)
	}
	return ""
}

// TestPreparedOutlivesLog is the independence differential of Replay's two
// steps: over TestReplayMatchesEager's corpus, cut at every record boundary,
// a journal prepared from an image that is then cleared byte by byte must
// decode to exactly what Replay returns on an intact copy, or fail as it
// fails.
func TestPreparedOutlivesLog(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	var decoded int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		img := genJournal(t, seed)
		for _, end := range recordEnds(img) {
			log, err := ScanBytes(img[:end])
			if err != nil {
				t.Fatalf("seed %d cut at %d: %v", seed, end, err)
			}
			want, wantErr := Replay(log)
			got, gotErr := replayApart(img[:end])
			if d := replayMismatch(got, gotErr, want, wantErr); d != "" {
				t.Errorf("seed %d cut at %d: decoding after the image is cleared: %s", seed, end, d)
			}
			if wantErr == nil && (want.Tail != nil || want.State.Seq != 0) {
				decoded++
			}
		}
	}
	if decoded == 0 {
		t.Fatal("corpus too narrow: no cut decodes a committed Post or a tail")
	}
}

// TestReplayAllocsIndependentOfHistory pins Replay's cost to the open tail
// and the live state: histories of 1, 16 and 256 sealed operations with the
// same Post and the same open tail replay in the same number of allocations.
func TestReplayAllocsIndependentOfHistory(t *testing.T) {
	st := genState(rand.New(rand.NewSource(7)), 0)
	undo := func(seq uint64, k int) Undo {
		return Undo{Seq: seq, Addr: fabric.FrameAddr{Major: k, Minor: 3}, Words: []uint32{1, 2, 3, 4}}
	}
	var allocs []float64
	for _, ops := range []uint64{1, 16, 256} {
		path := filepath.Join(t.TempDir(), "history.journal")
		j, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		put := func(tp RecType, v any) {
			if err := j.Append(tp, v); err != nil {
				t.Fatal(err)
			}
		}
		put(RecInit, Init{Preset: "TEST12x8", Rows: 8, Cols: 12, Port: "jtag"})
		for seq := uint64(1); seq <= ops; seq++ {
			put(RecBegin, Begin{Seq: seq, Op: "move", Design: "b01"})
			for k := range 4 {
				put(RecUndo, undo(seq, k))
			}
			put(RecPost, Post{Seq: seq, State: st})
			put(RecCommit, Seal{Seq: seq})
		}
		tail := ops + 1
		put(RecBegin, Begin{Seq: tail, Op: "move", Design: "b01"})
		for k := range 3 {
			put(RecUndo, undo(tail, k))
		}
		put(RecPost, Post{Seq: tail, State: st})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		log, err := Scan(path)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Replay(log)
		if err != nil {
			t.Fatal(err)
		}
		if rs.LastSeq != tail || rs.Tail == nil || rs.Tail.Post == nil || len(rs.Tail.Undo) != 3 ||
			!reflect.DeepEqual(rs.State, st) {
			t.Fatalf("%d ops: replayed LastSeq %d, tail %+v", ops, rs.LastSeq, rs.Tail)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := Replay(log); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("Replay allocations over 1, 16 and 256 sealed ops: %v", allocs)
	if allocs[0] != allocs[1] || allocs[1] != allocs[2] {
		t.Errorf("Replay allocations over 1, 16 and 256 sealed ops: %v, want equal", allocs)
	}
}

// TestRecordSeqFieldOrder pins the contract the leading read rests on: every
// record the writer marshals after Init, Compact's synthetic ones included,
// starts with {"seq":, and leadingSeq reads back every seq of up to 19
// digits while recordSeq reads every seq at all.
func TestRecordSeqFieldOrder(t *testing.T) {
	filled := func(seq uint64) []any {
		return []any{
			Begin{Seq: seq, Op: "defrag-slide", Design: "b01", Detail: "x",
				Region: fabric.Rect{Row: math.MaxInt, Col: math.MaxInt, H: math.MaxInt, W: math.MaxInt}},
			Undo{Seq: seq, Addr: fabric.FrameAddr{Major: math.MaxInt, Minor: math.MaxInt}, Words: []uint32{math.MaxUint32}},
			Post{Seq: seq, State: State{Seq: seq, NextAlloc: math.MaxInt, LastTick: math.MaxFloat64},
				Dirty: []FrameDigest{{Addr: fabric.FrameAddr{Major: math.MaxInt}, CRC: math.MaxUint32}}},
			Seal{Seq: seq},
		}
	}
	for _, seq := range []uint64{0, 1, 9, 10, 99, 100, 123456789, 1e18, 1e19 - 1, 1e19, math.MaxUint64} {
		recs := filled(seq)
		if seq == 0 {
			recs = append(recs, Begin{}, Undo{}, Post{}, Seal{})
		}
		for _, v := range recs {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(b, []byte(seqPrefix)) {
				t.Errorf("%T marshals as %.40s..., want the %s prefix", v, b, seqPrefix)
			}
			got, ok := leadingSeq(b)
			if wantOK := seq < 1e19; ok != wantOK || (ok && got != seq) {
				t.Errorf("leadingSeq(%T with seq %d) = %d, %v; want %d, %v", v, seq, got, ok, seq, wantOK)
			}
			if got, err := recordSeq(Record{Type: RecBegin, Payload: b}); err != nil || got != seq {
				t.Errorf("recordSeq(%T with seq %d) = %d, %v", v, seq, got, err)
			}
		}
	}

	path := writeJournal(t,
		app(RecInit, Init{Preset: "TEST12x8"}),
		app(RecBegin, Begin{Seq: 41, Op: "load"}),
		app(RecPost, Post{Seq: 41, State: State{Seq: 41}}),
		app(RecCommit, Seal{Seq: 41}),
		app(RecBegin, Begin{Seq: 42, Op: "move"}),
		app(RecAbort, Seal{Seq: 42}),
	)
	if _, err := Compact(path); err != nil {
		t.Fatal(err)
	}
	log, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range log.Records[1:] {
		if s, ok := leadingSeq(rec.Payload); !ok || s != 42 {
			t.Errorf("compacted %v record %.40s...: leading seq %d, %v; want 42", rec.Type, rec.Payload, s, ok)
		}
	}
}

// rawRec is one record of a hand-written journal image.
type rawRec struct {
	tp      RecType
	payload string
}

// rawImage frames an Init and recs into a journal image.
func rawImage(recs []rawRec) []byte {
	img := append([]byte(Magic), fuzzRecord(RecInit, []byte(`{"preset":"TEST12x8","rows":8,"cols":12,"port":"jtag"}`))...)
	for _, r := range recs {
		img = append(img, fuzzRecord(r.tp, []byte(r.payload))...)
	}
	return img
}

// What a seqFallbackCases image must do.
const (
	asEager   = iota // replay exactly as replayEager does
	replays          // replay where replayEager fails: the recorded decision
	malformed        // fail with ErrMalformed
)

const (
	corruptPost = `{"seq":1,"state":{"next_alloc":` // passes its CRC, not JSON
	twoSeqPost  = `{"seq":1,"seq":7,"state":{"seq":1}}`
)

// seqFallbackCases are the payloads the leading read declines or accepts
// without decoding. Their images are also seeds of FuzzJournalScan, under
// testdata/fuzz/FuzzJournalScan/seq-*.
var seqFallbackCases = []struct {
	name string
	recs []rawRec
	want int
}{
	{"seq-not-first", []rawRec{
		{RecBegin, `{"op":"load","seq":1}`},
		{RecUndo, `{"addr":{"Major":1,"Minor":2},"words":[7],"seq":1}`},
		{RecPost, `{"state":{"seq":1,"next_alloc":4},"seq":1}`},
		{RecCommit, `{"x":0,"seq":1}`},
		{RecBegin, `{"design":"b01","seq":2}`},
		{RecUndo, `{"words":[1],"seq":2,"addr":{"Major":3,"Minor":0}}`},
		{RecPost, `{"dirty":[],"seq":2,"state":{"seq":2}}`},
	}, asEager},
	{"seq-upper-case", []rawRec{
		{RecBegin, `{"SEQ":1,"op":"load"}`},
		{RecPost, `{"Seq":1,"state":{"seq":1,"next_alloc":4}}`},
		{RecCommit, `{"SEQ":1}`},
		{RecBegin, `{"Seq":2}`},
		{RecUndo, `{"sEq":2,"addr":{"Major":1,"Minor":1},"words":[3]}`},
	}, asEager},
	{"seq-leading-zero", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecUndo, `{"seq":01,"addr":{"Major":1,"Minor":1},"words":[]}`},
		{RecPost, `{"seq":1,"state":{"seq":1}}`},
		{RecCommit, `{"seq":1}`},
		{RecBegin, `{"seq":2}`},
		{RecPost, `{"seq":2,"state":{"seq":2}}`},
		{RecCommit, `{"seq":2}`},
	}, malformed},
	{"seq-exponent", []rawRec{
		{RecBegin, `{"seq":1e0,"op":"load"}`},
		{RecPost, `{"seq":1,"state":{"seq":1}}`},
		{RecCommit, `{"seq":1}`},
		{RecBegin, `{"seq":2}`},
		{RecPost, `{"seq":2,"state":{"seq":2}}`},
		{RecCommit, `{"seq":2}`},
	}, malformed},
	{"seq-20-digit-overflow", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecAbort, `{"seq":18446744073709551617}`},
		{RecBegin, `{"seq":2}`},
		{RecPost, `{"seq":2,"state":{"seq":2}}`},
		{RecCommit, `{"seq":2}`},
	}, malformed},
	{"seq-non-object", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecUndo, `[1,2,3]`},
		{RecAbort, `{"seq":1}`},
	}, malformed},
	{"seq-corrupt-superseded-post", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecPost, corruptPost},
		{RecCommit, `{"seq":1}`},
		{RecBegin, `{"seq":2}`},
		{RecPost, `{"seq":2,"state":{"seq":2,"next_alloc":3}}`},
		{RecCommit, `{"seq":2}`},
	}, replays},
	{"seq-two-seq-superseded-post", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecPost, twoSeqPost},
		{RecCommit, `{"seq":1}`},
		{RecBegin, `{"seq":2}`},
		{RecPost, `{"seq":2,"state":{"seq":2,"next_alloc":3}}`},
		{RecCommit, `{"seq":2}`},
	}, replays},
	{"seq-corrupt-committed-post", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecPost, corruptPost},
		{RecCommit, `{"seq":1}`},
	}, malformed},
	{"seq-two-seq-committed-post", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecPost, twoSeqPost},
		{RecCommit, `{"seq":1}`},
	}, malformed},
	{"seq-corrupt-tail-post", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecPost, corruptPost},
	}, malformed},
	{"seq-two-seq-tail-begin", []rawRec{
		{RecBegin, `{"seq":1}`},
		{RecPost, `{"seq":1,"state":{"seq":1}}`},
		{RecCommit, `{"seq":1}`},
		{RecBegin, `{"seq":2,"seq":9}`},
	}, malformed},
}

// TestRecordSeqFallback covers the payloads the leading read declines, and
// the recorded decision: a sealed, superseded record's payload is covered by
// its CRC-32 alone, while the same bytes where recovery decodes them fail.
func TestRecordSeqFallback(t *testing.T) {
	for _, tc := range seqFallbackCases {
		log, err := ScanBytes(rawImage(tc.recs))
		if err != nil {
			t.Fatalf("%s: scan: %v", tc.name, err)
		}
		got, err := Replay(log)
		_, eagerErr := replayEager(log)
		switch tc.want {
		case asEager:
			if !sameReplay(t, tc.name, log) {
				t.Errorf("%s: Replay error %v, eager replay error %v; want both to replay", tc.name, err, eagerErr)
			}
		case replays:
			if err != nil || got.State.Seq != 2 || got.State.NextAlloc != 3 || got.Tail != nil {
				t.Errorf("%s: Replay = %+v, %v; want op 2's state", tc.name, got, err)
			}
			if !errors.Is(eagerErr, ErrMalformed) {
				t.Errorf("%s: eager replay error %v, want ErrMalformed", tc.name, eagerErr)
			}
		case malformed:
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: Replay error %v, want ErrMalformed", tc.name, err)
			}
		}
	}
}
