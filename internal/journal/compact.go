package journal

import (
	"errors"
	"fmt"
	"os"
)

// ErrUnsealed: the journal ends in an open (unsealed) operation tail;
// compaction refuses to collapse history that recovery still needs to
// reconcile against the device.
var ErrUnsealed = errors.New("journal: unsealed tail")

// Compact rewrites a sealed journal in place, collapsing its full operation
// history into the minimum equivalent record stream: the Init record, plus —
// when anything ever committed — one synthetic sealed operation carrying the
// last committed state. Replay of the compacted file yields the same State
// and LastSeq as the original, so appenders resume sequence numbering
// unchanged and rlm.Recover behaves identically.
//
// Compaction refuses a torn file (ErrTorn, wrapped) and a file whose last
// operation is unsealed (ErrUnsealed): both still carry information only
// recovery may consume. It reads the file in PrepareFile's one pass, so it
// holds only the records it decodes. The rewrite goes through a temporary
// sibling file and an atomic rename, so a crash mid-compaction leaves
// either the old or the new journal intact, never a mix.
//
// Returns the compacted file's length in bytes.
func Compact(path string) (int64, error) {
	p, err := PrepareFile(path)
	if err != nil {
		return 0, err
	}
	if p.torn {
		return 0, fmt.Errorf("%w: refusing to compact", ErrTorn)
	}
	rs, err := p.Decode()
	if err != nil {
		return 0, err
	}
	if rs.Tail != nil {
		return 0, fmt.Errorf("%w: op %d (%s); recover before compacting",
			ErrUnsealed, rs.Tail.Begin.Seq, rs.Tail.Begin.Op)
	}
	tmp := path + ".compact"
	_ = os.Remove(tmp)
	j, err := create(tmp)
	if err != nil {
		return 0, err
	}
	if err := j.Append(RecInit, rs.Init); err != nil {
		j.Close()
		return 0, err
	}
	if rs.LastSeq > 0 {
		// One synthetic sealed operation re-asserts the durable state under
		// the original's highest sequence number. When the last ops all
		// aborted, State.Seq stays below LastSeq — exactly as Replay of the
		// original reported it.
		seal := Begin{
			Seq: rs.LastSeq, Op: "compact",
			Detail: fmt.Sprintf("collapsed %d records", p.records),
		}
		if err := j.Append(RecBegin, seal); err != nil {
			j.Close()
			return 0, err
		}
		if err := j.Append(RecPost, Post{Seq: rs.LastSeq, State: rs.State}); err != nil {
			j.Close()
			return 0, err
		}
		if err := j.Append(RecCommit, Seal{Seq: rs.LastSeq}); err != nil {
			j.Close()
			return 0, err
		}
	}
	if err := j.Sync(); err != nil {
		j.Close()
		return 0, err
	}
	n := j.Offset()
	if err := j.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return n, nil
}

// create opens a fresh journal file unconditionally (Compact's temporary
// file; the public Create refuses to truncate existing history).
func create(path string) (*Journal, error) {
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
