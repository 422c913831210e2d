package journal

import (
	"encoding/json"
	"fmt"
)

// replayEager is Replay as it was before it learned to skip sealed,
// superseded payloads, kept verbatim as the reference for
// TestReplayMatchesEager: it decodes every record of the history.
func replayEager(log *Log) (*Replayed, error) {
	if log == nil || len(log.Records) == 0 {
		return nil, ErrEmpty
	}
	out := &Replayed{Torn: log.Torn, ValidLen: log.ValidLen}
	if log.Records[0].Type != RecInit {
		return nil, fmt.Errorf("%w: first record is %v, want init", ErrMalformed, log.Records[0].Type)
	}
	if err := json.Unmarshal(log.Records[0].Payload, &out.Init); err != nil {
		return nil, fmt.Errorf("%w: init: %v", ErrMalformed, err)
	}
	var tail *TailOp
	for i, rec := range log.Records[1:] {
		switch rec.Type {
		case RecInit:
			return nil, fmt.Errorf("%w: duplicate init at record %d", ErrMalformed, i+1)
		case RecBegin:
			if tail != nil {
				return nil, fmt.Errorf("%w: begin inside open op %d", ErrMalformed, tail.Begin.Seq)
			}
			tail = &TailOp{}
			if err := json.Unmarshal(rec.Payload, &tail.Begin); err != nil {
				return nil, fmt.Errorf("%w: begin: %v", ErrMalformed, err)
			}
			if tail.Begin.Seq > out.LastSeq {
				out.LastSeq = tail.Begin.Seq
			}
		case RecUndo:
			if tail == nil {
				return nil, fmt.Errorf("%w: undo outside op body", ErrMalformed)
			}
			var u Undo
			if err := json.Unmarshal(rec.Payload, &u); err != nil {
				return nil, fmt.Errorf("%w: undo: %v", ErrMalformed, err)
			}
			if u.Seq != tail.Begin.Seq {
				return nil, fmt.Errorf("%w: undo seq %d inside op %d", ErrMalformed, u.Seq, tail.Begin.Seq)
			}
			tail.Undo = append(tail.Undo, u)
		case RecPost:
			if tail == nil {
				return nil, fmt.Errorf("%w: post outside op body", ErrMalformed)
			}
			var p Post
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return nil, fmt.Errorf("%w: post: %v", ErrMalformed, err)
			}
			if p.Seq != tail.Begin.Seq {
				return nil, fmt.Errorf("%w: post seq %d inside op %d", ErrMalformed, p.Seq, tail.Begin.Seq)
			}
			tail.Post = &p
		case RecCommit, RecAbort:
			if tail == nil {
				return nil, fmt.Errorf("%w: %v with no open op", ErrMalformed, rec.Type)
			}
			var s Seal
			if err := json.Unmarshal(rec.Payload, &s); err != nil {
				return nil, fmt.Errorf("%w: %v: %v", ErrMalformed, rec.Type, err)
			}
			if s.Seq != tail.Begin.Seq {
				return nil, fmt.Errorf("%w: %v seq %d seals op %d", ErrMalformed, rec.Type, s.Seq, tail.Begin.Seq)
			}
			if rec.Type == RecCommit {
				if tail.Post == nil {
					return nil, fmt.Errorf("%w: commit of op %d without post state", ErrMalformed, s.Seq)
				}
				out.State = tail.Post.State
			}
			tail = nil
		default:
			return nil, fmt.Errorf("%w: unknown record type %v", ErrMalformed, rec.Type)
		}
	}
	out.Tail = tail
	return out, nil
}
