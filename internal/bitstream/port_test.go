package bitstream

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamQueueAwait: Await returns only once the worker has finished the
// burst it is delivering, returns that burst's error, and consumes it, so
// the next Await starts clean.
func TestStreamQueueAwait(t *testing.T) {
	errBurst := errors.New("burst failed")
	started, release := make(chan struct{}), make(chan struct{})
	var delivered atomic.Bool
	q := StreamQueue{Deliver: func([]uint32) error {
		close(started)
		<-release
		delivered.Store(true)
		return errBurst
	}}
	if err := q.Await(); err != nil { // idle queue: returns at once
		t.Fatalf("Await on an idle queue = %v, want nil", err)
	}
	q.Enqueue([]uint32{SyncWord})
	<-started
	awaited := make(chan error)
	go func() { awaited <- q.Await() }()
	select {
	case <-awaited:
		t.Fatal("Await returned while the worker was still delivering")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-awaited; !errors.Is(err, errBurst) {
		t.Fatalf("Await = %v, want the burst's error", err)
	}
	if !delivered.Load() || q.Completed() != 1 {
		t.Fatalf("after Await: delivered=%v completed=%d", delivered.Load(), q.Completed())
	}
	if err := q.Await(); err != nil {
		t.Fatalf("second Await = %v, want nil", err)
	}
}
