package bitstream

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamQueueFence: Fence returns only once the worker has finished the
// burst it is delivering, and leaves that burst's error for the next Await
// to harvest.
func TestStreamQueueFence(t *testing.T) {
	errBurst := errors.New("burst failed")
	started, release := make(chan struct{}), make(chan struct{})
	var delivered atomic.Bool
	q := StreamQueue{Deliver: func([]uint32) error {
		close(started)
		<-release
		delivered.Store(true)
		return errBurst
	}}
	q.Fence() // idle queue: returns at once
	q.Enqueue([]uint32{SyncWord})
	<-started
	fenced := make(chan struct{})
	go func() {
		q.Fence()
		close(fenced)
	}()
	select {
	case <-fenced:
		t.Fatal("Fence returned while the worker was still delivering")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-fenced
	if !delivered.Load() || q.InFlight() {
		t.Fatalf("after Fence: delivered=%v in flight=%v", delivered.Load(), q.InFlight())
	}
	if err := q.Await(); !errors.Is(err, errBurst) {
		t.Fatalf("Await after Fence = %v, want the burst's error", err)
	}
	if err := q.Await(); err != nil {
		t.Fatalf("second Await = %v, want nil", err)
	}
}
