package bitstream

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
)

// Port is the configuration interface of the device, and the one contract
// every port in the repository implements: it delivers partial bitstreams,
// in the background or in the foreground, performs readback, and charges the
// transport time it consumes to its meter. The paper uses the Boundary-Scan
// port (internal/jtag implements it); a SelectMAP-style parallel port is
// provided here for the interface-comparison ablation, and internal/faultport
// wraps either with fault injection.
//
// StreamUpdates enqueues a coalesced burst and returns while the stream is
// still shifting out; AwaitStream blocks until every queued burst has been
// delivered and harvests any transport error. The transport time of a burst
// is accounted deterministically at enqueue time (the cycle count is a pure
// function of the stream length), so Elapsed reads the same value at every
// point of the program regardless of how far the background shift has
// progressed — pipelined and serial runs produce identical cycle accounting.
//
// The contract the run-time manager builds its commit pipeline on:
//
//   - bursts are delivered strictly in enqueue order (one background worker);
//   - while any burst is in flight the caller must not touch the port or its
//     configuration controller through another path (WriteUpdates and
//     ReadFrame await internally; a caller feeding the controller directly
//     awaits first);
//   - every frame of an in-flight burst must hold, on the device, exactly the
//     content being streamed (write-through staging guarantees this), so the
//     delivery degenerates to reads of the configuration memory and is
//     invisible to concurrently running host-side planning.
type Port interface {
	// WriteUpdates delivers frame updates as a partial bitstream before it
	// returns.
	WriteUpdates(updates []FrameUpdate) error
	// ReadFrame reads one frame back through the port.
	ReadFrame(addr fabric.FrameAddr) ([]uint32, error)
	// StreamUpdates enqueues a burst for background delivery, accounting
	// its transport time immediately.
	StreamUpdates(updates []FrameUpdate)
	// AwaitStream blocks until the queue is drained and returns the first
	// error any queued burst produced (the error is consumed: a later
	// AwaitStream starts clean).
	AwaitStream() error
	// CompletedBursts returns the number of bursts fully delivered since
	// the port was built. Callers use it to retire frames from their
	// in-flight tracking without a blocking await.
	CompletedBursts() uint64
	// Meter returns the port's per-class cost ledger.
	Meter() *Meter
	// SetCompress switches delta/MFWR stream encoding on or off.
	SetCompress(on bool)
	// Elapsed returns the cumulative foreground transport time in seconds.
	Elapsed() float64
	// Name identifies the port type for reports.
	Name() string
}

// AsyncPort is the former name of the streaming half of Port, kept as an
// alias because rlmbench (bench/, its own module) still names it.
type AsyncPort = Port

// StreamQueue is the shared background-delivery engine behind the ports'
// StreamUpdates: a FIFO of word bursts drained by one lazily started
// worker goroutine that exits whenever the queue empties, so an idle port
// holds no goroutine. Deliver is called once per burst, in order, from the
// worker; its error is sticky until the next Await.
type StreamQueue struct {
	// Deliver ships one burst; set once before first use.
	Deliver func(words []uint32) error

	mu        sync.Mutex
	cond      *sync.Cond
	queue     [][]uint32
	running   bool
	completed uint64
	err       error
}

func (q *StreamQueue) init() {
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
	}
}

// Enqueue queues one burst and starts the worker if it is not running.
func (q *StreamQueue) Enqueue(words []uint32) {
	q.mu.Lock()
	q.init()
	q.queue = append(q.queue, words)
	if !q.running {
		q.running = true
		go q.drain()
	}
	q.mu.Unlock()
}

func (q *StreamQueue) drain() {
	q.mu.Lock()
	for len(q.queue) > 0 {
		burst := q.queue[0]
		q.queue = q.queue[1:]
		q.mu.Unlock()
		err := q.Deliver(burst)
		q.mu.Lock()
		q.completed++
		if err != nil && q.err == nil {
			q.err = err
		}
	}
	q.running = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Await blocks until the queue is drained and the worker parked, then
// returns and clears the sticky error.
func (q *StreamQueue) Await() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.init()
	for q.running {
		q.cond.Wait()
	}
	err := q.err
	q.err = nil
	return err
}

// Completed returns the number of bursts fully delivered so far.
func (q *StreamQueue) Completed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.completed
}

// ParallelPort models a SelectMAP-style parallel configuration port:
// WidthBits data pins per clock (8 by default — one byte per clock, so a
// 32-bit word takes four clocks; 16 and 32 model the wider SelectMAP
// variants). Bursts can shift out in the background while the host computes,
// with the clock cost accounted at enqueue time.
type ParallelPort struct {
	Ctrl *Controller
	// WidthBits is the data-port width in bits: 8, 16 or 32 (0 means 8).
	// Set it before any traffic flows; the per-word clock cost is 32/width.
	WidthBits int
	meter     Meter
	compress  bool
	q         StreamQueue
}

// NewParallelPort attaches a SelectMAP-style port to a controller.
func NewParallelPort(ctrl *Controller, clockHz float64) *ParallelPort {
	p := &ParallelPort{Ctrl: ctrl, meter: Meter{Hz: clockHz}}
	p.q.Deliver = func(words []uint32) error {
		ctrl.SetRedelivery(true)
		defer ctrl.SetRedelivery(false)
		return ctrl.Feed(words...)
	}
	return p
}

// cyclesPerWord is the clock cost of one 32-bit word at the configured port
// width.
func (p *ParallelPort) cyclesPerWord() uint64 {
	w := p.WidthBits
	if w == 0 {
		w = 8
	}
	return uint64(32 / w)
}

// WriteUpdates implements Port (synchronous delivery; any queued background
// stream drains first so the controller sees bursts in order).
func (p *ParallelPort) WriteUpdates(updates []FrameUpdate) error {
	if err := p.AwaitStream(); err != nil {
		return err
	}
	words := EncodeStream(p.Ctrl.Device(), p.compress, updates, p.meter.Traffic())
	if len(words) == 0 {
		return nil // every frame was an identical rewrite: nothing to ship
	}
	p.meter.Charge(p.cyclesPerWord() * uint64(len(words)))
	return p.Ctrl.Feed(words...)
}

// StreamUpdates implements Port: the burst's clock cost lands on the
// port immediately (it is a pure function of the stream length), the words
// ship from a background worker. A fully elided burst (compression skipped
// every frame) still enqueues — zero words, zero cycles — so callers'
// CompletedBursts book-keeping stays in lockstep.
func (p *ParallelPort) StreamUpdates(updates []FrameUpdate) {
	words := EncodeStream(p.Ctrl.Device(), p.compress, updates, p.meter.Traffic())
	p.meter.Charge(p.cyclesPerWord() * uint64(len(words)))
	p.q.Enqueue(words)
}

// AwaitStream implements Port.
func (p *ParallelPort) AwaitStream() error { return p.q.Await() }

// CompletedBursts implements Port.
func (p *ParallelPort) CompletedBursts() uint64 { return p.q.Completed() }

// ReadFrame implements Port.
func (p *ParallelPort) ReadFrame(addr fabric.FrameAddr) ([]uint32, error) {
	if err := p.AwaitStream(); err != nil {
		return nil, err
	}
	req := ReadFramesRequest(p.Ctrl.Device().FrameWords(), FAR{Major: addr.Major, Minor: addr.Minor}, 1)
	out, err := p.Ctrl.ExecRead(req)
	if err != nil {
		return nil, err
	}
	p.meter.Charge(p.cyclesPerWord() * uint64(len(req)+len(out)))
	if len(out) != p.Ctrl.Device().FrameWords() {
		return nil, fmt.Errorf("bitstream: readback returned %d words", len(out))
	}
	return out, nil
}

// Elapsed implements Port (foreground traffic only).
func (p *ParallelPort) Elapsed() float64 { return p.meter.Seconds(Foreground) }

// Name implements Port.
func (p *ParallelPort) Name() string { return "SelectMAP" }

// Cycles returns the foreground clock cycle count.
func (p *ParallelPort) Cycles() uint64 { return p.meter.Usage(Foreground).Cycles }

// Meter implements Port.
func (p *ParallelPort) Meter() *Meter { return &p.meter }

// SetCompress implements Port.
func (p *ParallelPort) SetCompress(on bool) { p.compress = on }

var _ Port = (*ParallelPort)(nil)
