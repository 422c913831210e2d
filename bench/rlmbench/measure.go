package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minP90Samples is the sample count below which a p90 is refused: with
// fewer than 100 samples fewer than ten lie beyond the 90th percentile.
const minP90Samples = 100

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample such that at least p% of the samples are <= it. It
// refuses — returns an error naming the count — when xs holds fewer than
// minN samples.
func percentile(xs []float64, p float64, minN int) (float64, error) {
	if minN < 1 {
		minN = 1
	}
	if len(xs) < minN {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", p, minN, len(xs))
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

func median(xs []float64) float64 {
	v, err := percentile(xs, 50, 1)
	if err != nil {
		return 0
	}
	return v
}

// span is one traced call into a layer. Times are nanoseconds since the
// traced run started; Parent is 0 for a root span and Op groups the spans
// that serve one request (a task, a round, a recovery).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the single client goroutine; a nil
// tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices of open spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; op 0 inherits the enclosing span's op.
func (t *tracer) begin(name string, op int64) int {
	if t == nil {
		return -1
	}
	sp := span{Name: name, ID: int64(len(t.spans) + 1), Op: op, Start: time.Since(t.t0).Nanoseconds()}
	if n := len(t.stack); n > 0 {
		parent := t.spans[t.stack[n-1]]
		sp.Parent = parent.ID
		if op == 0 {
			sp.Op = parent.Op
		}
	}
	t.spans = append(t.spans, sp)
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// recorder measures the timed calls of one run: host latency per call, the
// timed wall time behind ops_per_s, heap allocation per call and the live
// heap peak. Input generation, fault injection and audits run outside its
// timed regions.
type recorder struct {
	lat   []float64     // ms, every timed call
	names []string      // span name of each timed call
	wall  time.Duration // timed wall time (calls, regions, final drain)

	calls, failed, refused int
	// units holds each work unit's statistics; markCalls and markWall are
	// the totals when the current unit began.
	units     []unitStat
	markCalls int
	markWall  time.Duration

	allocBytes uint64
	live       []float64 // MiB of live heap after the latest GC, sampled after each call
	heapPeak   uint64

	// inRegion marks a timed region (sched.Run) whose own wall time is
	// counted once; untimed holds the untimed work done inside it.
	inRegion bool
	untimedD time.Duration

	tr      *tracer
	samples []metrics.Sample
}

// unitStat is one work unit: its calls are lat[first:first+calls].
type unitStat struct {
	first, calls int
	wall         time.Duration
	// speed is the host-speed factor measured right after the unit (see
	// hostSpeed); 0 until that measurement.
	speed float64
}

const (
	mAllocs = "/gc/heap/allocs:bytes"
	mLive   = "/gc/heap/live:bytes"
)

func newRecorder(traced bool) *recorder {
	r := &recorder{samples: []metrics.Sample{{Name: mAllocs}, {Name: mLive}}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *recorder) readMem() (allocs, live uint64) {
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Uint64()
}

// call times one call into a layer and records it under name. An error
// counts the call as failed; a workload that verifies the call was a clean
// refusal reclassifies it with refusal.
func (r *recorder) call(name string, op int64, fn func() error) error {
	a0, _ := r.readMem()
	sp := r.tr.begin(name, op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(sp)
	a1, live := r.readMem()
	ms := float64(d.Nanoseconds()) / 1e6
	r.lat, r.names = append(r.lat, ms), append(r.names, name)
	if !r.inRegion {
		r.wall += d
	}
	r.calls++
	if err != nil {
		r.failed++
	}
	r.allocBytes += a1 - a0
	r.live = append(r.live, float64(live)/(1<<20))
	if live > r.heapPeak {
		r.heapPeak = live
	}
	return err
}

// refusal reclassifies the last failed call as a refusal: the layer said
// no and the workload verified that it rolled back to its pre-call state.
func (r *recorder) refusal() {
	r.failed--
	r.refused++
}

// region times fn as part of the timed wall time, minus any untimed work
// inside it; the timed calls fn makes still record their own latencies.
func (r *recorder) region(name string, op int64, fn func()) {
	sp := r.tr.begin(name, op)
	r.inRegion, r.untimedD = true, 0
	t0 := time.Now()
	fn()
	r.wall += time.Since(t0) - r.untimedD
	r.inRegion = false
	r.tr.end(sp)
}

// untimed runs input generation or an audit inside a timed region without
// counting it.
func (r *recorder) untimed(name string, fn func()) {
	sp := r.tr.begin(name, 0)
	t0 := time.Now()
	fn()
	r.untimedD += time.Since(t0)
	r.tr.end(sp)
}

// span wraps a call that is timed only as part of its enclosing region.
func (r *recorder) span(name string, op int64, fn func()) {
	sp := r.tr.begin(name, op)
	fn()
	r.tr.end(sp)
}

// endUnit closes the current work unit's record.
func (r *recorder) endUnit() {
	r.units = append(r.units, unitStat{first: r.markCalls, calls: r.calls - r.markCalls, wall: r.wall - r.markWall})
	r.markCalls, r.markWall = r.calls, r.wall
}

// setSpeed gives a host-speed measurement to every unit since the last
// one.
func (r *recorder) setSpeed(f float64) {
	for i := len(r.units) - 1; i >= 0 && r.units[i].speed == 0; i-- {
		r.units[i].speed = f
	}
}

// The figures below are in reference time: each unit's host time divided
// by the host-speed factor measured right after it.

// throughput is the timed calls per reference second of timed wall time,
// pooled over the units. A pooled rate, not a median of the units' rates:
// on task-stream the units' rates differ by a factor of two with the mix of
// slow moves and quick unloads in each stream, and a median picked one
// unit's rate, which moved by 0.2 between runs of the same inputs.
func (r *recorder) throughput() float64 {
	calls, ref := 0, 0.0
	for _, u := range r.units {
		if u.speed > 0 {
			calls += u.calls
			ref += u.wall.Seconds() / u.speed
		}
	}
	if ref <= 0 {
		return 0
	}
	return float64(calls) / ref
}

// latencies is the host latency of every call recorded under name, in ms.
func (r *recorder) latencies(name string) []float64 {
	var out []float64
	for k, n := range r.names {
		if n == name {
			out = append(out, r.lat[k])
		}
	}
	return out
}

// refLatencies is the latency of every call recorded under name, in
// reference milliseconds.
func (r *recorder) refLatencies(name string) []float64 {
	var out []float64
	for _, u := range r.units {
		for k := u.first; k < u.first+u.calls; k++ {
			if r.names[k] == name {
				out = append(out, r.lat[k]/u.speed)
			}
		}
	}
	return out
}

// drain times the final wait for the background configuration stream: it
// counts towards the last unit's timed wall time but is not a call.
func (r *recorder) drain(fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.wall += d
	if n := len(r.units); n > 0 {
		r.units[n-1].wall += d
	}
	return err
}
