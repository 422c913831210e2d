package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and other tenants slow it in
// two ways. They contend for caches and memory, which slows memory-heavy
// code by a third or more for a minute or more at a time. And the
// hypervisor steals CPU time, at times half of it, which stretches every
// wall-clock interval. Either moves a run's host latencies by as much.
// hostSpeed measures both while the workload runs, between units, and the
// host-time end-to-end metrics are divided by the result: they read in
// reference milliseconds, the time the call would take on the quiet host.
//
// Contention is measured by a fixed reference kernel: its on-CPU time (the
// thread's CPU clock, which leaves out stolen time) over its nominal time.
// Of the kernels tried, a hash-table, binary-heap and sort mix tracks the
// workloads' own slowdown best (a hash kernel alone and pointer chasing
// track it worse). Stealing is read from /proc/stat: the share of the
// machine's busy CPU time the hypervisor took since the last measurement.
// Dividing by one minus that share takes the stolen time back out of the
// workload's wall time; where /proc/stat is unreadable the share is 0.
//
// The kernel uses no repository code, so it does not speed up with a
// change under test, and it keeps its memory outside the Go heap, so it
// neither adds to the live heap nor shifts the workloads' garbage
// collection.

const (
	speedSlots = 1 << 19 // hash-table slots, each a (key, value) pair: 4 MiB
	speedKeys  = 100000
	// speedNominal is the kernel's time on the quiet 2-core host the
	// bounds were validated on.
	speedNominal = 22 * time.Millisecond
	// speedEvery is how stale a measurement may get before a unit
	// boundary takes a new one.
	speedEvery = time.Second
	// maxStolen caps the stolen share a factor corrects for.
	maxStolen = 0.9
)

type hostSpeed struct {
	mem     []byte   // off-heap: an anonymous mapping
	words   []uint32 // mem as words
	last    time.Time
	stat    cpuStat   // /proc/stat at the last measurement
	samples []float64 // every factor measured
}

func newHostSpeed() (*hostSpeed, error) {
	mem, err := syscall.Mmap(-1, 0, (2*speedSlots+2*speedKeys)*4,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host-speed kernel's memory: %w", err)
	}
	words := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), len(mem)/4)
	return &hostSpeed{mem: mem, words: words, stat: readCPUStat()}, nil
}

func (h *hostSpeed) close() { _ = syscall.Munmap(h.mem) }

// stale reports whether the last measurement is older than speedEvery.
func (h *hostSpeed) stale() bool { return h.last.IsZero() || time.Since(h.last) >= speedEvery }

// measure runs the kernel once and returns the host-speed factor, above 1
// when the host is slower than the quiet host: the kernel's on-CPU time
// over speedNominal, divided by the share of CPU time the hypervisor left
// the machine since the last measurement.
func (h *hostSpeed) measure() float64 {
	runtime.LockOSThread()
	c0 := threadCPU()
	h.kernel()
	cpu := threadCPU() - c0
	runtime.UnlockOSThread()
	st := readCPUStat()
	stolen := 0.0
	if busy := st.busy - h.stat.busy; busy > 0 {
		stolen = min(max((st.steal-h.stat.steal)/busy, 0), maxStolen)
	}
	h.stat = st
	f := float64(cpu) / float64(speedNominal) / (1 - stolen)
	h.last = time.Now()
	h.samples = append(h.samples, f)
	return f
}

// threadCPU is the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuStat is the machine's CPU time in /proc/stat ticks: busy (neither
// idle nor waiting for I/O), and the part of it the hypervisor stole.
type cpuStat struct{ busy, steal float64 }

// readCPUStat reads the aggregate cpu line of /proc/stat; it returns zeros
// where that is unreadable.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	return parseCPUStat(string(data))
}

func parseCPUStat(data string) cpuStat {
	line, _, _ := strings.Cut(data, "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	var st cpuStat
	for i, field := range fields[1:9] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return cpuStat{}
		}
		if i != 3 && i != 4 {
			st.busy += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// kernel inserts seeded keys into an open-addressing hash table, pushes
// them all onto a binary heap and pops them off again, and sorts a copy.
func (h *hostSpeed) kernel() {
	table := h.words[:2*speedSlots]
	heap := h.words[2*speedSlots : 2*speedSlots+speedKeys]
	keys := h.words[2*speedSlots+speedKeys:]
	clear(table)
	rng := newRNG(7)
	for i := range keys {
		k := uint32(rng.next()%1000000) + 1
		for s := uint32(uint64(k) * 0x9e3779b97f4a7c15 >> 45); ; s++ {
			slot := 2 * (s & (speedSlots - 1))
			if table[slot] == 0 || table[slot] == k {
				table[slot] = k
				table[slot+1] += uint32(i)
				break
			}
		}
		heap[i] = k
		for c := i; c > 0 && heap[(c-1)/2] > heap[c]; c = (c - 1) / 2 {
			heap[(c-1)/2], heap[c] = heap[c], heap[(c-1)/2]
		}
		keys[i] = k
	}
	for n := len(heap) - 1; n > 0; n-- {
		heap[0] = heap[n]
		for p := 0; ; {
			c := 2*p + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1] < heap[c] {
				c++
			}
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			p = c
		}
	}
	slices.Sort(keys)
}
