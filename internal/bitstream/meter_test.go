package bitstream_test

import (
	"fmt"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/faultport"
	"repro/internal/jtag"
)

// meteredPort is every capability the meter property exercises; both stock
// ports have all of them, bare or wrapped in faultport.
type meteredPort interface {
	bitstream.AsyncPort
	bitstream.Metered
	bitstream.CompressPort
	Cycles() uint64
}

// meterStep is one operation of the fixed traffic mix, charged to class.
type meterStep struct {
	class bitstream.Class
	op    func(p meteredPort, dev *fabric.Device) error
}

// update builds a write of frame (major, minor) whose content differs from
// its Prev baseline in a few words, so compressed ports ship deltas.
func update(dev *fabric.Device, major, minor int, fill uint32) bitstream.FrameUpdate {
	fw := dev.FrameWords()
	prev := make([]uint32, fw)
	data := make([]uint32, fw)
	for i := range data {
		prev[i] = uint32(major<<16 | minor<<8 | i)
		data[i] = prev[i]
	}
	data[1] ^= fill
	data[fw-2] ^= fill << 4
	return bitstream.FrameUpdate{Addr: fabric.FrameAddr{Major: major, Minor: minor}, Data: data, Prev: prev}
}

func stream(frames ...[3]int) func(meteredPort, *fabric.Device) error {
	return func(p meteredPort, dev *fabric.Device) error {
		var ups []bitstream.FrameUpdate
		for _, f := range frames {
			ups = append(ups, update(dev, f[0], f[1], uint32(f[2])))
		}
		p.StreamUpdates(ups)
		return nil
	}
}

func write(major, minor int, fill uint32) func(meteredPort, *fabric.Device) error {
	return func(p meteredPort, dev *fabric.Device) error {
		return p.WriteUpdates([]bitstream.FrameUpdate{update(dev, major, minor, fill)})
	}
}

func read(major, minor int) func(meteredPort, *fabric.Device) error {
	return func(p meteredPort, _ *fabric.Device) error {
		_, err := p.ReadFrame(fabric.FrameAddr{Major: major, Minor: minor})
		return err
	}
}

// meterMix is the fixed traffic mix: streamed bursts, synchronous writes and
// readbacks, interleaved across every class.
var meterMix = []meterStep{
	{bitstream.Foreground, stream([3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{1, 2, 3})},
	{bitstream.Retry, write(0, 0, 1)},
	{bitstream.Retry, read(0, 0)},
	{bitstream.Foreground, write(1, 0, 2)},
	{bitstream.Scrub, read(1, 0)},
	{bitstream.Scrub, write(1, 0, 5)},
	{bitstream.Foreground, stream([3]int{2, 0, 7})},
	{bitstream.Probe, write(2, 1, 0xff)},
	{bitstream.Probe, read(2, 1)},
	{bitstream.Recovery, read(0, 1)},
	{bitstream.Recovery, write(0, 1, 9)},
	{bitstream.Foreground, read(2, 0)},
	{bitstream.Foreground, stream([3]int{1, 1, 4}, [3]int{1, 2, 4})},
}

// runMix builds a fresh port and runs the steps of mix that keep(step)
// selects; with switched set, each step runs under its own class, otherwise
// everything is charged to Foreground.
func runMix(t *testing.T, build func(*bitstream.Controller) meteredPort, compress, switched bool, keep func(meterStep) bool) meteredPort {
	t.Helper()
	dev := fabric.NewDevice(fabric.TestDevice)
	p := build(bitstream.NewController(dev))
	p.SetCompress(compress)
	for i, step := range meterMix {
		if !keep(step) {
			continue
		}
		class := bitstream.Foreground
		if switched {
			class = step.class
		}
		prev := p.Meter().SetClass(class)
		err := step.op(p, dev)
		p.Meter().SetClass(prev)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := p.AwaitStream(); err != nil {
		t.Fatal(err)
	}
	return p
}

func sumUsage(us []bitstream.Usage) bitstream.Usage {
	var s bitstream.Usage
	for _, u := range us {
		s.Cycles += u.Cycles
		s.WordsShifted += u.WordsShifted
		s.FullWords += u.FullWords
		s.FramesDelivered += u.FramesDelivered
	}
	return s
}

// TestMeterClassesPartitionTraffic runs one fixed traffic mix over every
// stock transport variant: switching classes step by step moves no cycle or
// word out of the ledger and counts none twice (the classes sum to the
// all-Foreground run), and the Foreground class is exactly what a twin that
// ran only the foreground steps charged — the property the run-time
// manager's twin tests rely on. The port's Cycles, Traffic and Elapsed read
// the Foreground class.
func TestMeterClassesPartitionTraffic(t *testing.T) {
	transports := []struct {
		name  string
		build func(*bitstream.Controller) meteredPort
	}{
		{"boundary-scan", func(c *bitstream.Controller) meteredPort { return jtag.NewPort(c, jtag.DefaultTCKHz) }},
		{"selectmap8", func(c *bitstream.Controller) meteredPort { return bitstream.NewParallelPort(c, 50e6) }},
		{"selectmap32", func(c *bitstream.Controller) meteredPort {
			p := bitstream.NewParallelPort(c, 50e6)
			p.WidthBits = 32
			return p
		}},
	}
	for _, tr := range transports {
		for _, compress := range []bool{false, true} {
			for _, wrapped := range []bool{false, true} {
				build := tr.build
				if wrapped {
					build = func(c *bitstream.Controller) meteredPort {
						return faultport.New(tr.build(c).(faultport.Inner), 1)
					}
				}
				name := fmt.Sprintf("%s/compress=%v/faultport=%v", tr.name, compress, wrapped)
				t.Run(name, func(t *testing.T) {
					all := func(meterStep) bool { return true }
					switched := runMix(t, build, compress, true, all).Meter()
					flat := runMix(t, build, compress, false, all)
					twin := runMix(t, build, compress, true, func(s meterStep) bool { return s.class == bitstream.Foreground })

					if got, want := switched.Usage(bitstream.Foreground), twin.Meter().Usage(bitstream.Foreground); got != want {
						t.Fatalf("switched Foreground = %+v, foreground-only twin = %+v", got, want)
					}
					if got, want := sumUsage(switched.Usages()), flat.Meter().Usage(bitstream.Foreground); got != want {
						t.Fatalf("classes sum to %+v, all-Foreground run = %+v", got, want)
					}
					for c := bitstream.Retry; c <= bitstream.Recovery; c++ {
						if switched.Usage(c).Cycles == 0 {
							t.Fatalf("class %d charged nothing", c)
						}
						if u := flat.Meter().Usage(c); u != (bitstream.Usage{}) {
							t.Fatalf("all-Foreground run charged class %d: %+v", c, u)
						}
					}
					fg := flat.Meter().Usage(bitstream.Foreground)
					if flat.Cycles() != fg.Cycles || flat.Traffic() != fg.Traffic || flat.Elapsed() != flat.Meter().Seconds(bitstream.Foreground) {
						t.Fatalf("Cycles/Traffic/Elapsed = %d/%+v/%v, Foreground = %+v", flat.Cycles(), flat.Traffic(), flat.Elapsed(), fg)
					}
				})
			}
		}
	}
}
