package main

import (
	"encoding/binary"
	"math"
	"os"
	"testing"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/route.(*Router).searchOne":       "route",
		"repro/internal/route.(*Router).searchOne.func3": "route",
		"repro/internal/relocate.(*Engine).plan":         "relocate",
		"repro.(*System).Move":                           "rlm",
		"repro.Recover":                                  "rlm",
		"encoding/json.(*decodeState).object":            "json",
		"syscall.Syscall6":                               "syscall",
		"internal/runtime/syscall.Syscall6":              "syscall",
		"os.(*File).Write":                               "syscall",
		"runtime.memclrNoHeapPointers":                   "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2":        "runtime",
		"aeshashbody":                                    "runtime",
		"main.(*recorder).call":                          "bench",
		"sort.Slice":                                     "other",
		"slices.pdqsortCmpFunc[go.shape.struct { Addr repro/internal/fabric.FrameAddr }]": "other",
		"": "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for hand-built profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(field, p)
}

// A hand-built profile: the router's heap pop with pqLess inlined into it
// (packed sample fields), and a JSON decode sample (unpacked fields).
func TestParseProfileHandBuilt(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/route.pqLess", "repro/internal/route.(*pq).pop", "encoding/json.(*decodeState).object"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	p = p.bytes(2, pb{}.packed(1, 1).packed(2, 3, 30e6))
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 10e6))
	// Location 1: pqLess inlined into pop, innermost line first.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 1)).bytes(4, pb{}.varint(1, 2)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 3)))
	for id, name := range []uint64{5, 6, 7} {
		p = p.bytes(5, pb{}.varint(1, uint64(id+1)).varint(2, name))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	cpu, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.seconds["route"] != 0.03 || cpu.seconds["json"] != 0.01 || cpu.routeHeap != 0.03 || math.Abs(cpu.total-0.04) > 1e-12 {
		t.Fatalf("attribution %+v", cpu)
	}
}

// The checked-in profile is a short traced tab2-relocate run: every sample
// lands in exactly one module, so the shares sum to one, and the router
// dominates as the ROADMAP's profile says.
func TestParseProfileCheckedIn(t *testing.T) {
	data, err := os.ReadFile("../testdata/tab2-relocate.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.total <= 0 {
		t.Fatal("no CPU time in the profile")
	}
	sum := 0.0
	for mod, s := range cpu.seconds {
		found := false
		for _, m := range cpuModules {
			found = found || m == mod
		}
		if !found {
			t.Errorf("time attributed to %q, which is not a reported module", mod)
		}
		sum += s / cpu.total
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("module shares sum to %v", sum)
	}
	if share := cpu.seconds["route"] / cpu.total; share < 0.5 {
		t.Errorf("route share %.2f, want the router to dominate", share)
	}
	if cpu.routeHeap <= 0 || cpu.routeHeap > cpu.seconds["route"] {
		t.Errorf("route heap %.3fs outside (0, route %.3fs]", cpu.routeHeap, cpu.seconds["route"])
	}
}
