package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file is a minimal decoder for the gzipped protobuf profiles
// runtime/pprof writes (profile.proto), reading only what self-time
// attribution needs: sample types, samples, locations, functions and the
// string table. It keeps the bench free of module dependencies.

// cpuProfile is CPU self time attributed to modules.
type cpuProfile struct {
	seconds map[string]float64 // module -> self CPU seconds
	total   float64
	// routeHeap and nodeDelay are the router hot spots the ROADMAP names:
	// the priority queue, and the per-expansion node lookups.
	routeHeap, nodeDelay float64
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []pbSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> name string index
	strs        []string
}

// parseProfile decodes a CPU profile and attributes each sample's CPU time
// to the module of its leaf function (the innermost inlined frame).
func parseProfile(data []byte) (*cpuProfile, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" {
			vi = i
		}
	}
	out := &cpuProfile{seconds: map[string]float64{}}
	if vi < 0 {
		if len(p.samples) > 0 {
			return nil, errors.New("profile has no cpu sample type")
		}
		return out, nil
	}
	for _, s := range p.samples {
		if vi >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		fn := ""
		if fids := p.locFuncs[s.locs[0]]; len(fids) > 0 {
			fn = p.str(p.funcNames[fids[0]])
		}
		out.seconds[moduleOf(fn)] += sec
		out.total += sec
		switch {
		case isRouteHeap(fn):
			out.routeHeap += sec
		case isNodeDelay(fn):
			out.nodeDelay += sec
		}
	}
	return out, nil
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// moduleOf maps a fully qualified Go function name to its cpuModules
// bucket.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments of a generic instantiation may hold paths
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "repro":
		return "rlm"
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.Index(mod, "/"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range cpuModules {
			if m == mod {
				return mod
			}
		}
		return "other"
	case pkg == "main":
		return "bench"
	case pkg == "encoding/json":
		return "json"
	case pkg == "syscall", pkg == "os", pkg == "internal/poll", strings.HasPrefix(pkg, "internal/syscall/"),
		pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"),
		fn != "" && !strings.Contains(fn, "."): // assembly routines such as aeshashbody
		return "runtime"
	}
	return "other"
}

func isRouteHeap(fn string) bool {
	return strings.HasPrefix(fn, "repro/internal/route.") &&
		(strings.HasSuffix(fn, ".(*pq).pop") || strings.HasSuffix(fn, ".(*pq).push") || strings.HasSuffix(fn, ".pqLess"))
}

func isNodeDelay(fn string) bool {
	switch fn {
	case "repro/internal/route.nodeDelay", "repro/internal/route.(*Router).tileOf",
		"repro/internal/fabric.(*Device).FanoutOf", "repro/internal/fabric.(*Device).PadOfNode":
		return true
	}
	return false
}

// decodeProfile reads the profile.proto fields attribution needs.
func decodeProfile(data []byte) (*pbProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := forFields(data, func(field int, wire int, v uint64, b []byte) error {
		var err error
		switch field {
		case 1: // sample_type: ValueType{type, unit}
			var vt [2]int64
			err = forFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
		case 2: // sample: location_id (1), value (2)
			var s pbSample
			err = forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
		case 4: // location: id (1), line (4) = Line{function_id (1)}
			var id uint64
			var fids []uint64
			err = forFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
		case 5: // function: id (1), name (2)
			var id uint64
			var name int64
			err = forFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	return p, nil
}

// forFields walks the fields of one protobuf message, handing varint
// values in v and length-delimited payloads in b.
func forFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// varint (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
