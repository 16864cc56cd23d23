// Package layers attributes the CPU samples of a Go pprof profile to the
// repository's layers (the packages under repro/internal, the mixpd
// command, and the garbage collector).
//
// A sample's self time goes to the innermost frame that belongs to a
// layer, so standard-library and runtime work (maps, allocation, math)
// counts against the layer that called it. A sample whose stack passes
// through the garbage collector's entry points goes to the "gc" layer
// instead. Inclusive ("cum") time for a named function is the time of
// every sample whose stack contains it.
//
// The decoder reads only the fields of profile.proto that attribution
// needs: samples, locations, functions and the string table.
package layers

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// GC is the layer name for garbage-collector work.
const GC = "gc"

// gcFrames are the runtime entry points under which the collector works:
// background mark workers, mutator assists, background sweeping and
// scavenging, and the stop-the-world phases.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.deductSweepCredit": true,
	"runtime.GC":                true,
}

// Profile is a decoded CPU profile: one stack of function names (leaf
// first, inlined frames expanded) and one CPU-nanosecond value per
// sample.
type Profile struct {
	Stacks [][]string
	Nanos  []int64
}

// Attribution is a profile's CPU time split by layer.
type Attribution struct {
	// Self maps layer name to nanoseconds of self time.
	Self map[string]int64
	// Cum maps each requested function name to the nanoseconds of the
	// samples whose stacks contain it.
	Cum map[string]int64
	// Total is the CPU time of every sample.
	Total int64
}

// Layer returns the layer a function name belongs to, or "" for code
// outside every layer. mainLayer names the layer of package main ("" to
// leave main unattributed).
func Layer(fn, mainLayer string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") {
		return mainLayer
	}
	return ""
}

// Attribute splits p's CPU time by layer. cum lists the functions whose
// inclusive time is wanted.
func Attribute(p *Profile, mainLayer string, cum []string) Attribution {
	a := Attribution{Self: map[string]int64{}, Cum: map[string]int64{}}
	for i, stack := range p.Stacks {
		ns := p.Nanos[i]
		a.Total += ns
		layer := ""
		for _, fn := range stack {
			if gcFrames[fn] {
				layer = GC
				break
			}
		}
		if layer == "" {
			for _, fn := range stack {
				if l := Layer(fn, mainLayer); l != "" {
					layer = l
					break
				}
			}
		}
		if layer != "" {
			a.Self[layer] += ns
		}
		for _, want := range cum {
			for _, fn := range stack {
				if fn == want {
					a.Cum[want] += ns
					break
				}
			}
		}
	}
	return a
}

// Decode parses a (possibly gzip-compressed) pprof CPU profile. The
// sample value used is the one whose type is "cpu"; a profile without it
// is an error.
func Decode(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples     []sample
		sampleTypes []int64 // string index of each value's type
		locLines    = map[uint64][]uint64{}
		funcNames   = map[uint64]int64{}
		strs        []string
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("layers: profile has no cpu sample type")
	}
	name := func(fid uint64) string {
		if s := funcNames[fid]; s >= 0 && int(s) < len(strs) {
			return strs[s]
		}
		return ""
	}
	p := &Profile{}
	for _, s := range samples {
		if cpu >= len(s.vals) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locLines[l] {
				stack = append(stack, name(f))
			}
		}
		p.Stacks = append(p.Stacks, stack)
		p.Nanos = append(p.Nanos, s.vals[cpu])
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("layers: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("layers: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("layers: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("layers: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("layers: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("layers: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field's values, packed or not.
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("layers: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
