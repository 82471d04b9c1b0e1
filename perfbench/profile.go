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

// The traced run attributes host CPU time to the repository's layers
// from a runtime/pprof CPU profile. The profile is a gzipped protocol
// buffer (github.com/google/pprof's profile.proto); the few fields
// attribution needs are decoded here so the benchmark stays stdlib-only.

// stack is one profile sample: its CPU nanoseconds and the function
// names on its stack, innermost first (inlined frames included).
type stack struct {
	funcs []string
	ns    int64
}

// layers are the packages under metaleak/internal that the per-layer
// metrics name. A sample whose innermost metaleak/internal frame is in
// another package is charged to "other"; a sample with no metaleak
// frame at all (GC workers, the scheduler, the benchmark's own loop) is
// charged to "runtime".
var layers = []string{
	"crypto", "ctr", "itree", "cache", "mirage", "dram", "secmem", "sim", "machine", "arch",
	"core", "victim", "jpeg", "mpi", "reconstruct",
	"experiments", "runner", "hunt", "contract", "trace", "stats",
}

const internalPrefix = "metaleak/internal/"

// layerOf names the layer a function belongs to, or "" when it is not
// in metaleak/internal.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// selfByLayer charges each sample exactly once: to the layer of the
// innermost metaleak/internal frame on its stack, so runtime work
// (allocation, map access, memmove) counts to the layer that asked for
// it, and to "runtime" when the stack has no such frame. The returned
// values sum to the returned total.
func selfByLayer(samples []stack) (map[string]int64, int64) {
	self := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.ns
		layer := "runtime"
		for _, fn := range s.funcs {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		self[layer] += s.ns
	}
	return self, total
}

// cumulative sums, for each named function, the samples whose stack
// holds it at least once.
func cumulative(samples []stack, funcs []string) map[string]int64 {
	want := map[string]bool{}
	for _, f := range funcs {
		want[f] = true
	}
	cum := map[string]int64{}
	for _, s := range samples {
		seen := map[string]bool{}
		for _, fn := range s.funcs {
			if want[fn] && !seen[fn] {
				seen[fn] = true
				cum[fn] += s.ns
			}
		}
	}
	return cum
}

// parseCPUProfile decodes a runtime/pprof CPU profile into its samples.
func parseCPUProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []sample
		sampleTypes []int64 // string-table index of each value's type
		locFuncs    = map[uint64][]uint64{}
		funcNames   = map[uint64]int64{}
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id, line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
		return nil, fmt.Errorf("profile: %w", err)
	}

	valueIdx := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	name := func(fid uint64) string {
		if i, ok := funcNames[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		st := stack{ns: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				st.funcs = append(st.funcs, name(fid))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
