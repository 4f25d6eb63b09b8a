package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// This file attributes CPU and allocation samples to the program's
// layers from outside the program: it decodes the gzipped profile.proto
// documents runtime/pprof writes and buckets every sample by the
// innermost frame that names a layer.

// buckets maps a layer name to its summed sample value.
type buckets map[string]float64

func (b buckets) total() float64 {
	t := 0.0
	for _, v := range b {
		t += v
	}
	return t
}

func (b buckets) share(layer string) float64 {
	if t := b.total(); t > 0 {
		return b[layer] / t
	}
	return 0
}

// layerOf names the layer a stack (innermost frame first) is charged
// to: the innermost frame of the repro module, or of the benchmark
// itself. Garbage collection gets its own bucket wherever it runs;
// net/http and encoding/json outside any such frame (server and
// transport goroutines) are charged to the service layer.
func layerOf(stack []string) string {
	wire := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "gc"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "repro/"), strings.HasPrefix(fn, "repro."):
			return moduleOf(fn)
		case strings.HasPrefix(fn, "main."):
			return "bench"
		case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "encoding/json."):
			wire = true
		}
	}
	if wire {
		return "service"
	}
	return "other"
}

// moduleOf maps a function of the repro module to its layer.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i] // type arguments and receivers may contain slashes
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "repro":
		return "tapejoin"
	case "repro/internal/device/filedev", "repro/internal/device/ioengine", "repro/internal/device/faultfile":
		return "device"
	case "repro/internal/device/simdev":
		return "simdev"
	case "repro/internal/obs/obsserver":
		return "obs"
	}
	pkg = strings.TrimPrefix(pkg, "repro/internal/")
	if i := strings.Index(pkg, "/"); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns CPU nanoseconds per layer.
func (p *cpuProfile) stop() (buckets, error) {
	pprof.StopCPUProfile()
	return bucketProfile(p.buf.Bytes(), "cpu")
}

// allocSnapshot returns allocated objects per layer since the program
// started, as of a forced collection.
func allocSnapshot() (buckets, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return bucketProfile(buf.Bytes(), "alloc_objects")
}

func (b buckets) minus(base buckets) buckets {
	out := buckets{}
	for k, v := range b {
		if d := v - base[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// bucketProfile sums the named sample value of a gzipped profile.proto
// document per layer.
func bucketProfile(gz []byte, valueType string) (buckets, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile: no %q sample type", valueType)
	}
	out := buckets{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				stack = append(stack, p.str(p.funcs[fid]))
			}
		}
		if idx < len(s.values) {
			out[layerOf(stack)] += float64(s.values[idx])
		}
	}
	return out, nil
}

// profile is the part of profile.proto the bucketing needs.
type profile struct {
	sampleTypes []uint64 // string index of each value's type
	samples     []sample
	locs        map[uint64][]uint64 // location → function IDs, innermost first
	funcs       map[uint64]uint64   // function → string index of its name
	strings     []string
}

type sample struct {
	locs   []uint64 // innermost first
	values []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

var errProto = errors.New("profile: malformed protobuf")

// field is one decoded protobuf field: a varint or a length-delimited
// payload.
type field struct {
	num   uint64
	wire  uint64
	value uint64
	data  []byte
}

func fields(b []byte, visit func(f field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := field{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			f.value, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// ints appends a repeated integer field, packed or not.
func ints(f field, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	err := fields(b, func(f field) error {
		switch f.num {
		case 1: // sample_type
			return fields(f.data, func(g field) error {
				if g.num == 1 {
					p.sampleTypes = append(p.sampleTypes, g.value)
				}
				return nil
			})
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(f.data, func(g field) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = ints(g, s.locs)
				case 2:
					vals, err = ints(g, vals)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.value
				case 4: // line
					return fields(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
