package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
)

// cpuModules are the layers the traced run attributes CPU self time to,
// each named by its package; runtime covers the Go runtime (scheduler,
// allocator and GC). Samples in any other package count as "other".
var cpuModules = []string{
	"sim", "fabric", "topology", "cci", "memdev", "coherence", "profiler", "collective",
	"core", "paramserver", "train", "parallel", "serve", "chaos", "runtime",
}

// moduleOf maps a fully qualified Go function name to its layer. ok is
// false for standard-library code outside the runtime, whose time
// belongs to the calling layer: container/heap under the event queue,
// for one.
func moduleOf(fn string) (module string, ok bool) {
	// The package path ends at the first '.' after the last '/'.
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	case strings.HasPrefix(pkg, "coarse/internal/"):
		name := strings.TrimPrefix(pkg, "coarse/internal/")
		for _, m := range cpuModules {
			if name == m {
				return m, true
			}
		}
		return "other", true
	case pkg == "main" || pkg == "coarse" || strings.HasPrefix(pkg, "coarse/"):
		return "other", true
	}
	return "", false
}

// kernelFunc is the speed kernel's qualified name as profiles show it:
// main.speedKernel in the benchmark, its import path in the self-test.
var kernelFunc = runtime.FuncForPC(reflect.ValueOf(speedKernel).Pointer()).Name()

// cpuByLayer parses a gzipped pprof CPU profile, as runtime/pprof
// writes it, and adds each layer's sampled CPU nanoseconds to into. A
// sample goes to the innermost frame that moduleOf places (self time,
// with library code charged to its caller), or to "other" when none
// does. It reads only the fields it needs from the profile.proto wire
// format. Samples taken in the speed kernel are dropped.
func cpuByLayer(gz []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64 // leaf first
		value int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = append(locs, varints(v, b)...)
				case 2:
					for _, x := range varints(v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// Values are [samples/count, cpu/nanoseconds].
			if len(vals) > 0 {
				samples = append(samples, sample{locs: locs, value: vals[len(vals)-1]})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
			return strs[idx]
		}
		return ""
	}
	layer := func(s sample) string {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if m, ok := moduleOf(name(fn)); ok {
					return m
				}
			}
		}
		return "other"
	}
	// The speed kernel between cells is the benchmark's own work, not
	// the program's: its samples count for no layer.
	inKernel := func(s sample) bool {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if strings.HasPrefix(name(fn), kernelFunc) {
					return true
				}
			}
		}
		return false
	}
	for _, s := range samples {
		if !inKernel(s) {
			into[layer(s)] += float64(s.value)
		}
	}
	return nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field occurrence: a single value
// (b == nil) or a packed run.
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
