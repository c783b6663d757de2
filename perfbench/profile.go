package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one function frame of a profile sample.
type frame struct{ fn, file string }

// sample is one profile sample: its frames innermost first (inlined frames
// included, in call order) and the CPU nanoseconds it stands for.
type sample struct {
	frames []frame
	ns     int64
}

// modulePrefix marks the simulator's packages in symbolized frame names.
const modulePrefix = "repro/internal/"

// tsimFiles splits the timing simulator by the file that holds each
// receiver (core, l2Ctl, llcSlice, mcCtl) together with the package-level
// callbacks and helper types that serve it.
var tsimFiles = map[string]string{
	"core.go":  "tsim.core",
	"l2.go":    "tsim.l2",
	"llc.go":   "tsim.llc",
	"mcctl.go": "tsim.mc",
}

// layers is the fixed layer set, in report order: every simulator package,
// the tsim split, the Go runtime, and "other" for stacks with neither.
var layers = []string{
	"sim", "cache", "tsim.core", "tsim.l2", "tsim.llc", "tsim.mc", "tsim",
	"fsim", "mc", "ctr", "emcc", "dram", "noc", "stats", "workload",
	"addr", "config", "crypto", "inv", "itree", "metrics", "obs", "prefetch",
	"runtime", "other",
}

// layerOf folds a stack to its layer: the package of the innermost
// simulator frame, the tsim file split applied. Stacks without a simulator
// frame belong to "runtime" when every frame is the Go runtime's (GC,
// scheduler), else to "other" (the benchmark itself, the profiler).
func layerOf(frames []frame) string {
	for _, f := range frames {
		if !strings.HasPrefix(f.fn, modulePrefix) {
			continue
		}
		pkg := strings.TrimPrefix(f.fn, modulePrefix)
		pkg = pkg[:strings.IndexByte(pkg+".", '.')]
		if pkg == "tsim" {
			if l, ok := tsimFiles[path.Base(f.file)]; ok {
				return l
			}
		}
		if !known(pkg) {
			return "other"
		}
		return pkg
	}
	for _, f := range frames {
		if !isRuntime(f.fn) {
			return "other"
		}
	}
	return "runtime"
}

func known(layer string) bool {
	for _, l := range layers {
		if l == layer {
			return true
		}
	}
	return false
}

func isRuntime(fn string) bool {
	for _, p := range []string{"runtime.", "runtime/internal/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// fold sums the samples' CPU time per layer.
func fold(samples []sample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[layerOf(s.frames)] += s.ns
	}
	return out
}

// parseCPUProfile decodes a gzipped pprof protobuf CPU profile, as
// runtime/pprof writes it, into samples. It reads only the fields the fold
// needs: sample types, samples, locations with their lines, functions and
// the string table.
func parseCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		types   [][2]uint64 // (type, unit) string indices
		samples []rawSample
		locs    = map[uint64][]uint64{}  // location id -> function ids, innermost first
		funcs   = map[uint64][2]uint64{} // function id -> (name, filename)
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, data []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, v, data)
				case 2:
					s.vals, err = appendVarints(s.vals, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f [2]uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f[0] = v
				case 4:
					f[1] = v
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if cpu >= len(rs.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: int64(rs.vals[cpu])}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				s.frames = append(s.frames, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn for every field with its
// number and either its varint value (data == nil) or its bytes (a
// message, a string or packed varints). Fixed-width fields are skipped:
// the profile fields read here never use them.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5: // fixed32
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's value: v when it came
// unpacked (data == nil), else every varint packed in data.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, v)
		data = data[n:]
	}
	return dst, nil
}
