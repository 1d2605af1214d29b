package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof profile format (gzipped protobuf, see
// github.com/google/pprof/proto/profile.proto): just enough to recover
// each sample's count and its stack of function names, innermost first.

// stackSample is one CPU-profile sample: its weight and its frames,
// innermost first, inlined frames included.
type stackSample struct {
	count  int64
	frames []string
}

// parseProfile decodes a gzipped CPU profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample []struct{ locs, vals []uint64 }
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			rawSample = append(rawSample, struct{ locs, vals []uint64 }{locs, vals})
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, s := range rawSample {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{count: int64(s.vals[0])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					ss.frames = append(ss.frames, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, handing each field's number and
// either its varint value or its length-delimited bytes to fn.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (v) or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "github.com/disc-mining/disc/"

// dataModelPkg is the shared sequence data model. Its frames are handed
// to their caller: time in seq belongs to whichever layer asked for it.
const dataModelPkg = "internal/seq"

// framePackage returns the module-relative package path of a function
// symbol such as "github.com/disc-mining/disc/internal/core.(*engine).run",
// or "" when the function is outside the module's packages.
func framePackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	// The module's package paths hold no dots, while the symbol after
	// the path may (and generic type arguments may hold slashes).
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return ""
	}
	return rest[:dot]
}

// cpuShares charges each sample to the innermost frame in a module
// package other than internal/seq, keyed by the package's last path
// element; samples with no such frame (garbage collection, scheduler)
// go to "gc". It also returns the cumulative share of every function in
// cumulative: the share of samples with that function anywhere on the
// stack. Shares are fractions of all samples.
func cpuShares(samples []stackSample, cumulative ...string) (flat, cum map[string]float64, total int64) {
	flat, cum = map[string]float64{}, map[string]float64{}
	for _, s := range samples {
		total += s.count
	}
	if total == 0 {
		return flat, cum, 0
	}
	for _, s := range samples {
		w := float64(s.count) / float64(total)
		owner := "gc"
		for _, f := range s.frames {
			if p := framePackage(f); p != "" && p != dataModelPkg {
				owner = p[strings.LastIndexByte(p, '/')+1:]
				break
			}
		}
		flat[owner] += w
		for _, c := range cumulative {
			for _, f := range s.frames {
				if f == c {
					cum[c] += w
					break
				}
			}
		}
	}
	return flat, cum, total
}
