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

// hostModules are the modules whose share of host CPU time is reported as
// host.<module>_frac. Samples whose leaf is in any other package of the
// program (tpcb, pagestore, recno, vfs, ...) or of this benchmark count as
// host.other_frac.
var hostModules = []string{"sim", "btree", "lock", "wal", "buffer", "disk", "lfs", "ffs", "libtp", "core", "mvcc", "trace", "runtime"}

// foldProfile adds the CPU time of a runtime/pprof profile to byModule,
// keyed by the module of each sample's leaf frame. The runtime's frames
// (allocation, GC, goroutine switches) are "runtime". Other
// standard-library leaves (bytes, sort, encoding/binary, hash/crc32, ...)
// are helpers, charged to the nearest caller inside the program.
func foldProfile(gz []byte, byModule map[string]float64) error {
	p, err := parseProfile(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		mod := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				m, decided := moduleOf(p.funcName[fn])
				if decided {
					mod = m
					break frames
				}
			}
		}
		byModule[mod] += s.value
	}
	return nil
}

// hostShares turns folded CPU time into host.<module>_frac shares, which
// sum to 1.
func hostShares(byModule map[string]float64) map[string]float64 {
	var total float64
	for _, v := range byModule {
		total += v
	}
	out := map[string]float64{}
	for _, m := range append(hostModules, "other") {
		out["host."+m+"_frac"] = byModule[m] / max(total, 1)
	}
	return out
}

// moduleOf maps a function name to its module. decided is false for a
// standard-library helper, whose time goes to its caller.
func moduleOf(fn string) (mod string, decided bool) {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		mod = rest[:strings.IndexAny(rest+".", "./")]
		for _, m := range hostModules {
			if m == mod {
				return mod, true
			}
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime", true
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/") {
		return "other", true
	}
	if !strings.Contains(fn, ".") {
		return "runtime", true // assembly entry points such as aeshashbody
	}
	return "", false
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	value float64  // CPU nanoseconds
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes
// (github.com/google/pprof profile.proto), reading only samples,
// locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	var valueIdx int = -1
	var sampleTypes int
	var rawSamples [][2][]uint64
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: {type, unit} string indexes
			sampleTypes++
			valueIdx = sampleTypes - 1 // the last type is CPU nanoseconds
		case 2: // sample
			var locs, vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, [2][]uint64{locs, vals})
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcNameIdx {
		if si < uint64(len(strs)) {
			p.funcName[id] = strs[si]
		}
	}
	for _, s := range rawSamples {
		if valueIdx < 0 || valueIdx >= len(s[1]) {
			return nil, errors.New("sample without a CPU value")
		}
		p.samples = append(p.samples, sample{locs: s[0], value: float64(s[1][valueIdx])})
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked (v) or
// packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (nil for
// varints). Fixed-width fields are skipped.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short protobuf fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("short protobuf fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}
