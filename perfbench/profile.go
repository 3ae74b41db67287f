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

// profile.go attributes a runtime/pprof CPU profile to the simulator's
// packages. It decodes just enough of the profile.proto wire format —
// samples, locations, functions and the string table — to sum each
// sample's count under the package of its innermost frame.

// profilePackages are the packages whose CPU shares the traced run
// reports; every other frame counts as "other".
var profilePackages = []string{
	"db", "numa", "sched", "deque", "elastic", "petrinet", "tenant",
	"workload", "cluster", "obs", "tpch", "hashmix", "runtime", "fmt",
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "elasticore/internal/"

// packageOf maps a symbol name such as
// "elasticore/internal/db.(*Engine).Submit" to its reported package:
// the simulator package's last path element, "runtime" for the Go
// runtime, "fmt", or "other".
func packageOf(symbol string) string {
	path := symbol
	slash := strings.LastIndex(path, "/")
	if dot := strings.Index(path[slash+1:], "."); dot >= 0 {
		path = path[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(path, modulePrefix):
		name := strings.TrimPrefix(path, modulePrefix)
		for _, p := range profilePackages {
			if p == name {
				return p
			}
		}
	case path == "runtime", strings.HasPrefix(path, "runtime/"), strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	case path == "fmt":
		return "fmt"
	}
	return "other"
}

// samplesByPackage decodes a (possibly gzipped) CPU profile and sums the
// first sample value — the sample count — by the package of each
// sample's innermost frame. It returns the per-package sums and the
// total.
func samplesByPackage(data []byte) (map[string]int64, int64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		leaf  uint64 // innermost location id
		count int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
		stringTab []string
	)
	err := walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			first := true
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // Sample.location_id, leaf first
					ids, err := repeatedVarints(v, b)
					if err != nil {
						return err
					}
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // Sample.value
					vals, err := repeatedVarints(v, b)
					if err != nil {
						return err
					}
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id, fn uint64
			gotLine := false
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line; the first is the innermost (inlined) frame
					if gotLine {
						return nil
					}
					gotLine = true
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			stringTab = append(stringTab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		pkg := "other"
		if fn, ok := locFunc[s.leaf]; ok {
			if idx, ok := funcName[fn]; ok && idx >= 0 && idx < int64(len(stringTab)) {
				pkg = packageOf(stringTab[idx])
			}
		}
		out[pkg] += s.count
		total += s.count
	}
	return out, total, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of one protobuf message: the field
// number and, by wire type, the varint value (type 0) or the payload
// bytes (type 2). Fixed-width fields are skipped.
func walkFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeatedVarints returns a repeated varint field's values: the single
// value of an unpacked occurrence, or every value of a packed payload.
func repeatedVarints(v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		payload = payload[n:]
	}
	return out, nil
}
