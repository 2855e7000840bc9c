package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerShares charges every sample of a gzipped pprof CPU profile to the
// layer of the innermost repository frame on its stack (see hostLayers)
// and returns each layer's share of the sampled CPU time, in percent. An
// empty profile yields all-zero shares.
func layerShares(gz []byte) (map[string]float64, error) {
	shares := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		shares[l] = 0
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var total float64
	for _, s := range p.samples {
		layer := "gc"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				name := ""
				if idx := p.functions[fn]; idx >= 0 && int(idx) < len(p.strings) {
					name = p.strings[idx]
				}
				if l := layerOf(name); l != "" {
					layer = l
					break stack
				}
			}
		}
		shares[layer] += s.value
		total += s.value
	}
	if total > 0 {
		for l := range shares {
			shares[l] = 100 * shares[l] / total
		}
	}
	return shares, nil
}

// layerOf maps a profiled function name to its layer, or "" for code
// outside the repository (the runtime, the standard library).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/cmd/tsoper-bench.") {
		return "bench"
	}
	const internal = "repro/internal/"
	if !strings.HasPrefix(fn, internal) {
		return ""
	}
	rest := fn[len(internal):]
	if end := strings.IndexAny(rest, "/."); end >= 0 {
		rest = rest[:end]
	}
	for _, l := range hostLayers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// pprofProfile is the part of a profile.proto message attribution needs.
type pprofProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	functions map[uint64]int64    // function id -> name index into strings
	strings   []string
}

type pprofSample struct {
	locations []uint64 // leaf first
	value     float64  // CPU nanoseconds (or the sample count)
}

// decodeProfile parses an uncompressed profile.proto message: only the
// fields attribution reads are kept, the rest are skipped.
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			var values []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locations, v, d)
				case 2:
					return appendPacked(&values, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				// CPU profiles carry [samples/count, cpu/nanoseconds].
				s.value = float64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
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
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks a protobuf message, handing each field's number with its
// varint value (wire type 0) or its bytes (wire type 2) to fn. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value) or packed (a run of varints in data).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 if b ends
// inside it).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
