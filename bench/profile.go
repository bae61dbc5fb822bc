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

// layers are the packages under internal/ that get a CPU share. Samples
// outside all of them are charged to runtime_gc (the collector's own
// goroutines) or other (the benchmark, the scheduler, the runner).
var layers = []string{"ids", "simnet", "pastry", "metadata", "dissem", "aggtree", "agg",
	"relq", "histogram", "predictor", "avail", "anemone", "coords", "obs", "core"}

const internalPrefix = "repro/internal/"

// stackSample is one distinct stack of a CPU profile: function names
// innermost first, how many times the profiler saw it, and the CPU
// nanoseconds those sightings stand for.
type stackSample struct {
	frames []string
	count  int64
	ns     int64
}

// layerOf names the bucket a sample is charged to: the innermost frame
// under repro/internal/<layer>, so an allocation or a map access made by
// pastry is pastry's cost. A stack with no such frame is the garbage
// collector's when it runs on one of the collector's goroutines.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		rest := fn[len(internalPrefix):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
	}
	for _, fn := range frames {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime_gc"
		}
	}
	return "other"
}

// cpuShares charges every sample to one bucket and returns each bucket's
// share of the total (they sum to 1 by construction), the number of
// samples and the CPU nanoseconds they stand for.
func cpuShares(samples []stackSample) (shares map[string]float64, count, totalNS int64) {
	byLayer := make(map[string]int64)
	for _, s := range samples {
		byLayer[layerOf(s.frames)] += s.ns
		count += s.count
		totalNS += s.ns
	}
	shares = make(map[string]float64)
	for _, l := range append(append([]string(nil), layers...), "runtime_gc", "other") {
		if totalNS > 0 {
			shares[l] = float64(byLayer[l]) / float64(totalNS)
		} else {
			shares[l] = 0
		}
	}
	return shares, count, totalNS
}

// parseProfile decodes a gzip-compressed pprof CPU profile, as
// runtime/pprof writes it, into stack samples. It reads only what the
// attribution needs: samples, locations (with inlined lines), function
// names and the string table. It stands in for parsing the text of
// `go tool pprof -traces`, without starting a process.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]uint64{}   // function id -> string index
		strs       []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
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
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.vals) == 0 {
			continue
		}
		s := stackSample{count: rs.vals[0], ns: rs.vals[len(rs.vals)-1]} // CPU profiles: [samples, cpu ns]
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.frames = append(s.frames, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive in v,
// length-delimited ones in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: the packed
// bytes in b when the field arrived length-delimited, else the single v.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
