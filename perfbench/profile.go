package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// On the live cluster a traced instance runs n node goroutines and their
// connection readers on a few CPUs, so a goroutine's wall time is mostly
// waiting: blocked at its round barrier, or runnable but descheduled. Its
// layers are therefore measured by CPU instead. The traced executions run
// under a profiler label, which the goroutines they start inherit, and a
// runtime/pprof CPU profile of the traced run bills each labelled sample to
// the module of the innermost repository frame on its stack. Frame reads in
// the transport's reader goroutines count toward transport that way, which
// no wrapper of the transport interface can see.

// profLabel marks the goroutines of the traced executions.
const profLabel = "perfbench"

// labelled runs f with the traced-execution profiler label set.
func labelled(f func()) {
	pprof.Do(context.Background(), pprof.Labels(profLabel, "traced"), func(context.Context) { f() })
}

// cpuProfile is a CPU profile in progress.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the labelled CPU seconds per module.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return moduleCPU(p.buf.Bytes())
}

// moduleOf names the module a profiled function belongs to:
// "ccba/internal/transport.(*TCPEndpoint).readLoop" is "transport",
// "ccba/internal/crypto/vrf.Eval" is "crypto/vrf", "ccba.Run" is "ccba",
// and the benchmark's own wrappers are "perfbench". Functions outside the
// repository (the Go runtime and standard library) return "".
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	case strings.HasPrefix(fn, "ccba."):
		return "ccba"
	case !strings.HasPrefix(fn, "ccba/"):
		return ""
	}
	path := strings.TrimPrefix(strings.TrimPrefix(fn, "ccba/"), "internal/")
	slash := strings.LastIndexByte(path, '/')
	if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
		path = path[:slash+1+dot]
	}
	return path
}

// moduleCPU decodes a gzipped profile.proto CPU profile and sums the CPU
// seconds of the samples labelled profLabel by the module of each sample's
// innermost repository frame; samples with none count as "runtime".
func moduleCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		locs   []uint64
		ns     int64
		labels []int64 // label key string indices
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s sample
			var vals []int64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				case 3:
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							s.labels = append(s.labels, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			if len(vals) > 0 {
				// A CPU profile's values are (samples, nanoseconds).
				s.ns = vals[len(vals)-1]
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined call
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}

	out := map[string]float64{}
	for _, s := range samples {
		if !slices.ContainsFunc(s.labels, func(k int64) bool { return str(k) == profLabel }) {
			continue
		}
		mod := "runtime"
	stack:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if m := moduleOf(str(funcs[fn])); m != "" {
					mod = m
					break stack
				}
			}
		}
		out[mod] += float64(s.ns) / 1e9
	}
	return out, nil
}

// fields calls f for each field of a protobuf message: its number, its
// varint value (wire type 0), or its bytes (wire type 2). Fixed-width
// fields are skipped.
func fields(b []byte, f func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("short fixed-width field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated integer field, which the encoder writes either
// as one varint per field (data nil) or packed into one length-delimited
// field.
func varints(v uint64, data []byte, f func(uint64)) error {
	if data == nil {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		data = data[n:]
	}
	return nil
}
