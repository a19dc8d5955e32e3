package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// The traced run's CPU profile, folded by package into layers.
//
// runtime/pprof writes a gzip'd profile.proto. Only four of its
// messages matter here — samples, locations, functions and the string
// table — so a small varint reader replaces a protobuf dependency.
//
// Each sample is charged to exactly one bucket, so the shares sum to
// 100%. The bucket is the layer of the sample's leaf-most frame inside
// this module; runtime and standard-library frames above it (malloc,
// memmove, math) count as that layer's own cost. Four buckets split a
// layer or the runtime by what the frames do:
//
//   - runtime.gc: any frame of the garbage collector (background mark
//     workers, assists, sweeping, write barriers);
//   - sim.handoff: runtime channel, park and scheduler frames whose
//     nearest module frame is in internal/sim — the goroutine hand-off
//     between simulated processes;
//   - telemetry.flight: the always-on flight recorder
//     (telemetry.FlightRecorder and the session's flightWatch);
//   - hostos.rng: the seeded random draws (sim.RNG) behind host jitter.
//
// Stacks with no module frame go to runtime.sched when a scheduler
// frame is on them (idle threads spinning and waking), else to other.

// modulePath is the import path of the module under test.
const modulePath = "fpgavirtio"

// layerPrefixes maps package import paths (by prefix) to layer names.
// A package prefix, not a function name, decides the bucket, so code
// moving inside a package keeps its bucket. internal/mem, the memory
// model every layer uses, maps to "": like the runtime, its frames
// count as their caller's cost.
var layerPrefixes = []struct{ prefix, layer string }{
	{modulePath + "/internal/sim", "sim"},
	{modulePath + "/internal/mem", ""},
	{modulePath + "/internal/pcie", "pcie"},
	{modulePath + "/internal/virtio", "virtio"},
	{modulePath + "/internal/vdev", "virtio"},
	{modulePath + "/internal/drivers", "drivers"},
	{modulePath + "/internal/xdmaip", "xdmaip"},
	{modulePath + "/internal/fpga", "xdmaip"},
	{modulePath + "/internal/hostos", "hostos"},
	{modulePath + "/internal/netstack", "netstack"},
	{modulePath + "/internal/telemetry", "telemetry"},
	{modulePath + "/internal/experiments", "experiments"},
	{modulePath + "/internal/perf", "experiments"},
	{modulePath + "/internal/faults", "session"},
	{modulePath + "/internal/fvassert", "session"},
	{modulePath + "/fvperf", "bench"},
	{modulePath, "session"}, // the root package: sessions and their plumbing
}

// bucketNames lists every bucket the fold can produce, in report order.
var bucketNames = []string{
	"sim", "sim.handoff", "pcie", "virtio", "drivers", "xdmaip", "hostos", "hostos.rng",
	"netstack", "telemetry", "telemetry.flight", "experiments", "session", "bench",
	"runtime.gc", "runtime.sched", "other",
}

// funcPackage returns the import path of a symbol name such as
// "fpgavirtio/internal/sim.(*Sim).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a module package to its layer; ok is false for packages
// outside the module.
func layerOf(pkg string) (string, bool) {
	if pkg != modulePath && !strings.HasPrefix(pkg, modulePath+"/") {
		return "", false
	}
	for _, lp := range layerPrefixes {
		if pkg == lp.prefix || strings.HasPrefix(pkg, lp.prefix+"/") {
			return lp.layer, true
		}
	}
	return "other", true
}

// isGCFrame reports a garbage-collector frame.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
		"runtime.greyobject", "runtime.sweepone", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// isSchedFrame reports a runtime frame of goroutine hand-off: channel
// operations, parking and waking, and the scheduler loop under them.
func isSchedFrame(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	for _, k := range []string{"chan", "select", "park", "ready", "futex", "schedule", "findRunnable",
		"runq", "steal", "wakep", "startm", "stopm", "notesleep", "notewakeup", "lock2", "unlock2",
		"casgstatus", "mcall", "gosched", "goexit", "execute", "usleep", "osyield", "semasleep", "semawakeup"} {
		if strings.Contains(fn, k) {
			return true
		}
	}
	return false
}

// bucketOf charges one stack (function names, leaf first) to a bucket.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	for i, fn := range stack {
		layer, ok := layerOf(funcPackage(fn))
		if !ok || layer == "" {
			continue
		}
		switch {
		case layer == "sim" && strings.Contains(fn, ".(*RNG)."):
			return "hostos.rng"
		case strings.Contains(fn, ".(*FlightRecorder).") || strings.Contains(fn, ".(*flightWatch)."):
			return "telemetry.flight"
		case layer == "sim":
			for _, above := range stack[:i] {
				if isSchedFrame(above) {
					return "sim.handoff"
				}
			}
		}
		return layer
	}
	for _, fn := range stack {
		if isSchedFrame(fn) {
			return "runtime.sched"
		}
	}
	return "other"
}

// fold is the CPU time of one or more profiles, by bucket.
type fold struct {
	ns      map[string]int64
	total   int64
	samples int64
}

func newFold() *fold { return &fold{ns: map[string]int64{}} }

// add decodes a gzip'd CPU profile and charges its samples.
func (f *fold) add(gz []byte) error {
	samples, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range samples {
		b := bucketOf(s.stack)
		f.ns[b] += s.value
		f.total += s.value
		f.samples++
	}
	return nil
}

// shares returns each bucket's share of the total in percent.
func (f *fold) shares() map[string]float64 {
	out := make(map[string]float64, len(bucketNames))
	for _, b := range bucketNames {
		out[b] = 0
		if f.total > 0 {
			out[b] = 100 * float64(f.ns[b]) / float64(f.total)
		}
	}
	return out
}

// check verifies that the shares of the known buckets add up to 100%,
// so no sample landed outside them.
func (f *fold) check() error {
	if f.total <= 0 {
		return errors.New("cpu profile holds no samples")
	}
	sum := 0.0
	for _, v := range f.shares() {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		return fmt.Errorf("cpu shares sum to %.9f%%, want 100%%", sum)
	}
	return nil
}

// ---- profile.proto decoding --------------------------------------------

// profSample is one decoded sample: its stack (leaf first) and CPU ns.
type profSample struct {
	stack []string
	value int64
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSampleType = 1
	profSamples    = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2

	valueTypeType = 1
)

// decodeProfile parses a gzip'd profile.proto and resolves every
// sample's stack to function names, leaf first (inlined frames
// included, innermost first, as pprof lists them).
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{}
		funcNames   = map[uint64]int64{}
		strs        []string
	)
	err = walkFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == valueTypeType {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case profSamples:
			var s rawSample
			err := walkFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case sampleLocation:
					return appendUints(&s.locs, w, v, b)
				case sampleValue:
					return appendUints(&s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case locID:
					id = v
				case locLine:
					return walkFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU time is the value whose type is "cpu"; fall back to the
	// last value (runtime/pprof writes samples, then cpu nanoseconds).
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no sample types")
	}
	name := func(fid uint64) string {
		si, ok := funcNames[fid]
		if !ok || si < 0 || int(si) >= len(strs) {
			return "?"
		}
		return strs[si]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				stack = append(stack, name(fid))
			}
		}
		out = append(out, profSample{stack: stack, value: int64(s.values[vi])})
	}
	return out, nil
}

// walkFields calls fn for each field of a protobuf message: v carries
// varint and fixed values, b the bytes of length-delimited ones.
func walkFields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
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
