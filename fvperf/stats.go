package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"sort"
	"strings"

	"fpgavirtio/internal/telemetry"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// nearestRank is the q-th percentile of xs by the nearest-rank rule the
// simulator's own tables use (0 for none).
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q/100*float64(len(s)) - 1e-9))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// counts sums the session registries' instruments by name across every
// session a repetition measured.
type counts struct {
	V        map[string]float64
	DepthMax float64
}

func newCounts() *counts { return &counts{V: map[string]float64{}} }

// add folds one session's registry snapshot in: counters sum, the
// event-queue high-water gauge takes the maximum, and histograms count
// their observations.
func (c *counts) add(snap []telemetry.MetricSnapshot) {
	for _, m := range snap {
		switch {
		case m.Name == telemetry.MetricSimQueueDepthMax:
			c.DepthMax = max(c.DepthMax, m.Value)
		case m.Type == "counter":
			c.V[m.Name] += m.Value
		default:
			c.V[m.Name] += float64(m.Count)
		}
	}
}

// merge adds another repetition part's counts.
func (c *counts) merge(o *counts) {
	for name, v := range o.V {
		c.V[name] += v
	}
	c.DepthMax = max(c.DepthMax, o.DepthMax)
}

// family sums every counter named prefix+X+suffix, where a Metric*
// family helper of names.go spells the name as helper(X).
func (c *counts) family(helper func(string) string) float64 {
	const marker = "\x00"
	prefix, suffix, _ := strings.Cut(helper(marker), marker)
	sum := 0.0
	for name, v := range c.V {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && len(name) > len(prefix)+len(suffix) {
			sum += v
		}
	}
	return sum
}

// digest hashes a repetition's simulated outputs. Two repetitions of
// one seed must produce the same digest.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

// snapshot hashes a registry snapshot (already sorted by name).
func (d *digest) snapshot(snap []telemetry.MetricSnapshot) {
	for _, m := range snap {
		d.str(m.Name)
		d.str(m.Type)
		d.float(m.Value)
		d.int(m.Count)
		d.float(m.Sum)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
