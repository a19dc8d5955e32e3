package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteMetricsJSON dumps a metric snapshot as a JSON array.
func WriteMetricsJSON(w io.Writer, snaps []MetricSnapshot) error {
	if snaps == nil {
		snaps = []MetricSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// WriteMetricsCSV dumps a metric snapshot as CSV. Histograms flatten
// to one row per bucket plus a summary row.
func WriteMetricsCSV(w io.Writer, snaps []MetricSnapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "type", "value", "count", "sum", "le"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range snaps {
		switch s.Type {
		case "histogram", "hdrhistogram":
			if err := cw.Write([]string{s.Name, s.Type, "", strconv.FormatInt(s.Count, 10), f(s.Sum), ""}); err != nil {
				return err
			}
			for _, b := range s.Buckets {
				le := "inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = f(b.UpperBound)
				}
				if err := cw.Write([]string{s.Name, "bucket", "", strconv.FormatInt(b.Count, 10), "", le}); err != nil {
					return err
				}
			}
		default:
			if err := cw.Write([]string{s.Name, s.Type, f(s.Value), "", "", ""}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// BenchSchema identifies the bench-artifact JSON layout. Bump on
// incompatible changes so downstream readers can dispatch.
const BenchSchema = "fvbench/v1"

// BenchPoint is one (driver, payload) measurement in a bench
// artifact: the percentile table of the total-latency series plus the
// decomposed means, all in nanoseconds.
type BenchPoint struct {
	Driver string `json:"driver"`
	// Datapath tags how completions were discovered: "poll" for the
	// busy-poll variants, "" (omitted) for the interrupt-driven default
	// — keeping pre-poll artifacts byte-identical.
	Datapath   string `json:"datapath,omitempty"`
	Payload    int    `json:"payload_bytes"`
	Count      int    `json:"count"`
	MeanNs     int64  `json:"mean_ns"`
	StdNs      int64  `json:"std_ns"`
	MinNs      int64  `json:"min_ns"`
	P25Ns      int64  `json:"p25_ns"`
	P50Ns      int64  `json:"p50_ns"`
	P75Ns      int64  `json:"p75_ns"`
	P95Ns      int64  `json:"p95_ns"`
	P99Ns      int64  `json:"p99_ns"`
	P999Ns     int64  `json:"p999_ns"`
	MaxNs      int64  `json:"max_ns"`
	SWMeanNs   int64  `json:"sw_mean_ns"`
	HWMeanNs   int64  `json:"hw_mean_ns"`
	RGMeanNs   int64  `json:"rg_mean_ns"`
	Interrupts int    `json:"interrupts"`
	// Faulted counts round trips excluded from the percentile series
	// because a fault was injected while they were in flight. Zero (and
	// omitted from JSON) on fault-free runs, so the artifact stays
	// byte-identical to pre-fault-injection builds.
	Faulted int `json:"faulted,omitempty"`
}

// FaultSummary is the run-level fault-injection record of a bench
// artifact: the armed plan and the aggregated injection/recovery
// counters summed over every session the run opened.
type FaultSummary struct {
	// Plan is the canonical plan string the run was armed with.
	Plan string `json:"plan"`
	// Injected maps fault class -> total injections across the run.
	Injected map[string]int64 `json:"injected"`
	// Total is the sum of Injected.
	Total int64 `json:"total"`
	// Recovery maps recovery.* metric name -> total count across the
	// run (driver resets, watchdog interventions, requeues, retries).
	Recovery map[string]int64 `json:"recovery,omitempty"`
	// FaultedSamples is the number of round trips flagged and excluded
	// across all points.
	FaultedSamples int `json:"faulted_samples"`
}

// ThroughputPoint is one (driver, payload, configuration) streaming
// measurement in a bench artifact: rates, queue behaviour, and the
// signalling totals of the run.
type ThroughputPoint struct {
	Driver string `json:"driver"`
	// Datapath is "poll" for busy-poll runs, "" for interrupt mode.
	Datapath string `json:"datapath,omitempty"`
	Payload  int    `json:"payload_bytes"`
	Packets  int    `json:"packets"`
	Window   int    `json:"window"`
	// Suppressed marks the kick-suppression arm of a comparison pair
	// (event-index doorbells plus batched TX kicks).
	Suppressed bool    `json:"suppressed"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	PPS        float64 `json:"pps"`
	GoodputBps float64 `json:"goodput_bps"`
	// OccupancyMax/OccupancyMean describe the in-flight request window
	// the stream actually sustained.
	OccupancyMax  int     `json:"occupancy_max"`
	OccupancyMean float64 `json:"occupancy_mean"`
	Drops         int     `json:"drops"`
	Backpressure  int     `json:"backpressure"`
	Doorbells     int     `json:"doorbells"`
	Interrupts    int     `json:"interrupts"`
}

// TailLayer is one layer's share of a tail sample's critical path.
type TailLayer struct {
	Layer string `json:"layer"`
	Ns    int64  `json:"ns"`
	// Share is Ns over the sample's critical-path total, in [0, 1].
	Share float64 `json:"share"`
}

// TailSample is the full critical-path attribution of one tail-ranked
// round trip: where every nanosecond of that specific packet's RTT
// went, layer by layer.
type TailSample struct {
	// Rank names the tail position: "p99", "p99.9", or "max".
	Rank string `json:"rank"`
	// Index is the 0-based series loop index of the attributed round
	// trip — the same index a deterministic re-run reproduces it at.
	Index int `json:"index"`
	// RTTNs is the round trip's measured latency from the percentile
	// series.
	RTTNs int64 `json:"rtt_ns"`
	// SumNs is the critical-path partition total. It must match RTTNs
	// to within the sim's nanosecond counter quantum.
	SumNs  int64       `json:"sum_ns"`
	Layers []TailLayer `json:"layers"`
}

// TailPoint groups the attributed tail samples of one (driver,
// payload) latency point.
type TailPoint struct {
	Driver  string       `json:"driver"`
	Payload int          `json:"payload_bytes"`
	Samples []TailSample `json:"samples"`
}

// tailQuantumNs is the tolerance (in ns) allowed between a tail
// sample's measured RTT and its critical-path sum: the sessions
// quantize clock reads to sim.Nanosecond, so span windows can
// differ from counter deltas by at most a few quanta of rounding.
const tailQuantumNs = 8

// BenchArtifact is the machine-readable record of one fvbench run.
// Latency experiments fill Points; the throughput mode fills Throughput
// (and, via its window=1 arm, may fill Points too). Both extensions
// stay within the fvbench/v1 schema: readers that only know Points
// still parse throughput artifacts.
type BenchArtifact struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Packets    int               `json:"packets"`
	Link       string            `json:"link"`
	Mode       string            `json:"mode,omitempty"`
	Points     []BenchPoint      `json:"points,omitempty"`
	Throughput []ThroughputPoint `json:"throughput,omitempty"`
	// Faults summarizes fault injection and driver recovery when the
	// run was armed with a plan; nil (and absent from JSON) otherwise.
	Faults *FaultSummary `json:"faults,omitempty"`
	// TailAttribution carries the per-point critical-path decomposition
	// of the tail samples (p99, p99.9, max) when the run attributed
	// its tails; empty otherwise.
	TailAttribution []TailPoint      `json:"tail_attribution,omitempty"`
	Metrics         []MetricSnapshot `json:"metrics,omitempty"`
}

// WriteBenchJSON validates the artifact and writes it as indented JSON.
func WriteBenchJSON(w io.Writer, a *BenchArtifact) error {
	if err := a.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteBenchCSV writes the artifact's points as CSV.
func WriteBenchCSV(w io.Writer, a *BenchArtifact) error {
	if err := a.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"driver", "datapath", "payload_bytes", "count", "mean_ns", "std_ns", "min_ns",
		"p25_ns", "p50_ns", "p75_ns", "p95_ns", "p99_ns", "p999_ns", "max_ns",
		"sw_mean_ns", "hw_mean_ns", "rg_mean_ns", "interrupts", "faulted",
	}); err != nil {
		return err
	}
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, p := range a.Points {
		if err := cw.Write([]string{
			p.Driver, datapathCSV(p.Datapath), strconv.Itoa(p.Payload), strconv.Itoa(p.Count),
			d(p.MeanNs), d(p.StdNs), d(p.MinNs),
			d(p.P25Ns), d(p.P50Ns), d(p.P75Ns), d(p.P95Ns), d(p.P99Ns), d(p.P999Ns), d(p.MaxNs),
			d(p.SWMeanNs), d(p.HWMeanNs), d(p.RGMeanNs), strconv.Itoa(p.Interrupts),
			strconv.Itoa(p.Faulted),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteThroughputCSV writes the artifact's throughput points as CSV.
func WriteThroughputCSV(w io.Writer, a *BenchArtifact) error {
	if err := a.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"driver", "datapath", "payload_bytes", "packets", "window", "suppressed",
		"elapsed_ns", "pps", "goodput_bps", "occupancy_max", "occupancy_mean",
		"drops", "backpressure", "doorbells", "interrupts",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range a.Throughput {
		if err := cw.Write([]string{
			p.Driver, datapathCSV(p.Datapath), strconv.Itoa(p.Payload), strconv.Itoa(p.Packets),
			strconv.Itoa(p.Window), strconv.FormatBool(p.Suppressed),
			strconv.FormatInt(p.ElapsedNs, 10), f(p.PPS), f(p.GoodputBps),
			strconv.Itoa(p.OccupancyMax), f(p.OccupancyMean),
			strconv.Itoa(p.Drops), strconv.Itoa(p.Backpressure),
			strconv.Itoa(p.Doorbells), strconv.Itoa(p.Interrupts),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// datapathCSV spells the datapath axis in CSV rows, where an empty
// cell would be ambiguous.
func datapathCSV(d string) string {
	if d == "" {
		return "irq"
	}
	return d
}

// validDatapath checks the datapath tag of a point.
func validDatapath(d string) bool { return d == "" || d == "poll" }

// Validate checks structural invariants of the artifact.
func (a *BenchArtifact) Validate() error {
	if a.Schema != BenchSchema {
		return fmt.Errorf("bench artifact: schema %q, want %q", a.Schema, BenchSchema)
	}
	if a.Experiment == "" {
		return fmt.Errorf("bench artifact: empty experiment name")
	}
	if len(a.Points) == 0 && len(a.Throughput) == 0 {
		return fmt.Errorf("bench artifact: no points")
	}
	for i, p := range a.Throughput {
		if p.Driver == "" {
			return fmt.Errorf("bench artifact: throughput point %d: empty driver", i)
		}
		if !validDatapath(p.Datapath) {
			return fmt.Errorf("bench artifact: throughput point %d: unknown datapath %q", i, p.Datapath)
		}
		if p.Payload <= 0 {
			return fmt.Errorf("bench artifact: throughput point %d: payload %d", i, p.Payload)
		}
		if p.Packets <= 0 {
			return fmt.Errorf("bench artifact: throughput point %d: packets %d", i, p.Packets)
		}
		if p.Window <= 0 {
			return fmt.Errorf("bench artifact: throughput point %d: window %d", i, p.Window)
		}
		if p.ElapsedNs <= 0 || p.PPS <= 0 || p.GoodputBps <= 0 {
			return fmt.Errorf("bench artifact: throughput point %d: non-positive rate", i)
		}
		// Pipelined paths (double-buffered XDMA batches) can hold up to
		// two windows in flight, so the cap is 2*Window, not Window.
		if p.OccupancyMax < 1 || p.OccupancyMax > 2*p.Window ||
			p.OccupancyMean <= 0 || p.OccupancyMean > float64(p.OccupancyMax) {
			return fmt.Errorf("bench artifact: throughput point %d: occupancy out of range", i)
		}
		if p.Drops < 0 || p.Backpressure < 0 || p.Doorbells < 0 || p.Interrupts < 0 {
			return fmt.Errorf("bench artifact: throughput point %d: negative counter", i)
		}
	}
	for i, p := range a.Points {
		if p.Driver == "" {
			return fmt.Errorf("bench artifact: point %d: empty driver", i)
		}
		if !validDatapath(p.Datapath) {
			return fmt.Errorf("bench artifact: point %d: unknown datapath %q", i, p.Datapath)
		}
		if p.Payload <= 0 {
			return fmt.Errorf("bench artifact: point %d: payload %d", i, p.Payload)
		}
		if p.Count <= 0 {
			return fmt.Errorf("bench artifact: point %d: count %d", i, p.Count)
		}
		if p.MeanNs <= 0 || p.MinNs <= 0 || p.MaxNs <= 0 {
			return fmt.Errorf("bench artifact: point %d: non-positive latency", i)
		}
		if p.MinNs > p.P50Ns || p.P50Ns > p.P95Ns || p.P95Ns > p.P99Ns ||
			p.P99Ns > p.P999Ns || p.P999Ns > p.MaxNs {
			return fmt.Errorf("bench artifact: point %d: percentiles not monotone", i)
		}
		if p.SWMeanNs < 0 || p.HWMeanNs < 0 || p.RGMeanNs < 0 {
			return fmt.Errorf("bench artifact: point %d: negative breakdown component", i)
		}
		if p.Faulted < 0 {
			return fmt.Errorf("bench artifact: point %d: negative faulted count", i)
		}
		if p.Faulted > 0 && a.Faults == nil {
			return fmt.Errorf("bench artifact: point %d: faulted samples without a fault summary", i)
		}
	}
	if f := a.Faults; f != nil {
		if f.Plan == "" {
			return fmt.Errorf("bench artifact: fault summary without a plan")
		}
		var sum int64
		for class, n := range f.Injected {
			if n < 0 {
				return fmt.Errorf("bench artifact: fault class %q: negative injection count", class)
			}
			sum += n
		}
		if f.Total != sum {
			return fmt.Errorf("bench artifact: fault total %d != per-class sum %d", f.Total, sum)
		}
		for name, n := range f.Recovery {
			if n < 0 {
				return fmt.Errorf("bench artifact: recovery counter %q negative", name)
			}
		}
		faulted := 0
		for _, p := range a.Points {
			faulted += p.Faulted
		}
		if f.FaultedSamples != faulted {
			return fmt.Errorf("bench artifact: fault summary reports %d faulted samples, points carry %d",
				f.FaultedSamples, faulted)
		}
	}
	for i, tp := range a.TailAttribution {
		if tp.Driver == "" {
			return fmt.Errorf("bench artifact: tail point %d: empty driver", i)
		}
		if tp.Payload <= 0 {
			return fmt.Errorf("bench artifact: tail point %d: payload %d", i, tp.Payload)
		}
		if len(tp.Samples) == 0 {
			return fmt.Errorf("bench artifact: tail point %d: no samples", i)
		}
		for j, ts := range tp.Samples {
			switch ts.Rank {
			case "p99", "p99.9", "max":
			default:
				return fmt.Errorf("bench artifact: tail point %d sample %d: unknown rank %q", i, j, ts.Rank)
			}
			if ts.Index < 0 {
				return fmt.Errorf("bench artifact: tail point %d sample %d: negative index", i, j)
			}
			if ts.RTTNs <= 0 || ts.SumNs <= 0 {
				return fmt.Errorf("bench artifact: tail point %d sample %d: non-positive latency", i, j)
			}
			if len(ts.Layers) == 0 {
				return fmt.Errorf("bench artifact: tail point %d sample %d: no layers", i, j)
			}
			var sum int64
			for _, l := range ts.Layers {
				if l.Layer == "" {
					return fmt.Errorf("bench artifact: tail point %d sample %d: empty layer", i, j)
				}
				if l.Ns < 0 {
					return fmt.Errorf("bench artifact: tail point %d sample %d: layer %q negative", i, j, l.Layer)
				}
				sum += l.Ns
			}
			// The critical path partitions the app window exactly, so
			// the layer sum must reproduce SumNs with no slack at all.
			if sum != ts.SumNs {
				return fmt.Errorf("bench artifact: tail point %d sample %d: layers sum %d != sum_ns %d",
					i, j, sum, ts.SumNs)
			}
			// SumNs vs the measured RTT may differ by clock quantization
			// only.
			if d := ts.SumNs - ts.RTTNs; d > tailQuantumNs || d < -tailQuantumNs {
				return fmt.Errorf("bench artifact: tail point %d sample %d: sum_ns %d vs rtt_ns %d exceeds %dns quantum",
					i, j, ts.SumNs, ts.RTTNs, tailQuantumNs)
			}
		}
	}
	return nil
}

// ValidateBenchJSON parses data and checks it against the artifact
// schema. Used by the CI smoke run on fvbench -json output.
func ValidateBenchJSON(data []byte) error {
	var a BenchArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return fmt.Errorf("bench artifact: %w", err)
	}
	return a.Validate()
}
