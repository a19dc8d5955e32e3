package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// nsOf converts a simulated duration to whole nanoseconds for the
// artifact's integer fields.
func nsOf(d sim.Duration) int64 { return int64(d / sim.Nanosecond) }

// BuildPoint renders one measurement as a bench-artifact point.
func BuildPoint(pt *PointResult) telemetry.BenchPoint {
	s := pt.Total.Summarize()
	return telemetry.BenchPoint{
		Driver:     pt.Driver,
		Datapath:   pt.Datapath,
		Payload:    pt.Payload,
		Count:      s.Count,
		MeanNs:     nsOf(s.Mean),
		StdNs:      nsOf(s.Std),
		MinNs:      nsOf(s.Min),
		P25Ns:      nsOf(s.P25),
		P50Ns:      nsOf(s.P50),
		P75Ns:      nsOf(s.P75),
		P95Ns:      nsOf(s.P95),
		P99Ns:      nsOf(s.P99),
		P999Ns:     nsOf(s.P999),
		MaxNs:      nsOf(s.Max),
		SWMeanNs:   nsOf(pt.SW.Mean()),
		HWMeanNs:   nsOf(pt.HW.Mean()),
		RGMeanNs:   nsOf(pt.RG.Mean()),
		Interrupts: pt.Interrupts,
		Faulted:    pt.Faulted,
	}
}

// BuildArtifact renders a sweep as the machine-readable bench artifact
// fvbench -json / -csv emit, interleaving VirtIO and XDMA points per
// payload as the paper's figures pair them.
func BuildArtifact(experiment string, sw *Sweep) *telemetry.BenchArtifact {
	a := &telemetry.BenchArtifact{
		Schema:     telemetry.BenchSchema,
		Experiment: experiment,
		Seed:       sw.Params.Seed,
		Packets:    sw.Params.Packets,
		Link:       sw.Params.Link.String(),
	}
	for i := range sw.VirtIO {
		a.Points = append(a.Points, BuildPoint(sw.VirtIO[i]))
		if i < len(sw.XDMA) {
			a.Points = append(a.Points, BuildPoint(sw.XDMA[i]))
		}
	}
	// Tail attribution mirrors the point interleaving; points
	// AttributeTails never visited (or that had no clean samples)
	// contribute nothing, keeping attribution-free artifacts
	// byte-identical to earlier builds.
	for i := range sw.VirtIO {
		for _, pt := range [2]*PointResult{sw.VirtIO[i], xdmaAt(sw, i)} {
			if pt != nil && len(pt.Tail) > 0 {
				a.TailAttribution = append(a.TailAttribution, telemetry.TailPoint{
					Driver: pt.Driver, Payload: pt.Payload, Samples: pt.Tail,
				})
			}
		}
	}
	a.Faults = BuildFaultSummary(sw)
	return a
}

// xdmaAt returns the i-th XDMA point, nil when the sweep has fewer.
func xdmaAt(sw *Sweep, i int) *PointResult {
	if i < len(sw.XDMA) {
		return sw.XDMA[i]
	}
	return nil
}

// BuildFaultSummary aggregates the sweep's fault-injection and recovery
// counters across every point's metric snapshot. Returns nil when the
// sweep ran without a fault plan, keeping fault-free artifacts
// byte-identical to pre-injection builds.
func BuildFaultSummary(sw *Sweep) *telemetry.FaultSummary {
	if sw.Params.Faults == "" {
		return nil
	}
	planStr := sw.Params.Faults
	if plan, err := faults.Parse(sw.Params.Faults); err == nil {
		planStr = plan.String() // canonical spelling
	}
	fs := &telemetry.FaultSummary{
		Plan:     planStr,
		Injected: map[string]int64{},
		Recovery: map[string]int64{},
	}
	points := append(append([]*PointResult{}, sw.VirtIO...), sw.XDMA...)
	for _, pt := range points {
		if pt == nil {
			continue
		}
		fs.FaultedSamples += pt.Faulted
		for _, m := range pt.Metrics {
			switch {
			case m.Name == telemetry.MetricFaultsInjected:
				fs.Total += int64(m.Value)
			case strings.HasPrefix(m.Name, "fault.") && strings.HasSuffix(m.Name, ".injected"):
				class := strings.TrimSuffix(strings.TrimPrefix(m.Name, "fault."), ".injected")
				fs.Injected[class] += int64(m.Value)
			case strings.HasPrefix(m.Name, "recovery."):
				fs.Recovery[m.Name] += int64(m.Value)
			}
		}
	}
	if len(fs.Recovery) == 0 {
		fs.Recovery = nil
	}
	return fs
}

// RenderFaultReport renders the sweep's fault-injection and recovery
// summary as text (empty when the sweep ran without a fault plan).
func RenderFaultReport(sw *Sweep) string {
	fs := BuildFaultSummary(sw)
	if fs == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fault injection — plan %q\n", fs.Plan)
	fmt.Fprintf(&b, "  injected: %d total, %d samples flagged and excluded from percentiles\n",
		fs.Total, fs.FaultedSamples)
	classes := make([]string, 0, len(fs.Injected))
	for c := range fs.Injected {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "    fault.%s.injected  %d\n", c, fs.Injected[c])
	}
	recs := make([]string, 0, len(fs.Recovery))
	for name := range fs.Recovery {
		recs = append(recs, name)
	}
	sort.Strings(recs)
	if len(recs) > 0 {
		fmt.Fprintf(&b, "  recovery:\n")
		for _, name := range recs {
			fmt.Fprintf(&b, "    %-28s %d\n", name, fs.Recovery[name])
		}
	}
	return b.String()
}
