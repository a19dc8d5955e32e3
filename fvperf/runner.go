package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"fpgavirtio/internal/telemetry"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	sizes   sizes
	outDir  string
}

// execute repeats the workload until the time budget is spent (and at
// least sizes.MinReps times), each repetition in a fresh child process.
// It checks that every repetition of the seed produced the same
// simulated outputs, and computes the metrics.
//
// A timed run (traced false) repeats the workload with no tracing and
// reports the end-to-end metrics. Its model-error reference sweeps run
// between repetitions, spread over the budget, so that the timed
// repetitions span the whole run: the host's speed drifts over tens of
// seconds, and the longer the span, the more of that drift the medians
// average out. A traced run alternates untraced and traced
// repetitions: the traced ones run under the CPU profiler, with spans
// and per-packet clock reads, and give the per-layer metrics; the
// untraced ones give the baseline for the tracing overhead.
func execute(w *workload, cfg runConfig, log io.Writer) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	var plain, traced []*repRun
	spans := newSpanLog()
	minReps := cfg.sizes.MinReps
	if cfg.traced {
		minReps = max(minReps, 4)
	}
	var ref *modelRef
	if !cfg.traced {
		ref = &modelRef{cfg: cfg, log: log}
	}
	budget := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	// stepRef runs the reference sweeps that are due: sweep j of n at
	// (j+1)/(n+1) of the budget, and every one left when final is set.
	stepRef := func(final bool) error {
		for ref != nil && ref.pending() &&
			(final || time.Since(start) >= budget*time.Duration(ref.done+1)/time.Duration(cfg.sizes.ModelSeeds+1)) {
			if err := ref.step(); err != nil {
				return fmt.Errorf("model reference: %w", err)
			}
		}
		return nil
	}
	var took []float64 // host seconds per repetition, child start-up included
	var firstHash string
	for i := 0; ; i++ {
		// Stop once fewer than half a typical repetition's seconds are
		// left, so that a run lasts about its budget.
		left := budget - time.Since(start)
		if i >= minReps && left.Seconds() < median(took)/2 {
			break
		}
		tracedRep := cfg.traced && i%2 == 1
		t0 := time.Now()
		run, err := runRep(w, cfg, i, tracedRep, spans, log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		took = append(took, time.Since(t0).Seconds())
		r := run.r
		if tracedRep {
			traced = append(traced, run)
		} else {
			plain = append(plain, run)
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Failures = append(res.Failures, r.Failures...)
		// Determinism: every repetition of one seed must simulate the
		// same samples and counts, traced or not.
		if i == 0 {
			firstHash = r.Hash
		} else {
			res.Attempted++
			if r.Hash != firstHash {
				res.fail("repetition %d: simulated outputs differ from repetition 0 (digest %s vs %s)", i, r.Hash, firstHash)
			}
		}
		fmt.Fprintf(log, "fvperf: %s seed %d rep %d traced=%v wall %.3fs measure %.3fs rss %.0fMiB pkts %d\n",
			w.name, cfg.seed, i, tracedRep, r.Wall.Seconds(), r.Measure.Seconds(), run.rssMiB, r.Pkts)
		if err := stepRef(false); err != nil {
			return nil, err
		}
	}
	if err := stepRef(true); err != nil {
		return nil, err
	}
	if !cfg.traced {
		endToEnd(res, plain, ref)
		return res, nil
	}
	prof := newFold()
	for _, t := range traced {
		for _, p := range t.profiles {
			if err := prof.add(p); err != nil {
				return nil, err
			}
		}
	}
	if err := prof.check(); err != nil {
		res.fail("%v", err)
	}
	spans.finish()
	spans.summarize(log)
	if err := spans.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	perLayer(res, plain, traced, prof)
	return res, nil
}

// endToEnd sets the end-to-end metrics: medians over the repetitions,
// and the model error against Table I.
func endToEnd(res *result, runs []*repRun, ref *modelRef) {
	var wall, rate, setup, rss []float64
	for _, run := range runs {
		r := run.r
		wall = append(wall, r.Wall.Seconds())
		rate = append(rate, float64(r.Pkts)/r.Measure.Seconds())
		setup = append(setup, sum(r.Boots).Seconds())
		rss = append(rss, run.rssMiB)
	}
	res.Attempted += ref.attempted
	res.set("wall_s", "s", median(wall))
	res.set("pkts_per_s", "1/s", median(rate))
	res.set("setup_s", "s", median(setup))
	res.set("max_rss_mb", "MiB", median(rss))
	res.set("model_err_pct", "%", ref.errPct())
	res.set("ok_ratio", "ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)))
}

// perLayer sets the per-layer metrics. Counts come from the session
// registries of one repetition (every repetition counts the same); host
// times are medians over the traced repetitions; CPU shares come from
// the folded profiles of all traced repetitions.
func perLayer(res *result, plainRuns, tracedRuns []*repRun, prof *fold) {
	reps := func(runs []*repRun) []*rep {
		var out []*rep
		for _, run := range runs {
			out = append(out, run.r)
		}
		return out
	}
	plain, traced := reps(plainRuns), reps(tracedRuns)
	r := traced[0]
	c := r.Counts
	pkts, vPkts, xPkts := float64(r.Pkts), float64(r.VPkts), float64(r.XPkts)
	get := func(name string) float64 { return c.V[name] }
	perPkt := func(v float64) float64 { return ratio(v, pkts) }
	medianOf := func(reps []*rep, f func(*rep) float64) float64 {
		var xs []float64
		for _, t := range reps {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	over := func(f func(*rep) float64) float64 { return medianOf(traced, f) }
	events := get(telemetry.MetricSimEventsFired)

	res.set("sim.events_per_pkt", "count", perPkt(events))
	res.set("sim.queue_depth_max", "count", c.DepthMax)
	res.set("sim.host_ns_per_event", "ns", over(func(t *rep) float64 { return ratio(float64(t.Measure.Nanoseconds()), events) }))

	res.set("pcie.tlps_per_pkt", "count", perPkt(c.family(telemetry.MetricPCIeDownTLP)+c.family(telemetry.MetricPCIeUpTLP)))
	res.set("pcie.bytes_per_pkt", "B", perPkt(get(telemetry.MetricPCIeDownBytes)+get(telemetry.MetricPCIeUpBytes)))

	doorbells, elided := get(telemetry.MetricVirtioDoorbells), get(telemetry.MetricVirtioKicksElided)
	res.set("virtio.doorbells_per_pkt", "count", ratio(doorbells, vPkts))
	res.set("virtio.kicks_elided_ratio", "ratio", ratio(elided, elided+doorbells))
	res.set("virtio.irqs_per_pkt", "count", ratio(get(telemetry.MetricVdevIRQsRaised), vPkts))
	res.set("drivers.descs_per_pkt", "count", ratio(get(telemetry.MetricVirtioDescsPosted), vPkts))
	res.set("xdmaip.descriptors_per_pkt", "count", ratio(c.family(telemetry.MetricDMAEngineDescriptors), xPkts))

	spins := get(telemetry.MetricPollSpins)
	res.set("hostos.syscalls_per_pkt", "count", perPkt(get(telemetry.MetricHostSyscalls)))
	res.set("hostos.wakeups_per_pkt", "count", perPkt(get(telemetry.MetricHostWakeups)))
	res.set("poll.spins_per_pkt", "count", perPkt(spins))
	res.set("poll.useful_ratio", "ratio", ratio(spins-get(telemetry.MetricPollWasted), spins))

	res.set("netstack.csum_bytes_per_pkt", "B", ratio(get(telemetry.MetricNetstackCsumBytes), vPkts))

	res.set("telemetry.spans_per_pkt", "count", perPkt(get(telemetry.MetricRecorderSpansCaptured)))
	res.set("telemetry.tails_s", "s", over(func(t *rep) float64 { return t.Tails.Seconds() }))
	res.set("telemetry.tail_replay_pkts", "count", float64(r.ReplayPkts))
	res.set("telemetry.tail_useful_ratio", "ratio", ratio(float64(r.Attributed), float64(r.ReplayPkts)))

	var cells []float64
	for _, t := range traced {
		for _, d := range t.Cells {
			cells = append(cells, d.Seconds())
		}
	}
	res.set("experiments.cell_s_p50", "s", median(cells))
	res.set("experiments.cell_s_max", "s", nearestRank(cells, 100))
	res.set("experiments.worker_idle_ratio", "ratio", over(func(t *rep) float64 {
		busy := 0.0
		for _, d := range t.Cells {
			busy += d.Seconds()
		}
		if t.SweepWall == 0 {
			return 0 // no sweep ran
		}
		return 1 - busy/(fig3Workers*t.SweepWall.Seconds())
	}))
	res.set("experiments.export_s", "s", over(func(t *rep) float64 { return t.Export.Seconds() }))

	res.set("runtime.alloc_bytes_per_pkt", "B", over(func(t *rep) float64 { return ratio(float64(t.Alloc), float64(t.Pkts)) }))

	var boots []float64
	for _, t := range traced {
		for _, d := range t.Boots {
			boots = append(boots, float64(d.Nanoseconds())/1e6)
		}
	}
	res.set("setup.boots", "count", float64(len(r.Boots)))
	res.set("setup.boot_ms_p50", "ms", median(boots))

	var pktUs []float64
	for _, t := range traced {
		pktUs = append(pktUs, t.PktUs...)
	}
	res.set("datapath.host_us_per_pkt_p50", "us", nearestRank(pktUs, 50))
	res.set("datapath.host_us_per_pkt_p99", "us", nearestRank(pktUs, 99))
	res.set("datapath.host_us_per_pkt_n", "count", float64(len(pktUs)))

	for b, v := range prof.shares() {
		res.set(shareMetric(b), "%", v)
	}
	res.set("profile.samples", "count", float64(prof.samples))

	wall := func(t *rep) float64 { return t.Wall.Seconds() }
	res.set("trace.overhead_s", "s", medianOf(traced, wall)-medianOf(plain, wall))
}

// shareMetric names a bucket's CPU share: "sim.cpu_share" for a layer,
// "sim.handoff_cpu_share" for a split of one.
func shareMetric(bucket string) string {
	if strings.Contains(bucket, ".") {
		return bucket + "_cpu_share"
	}
	return bucket + ".cpu_share"
}
