package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	fpgavirtio "fpgavirtio"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// TestAttributeTails checks the tentpole invariant end to end: every
// tail-ranked sample's critical path partitions its window's RTT
// exactly, the partition agrees with the measured RTT to within the
// counter quantum, and the artifact block validates.
func TestAttributeTails(t *testing.T) {
	p := Params{Seed: 1, Packets: 400, Payloads: []int{64, 256}}
	sw, err := RunSweep(p)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if err := AttributeTails(sw); err != nil {
		t.Fatalf("AttributeTails: %v", err)
	}

	points := append(append([]*PointResult{}, sw.VirtIO...), sw.XDMA...)
	for _, pt := range points {
		if len(pt.Tail) != 3 {
			t.Fatalf("%s/%dB: %d tail samples, want 3", pt.Driver, pt.Payload, len(pt.Tail))
		}
		wantRanks := []string{"p99", "p99.9", "max"}
		for i, ts := range pt.Tail {
			if ts.Rank != wantRanks[i] {
				t.Errorf("%s/%dB sample %d: rank %q, want %q", pt.Driver, pt.Payload, i, ts.Rank, wantRanks[i])
			}
			var sum int64
			for _, l := range ts.Layers {
				if l.Ns < 0 {
					t.Errorf("%s/%dB %s: layer %s negative (%d ns)", pt.Driver, pt.Payload, ts.Rank, l.Layer, l.Ns)
				}
				sum += l.Ns
			}
			if sum != ts.SumNs {
				t.Errorf("%s/%dB %s: layers sum %d != SumNs %d", pt.Driver, pt.Payload, ts.Rank, sum, ts.SumNs)
			}
			if d := ts.SumNs - ts.RTTNs; d > 8 || d < -8 {
				t.Errorf("%s/%dB %s: SumNs %d vs RTTNs %d exceeds 8ns quantum",
					pt.Driver, pt.Payload, ts.Rank, ts.SumNs, ts.RTTNs)
			}
			// A round trip's critical path must involve more than the
			// app layer: the wait for the device shows up as driver /
			// irq / wire / device time.
			if len(ts.Layers) < 2 {
				t.Errorf("%s/%dB %s: only %d layers on the critical path", pt.Driver, pt.Payload, ts.Rank, len(ts.Layers))
			}
		}
		// The max-rank sample must reproduce the series maximum.
		maxNs := int64(pt.Total.Max() / sim.Nanosecond)
		if got := pt.Tail[2].RTTNs; got != maxNs {
			t.Errorf("%s/%dB: max tail RTT %d != series max %d", pt.Driver, pt.Payload, got, maxNs)
		}
	}

	// The artifact block must round-trip through the validator.
	a := BuildArtifact("latency", sw)
	if len(a.TailAttribution) != 4 {
		t.Fatalf("artifact has %d tail points, want 4", len(a.TailAttribution))
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("artifact validation: %v", err)
	}
}

// TestAttributeTailsDeterministic: attribution is pure, so running
// it twice yields identical attributions.
func TestAttributeTailsDeterministic(t *testing.T) {
	p := Params{Seed: 7, Packets: 200, Payloads: []int{128}}
	run := func() []telemetry.TailSample {
		sw, err := RunSweep(p)
		if err != nil {
			t.Fatalf("RunSweep: %v", err)
		}
		if err := AttributeTails(sw); err != nil {
			t.Fatalf("AttributeTails: %v", err)
		}
		return append(append([]telemetry.TailSample{}, sw.VirtIO[0].Tail...), sw.XDMA[0].Tail...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("tail sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Rank != b[i].Rank || a[i].Index != b[i].Index || a[i].RTTNs != b[i].RTTNs || a[i].SumNs != b[i].SumNs {
			t.Errorf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if len(a[i].Layers) != len(b[i].Layers) {
			t.Errorf("sample %d layer counts differ", i)
			continue
		}
		for j := range a[i].Layers {
			if a[i].Layers[j] != b[i].Layers[j] {
				t.Errorf("sample %d layer %d differs: %+v vs %+v", i, j, a[i].Layers[j], b[i].Layers[j])
			}
		}
	}
}

// tailcheckPlan is the fault plan of the `make tailcheck` sweep.
const tailcheckPlan = "needsreset:every=120:count=4,engineerr:every=90:count=4," +
	"irqdrop:every=150:count=6,cplpoison:every=400:count=4"

// replayTails is the two-pass oracle for one point: measure a fresh
// session keeping every clean sample, pick the tail ranks, then replay
// another fresh session with the span Recorder around just those round
// trips (CaptureCriticalPaths) and analyse them.
func replayTails(t *testing.T, driver string, p Params, payload int) []telemetry.TailSample {
	t.Helper()
	cfg := fpgavirtio.Config{Seed: p.Seed, Link: p.Link, Faults: p.Faults, PollMode: p.PollMode}
	var loops []int
	var rtts []int64
	keep := func(faults func() int64) func(int, fpgavirtio.RTTSample) {
		mark := faults()
		return func(i int, s fpgavirtio.RTTSample) {
			if now := faults(); now != mark {
				mark = now
				return
			}
			loops = append(loops, i)
			rtts = append(rtts, s.Total.Nanoseconds())
		}
	}
	var capture func([]int) ([]fpgavirtio.CapturedPath, error)
	switch driver {
	case "virtio":
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.PingSeries(make([]byte, payload), p.Packets, keep(ns.FaultEvents)); err != nil {
			t.Fatal(err)
		}
		capture = func(targets []int) ([]fpgavirtio.CapturedPath, error) {
			rs, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: cfg})
			if err != nil {
				return nil, err
			}
			return rs.CaptureCriticalPaths(make([]byte, payload), targets)
		}
	default:
		xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := xs.RoundTripSeries(make([]byte, payload+HeaderOverhead), p.Packets, keep(xs.FaultEvents)); err != nil {
			t.Fatal(err)
		}
		capture = func(targets []int) ([]fpgavirtio.CapturedPath, error) {
			rs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: cfg})
			if err != nil {
				return nil, err
			}
			return rs.CaptureCriticalPaths(make([]byte, payload+HeaderOverhead), targets)
		}
	}

	order := make([]int, len(rtts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if rtts[order[a]] != rtts[order[b]] {
			return rtts[order[a]] < rtts[order[b]]
		}
		return order[a] < order[b]
	})
	picked := make([]int, len(tailRanks))
	targets := make([]int, len(tailRanks))
	for i, r := range tailRanks {
		rank := len(rtts)
		if r.q >= 0 {
			rank = nearestRank(r.q, len(rtts))
		}
		picked[i] = order[rank-1]
		targets[i] = loops[picked[i]]
	}
	paths, err := capture(targets)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	byLoop := map[int]*telemetry.CriticalPath{}
	for _, cp := range paths {
		byLoop[cp.Index] = cp.Path
	}
	var out []telemetry.TailSample
	for i, r := range tailRanks {
		cp := byLoop[targets[i]]
		if cp == nil {
			t.Fatalf("replay captured no path for index %d", targets[i])
		}
		out = append(out, tailSample(r.name, targets[i], rtts[picked[i]], cp))
	}
	return out
}

// TestOnlineTailsMatchReplay: the single-pass attribution equals the
// replay oracle field for field, across both stacks and datapaths,
// several seeds, and fault plans that exclude samples and force
// recoveries mid-window.
func TestOnlineTailsMatchReplay(t *testing.T) {
	const packets = 600
	for _, driver := range []string{"virtio", "xdma"} {
		for _, poll := range []bool{false, true} {
			for si, seed := range []uint64{1, 4, 7} {
				for _, plan := range []string{"", tailcheckPlan, "irqdrop:p=0.001"} {
					payload := []int{64, 1024, 256}[si]
					name := fmt.Sprintf("%s/poll=%v/seed=%d/%dB/%s", driver, poll, seed, payload, plan)
					t.Run(name, func(t *testing.T) {
						p := Params{Seed: seed, Packets: packets, Faults: plan, PollMode: poll}
						var pt *PointResult
						var err error
						if driver == "virtio" {
							pt, err = MeasureVirtIO(p, payload, nil)
						} else {
							pt, err = MeasureXDMA(p, payload, nil)
						}
						if err != nil {
							t.Fatal(err)
						}
						if err := AttributeTails(&Sweep{Params: p, VirtIO: []*PointResult{pt}}); err != nil {
							t.Fatal(err)
						}
						want := replayTails(t, driver, p, payload)
						if !reflect.DeepEqual(pt.Tail, want) {
							t.Fatalf("online tails differ from the replay:\n online %+v\n replay %+v", pt.Tail, want)
						}
						for i, q := range []float64{99, 99.9, 100} {
							if got, want := pt.Tail[i].RTTNs, int64(pt.Total.Percentile(q)/sim.Nanosecond); got != want {
								t.Errorf("%s RTT %d ns, series reports %d ns", pt.Tail[i].Rank, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestTailCollectorSteadyStateZeroAlloc: with the online tail
// collector attached, a warm series still allocates nothing per
// packet. Accepted samples reuse the span buffers of the entries they
// evict, and names are composed only for the analysed samples later.
// Same marginal method as the root package's budgets: allocs(1100) −
// allocs(100), over 1000.
func TestTailCollectorSteadyStateZeroAlloc(t *testing.T) {
	const small, big = 100, 1100
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	xbuf := make([]byte, 256+HeaderOverhead)
	for _, arm := range []struct {
		name   string
		series func(tc *tailCollector, n int) error
	}{
		{"virtio", func(tc *tailCollector, n int) error {
			return ns.PingSeries(buf, n, func(i int, s fpgavirtio.RTTSample) { tc.offer(ns, i, s.Total.Nanoseconds()) })
		}},
		{"xdma", func(tc *tailCollector, n int) error {
			return xs.RoundTripSeries(xbuf, n, func(i int, s fpgavirtio.RTTSample) { tc.offer(xs, i, s.Total.Nanoseconds()) })
		}},
	} {
		tc := newTailCollector(big)
		run := func(n int) {
			tc.clean, tc.heap = 0, tc.heap[:0] // keeps every entry's span buffer
			if err := arm.series(tc, n); err != nil {
				t.Fatal(err)
			}
		}
		run(big) // warm: fill every entry's span buffer
		perPkt := (testing.AllocsPerRun(3, func() { run(big) }) -
			testing.AllocsPerRun(3, func() { run(small) })) / (big - small)
		if perPkt > 0 {
			t.Errorf("%s series with the tail collector allocates %.3f objects/packet, budget is 0", arm.name, perPkt)
		}
		for i := range tc.heap {
			if e := &tc.heap[i]; e.err != nil || len(e.spans) == 0 {
				t.Fatalf("%s: kept sample %d has window %d spans, err %v", arm.name, e.loop, len(e.spans), e.err)
			}
		}
	}
}
