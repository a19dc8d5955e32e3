package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	fpgavirtio "fpgavirtio"
	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/telemetry"
)

// sizes fixes how much simulated work one repetition does.
type sizes struct {
	Fig3Packets   int // round trips per fig3 cell
	Fig3Seeds     int // fig3 runs per repetition, one per derived seed
	ModelPackets  int // round trips per cell of each model_err_pct reference sweep
	ModelSeeds    int // model_err_pct reference sweeps, one per derived seed
	StreamPackets int // packets per Stream call
	PollPackets   int // round trips per poll cell
	MinReps       int // repetitions that run even when the time budget is spent
}

// fullSizes are the benchmark's sizes; the tests use smaller ones.
var fullSizes = sizes{Fig3Packets: 1000, Fig3Seeds: 8, ModelPackets: 12500, ModelSeeds: 4, StreamPackets: 8000, PollPackets: 5000, MinReps: 3}

// fig3Workers is the sweep's worker count, the container's 2 CPUs.
const fig3Workers = 2

// streamWindow is the stream workload's requests in flight.
const streamWindow = 16

// env is what one repetition of a workload sees.
type env struct {
	seed   uint64
	part   int // which child process of the repetition this is
	sizes  sizes
	traced bool     // spans on and a host clock read per packet
	spans  *spanLog // nil when untraced
}

// rep is one repetition's measurements and checks. A repetition runs
// in a child process of its own, which sends the rep back as JSON.
type rep struct {
	Wall    time.Duration // the workload as a user waits for it, checks excluded
	Measure time.Duration // host time in the measurement calls, boots excluded
	Pkts    int64         // simulated round trips (or streamed packets) measured
	VPkts   int64         // ... of which on VirtIO sessions
	XPkts   int64         // ... of which on XDMA sessions
	Boots   []time.Duration
	Counts  *counts
	Hash    string
	Alloc   uint64 // heap bytes allocated during the measurement calls

	Attempted int64
	Failed    int64
	Failures  []string

	// fig3 only.
	Tails      time.Duration
	Export     time.Duration
	ReplayPkts int64
	Attributed int64
	Cells      []time.Duration
	SweepWall  time.Duration

	// Traced repetitions: host µs per packet, one value per packet where
	// the benchmark drives the series itself, else one per call.
	PktUs []float64

	// Probe marks a part that only measures (fig3's boots); its peak RSS
	// is not the workload's.
	Probe bool
}

// add folds one part of a repetition into r.
func (r *rep) add(p *rep) {
	r.Wall += p.Wall
	r.Measure += p.Measure
	r.Pkts += p.Pkts
	r.VPkts += p.VPkts
	r.XPkts += p.XPkts
	r.Boots = append(r.Boots, p.Boots...)
	r.Counts.merge(p.Counts)
	r.Alloc += p.Alloc
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	r.Failures = append(r.Failures, p.Failures...)
	r.Tails += p.Tails
	r.Export += p.Export
	r.ReplayPkts += p.ReplayPkts
	r.Attributed += p.Attributed
	r.Cells = append(r.Cells, p.Cells...)
	r.SweepWall += p.SweepWall
	r.PktUs = append(r.PktUs, p.PktUs...)
}

func (r *rep) fail(format string, a ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// rep runs part e.part of one repetition in the calling process.
	rep func(e *env) (*rep, error)
	// parts is how many child processes one repetition takes.
	parts func(sz sizes) int
}

func onePart(sizes) int { return 1 }

var workloads = map[string]*workload{
	"fig3":   {name: "fig3", rep: fig3Rep, parts: func(sz sizes) int { return sz.Fig3Seeds + 1 }},
	"stream": {name: "stream", rep: streamRep, parts: onePart},
	"poll":   {name: "poll", rep: pollRep, parts: onePart},
}

// derivedSeed is the j-th seed derived from a run's seed; the 0-th is
// the run's seed itself.
func derivedSeed(seed uint64, j int) uint64 { return seed + uint64(j)<<32 }

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// payloadFor is the seeded non-zero payload the echo checks send.
func payloadFor(seed uint64, size int) []byte {
	rng := rand.New(rand.NewPCG(seed, uint64(size)))
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(1 + rng.IntN(255))
	}
	return b
}

// echoCheck sends a seeded payload through the session and compares
// the echo. It runs outside every timed section.
func echoCheck(r *rep, ns *fpgavirtio.NetSession, seed uint64, size int, what string) {
	r.Attempted++
	want := payloadFor(seed, size)
	got, _, err := ns.Ping(want)
	switch {
	case err != nil:
		r.fail("%s: echo check: %v", what, err)
	case !bytes.Equal(got, want):
		r.fail("%s: echo of a %d B seeded payload came back different", what, size)
	}
}

// ---- fig3 ----------------------------------------------------------------

// fig3Rep is one `fvbench -n <Fig3Packets> -seed <s> fig3` run, in a
// process of its own: the paper's grid swept on two workers, tail
// attribution, then the artifact. A repetition is Fig3Seeds such runs,
// one per seed derived from the run's seed (part 0 uses the run's seed
// itself), and one last part that times the boots. The tail replay re-runs each point up to its last tail
// sample, so its cost depends on where one seed's slowest round trips
// fall, and all cells of a sweep share that seed's host-noise stream.
// Several seeds per repetition keep its work nearly the same from seed
// to seed.
func fig3Rep(e *env) (*rep, error) {
	if e.part == e.sizes.Fig3Seeds {
		return fig3Boots(e)
	}
	seed := derivedSeed(e.seed, e.part)
	r := &rep{Counts: newCounts()}
	runID := e.spans.begin(fmt.Sprintf("rep fig3 seed=%d", seed), 0)
	defer e.spans.end(runID)
	p := experiments.Params{Seed: seed, Packets: e.sizes.Fig3Packets}

	type cellDone struct {
		key string
		at  time.Time
	}
	var mu sync.Mutex
	var done []cellDone
	alloc0 := allocBytes()
	t0 := time.Now()
	sweepID := e.spans.begin("sweep", runID)
	sw, err := experiments.RunSweepParallelWithProgress(p, fig3Workers, func(sp experiments.SweepProgress) {
		at := time.Now()
		mu.Lock()
		done = append(done, cellDone{fmt.Sprintf("%s/%d", sp.Driver, sp.Payload), at})
		mu.Unlock()
	})
	t1 := time.Now()
	e.spans.end(sweepID)
	if err != nil {
		return nil, err
	}
	r.Alloc = allocBytes() - alloc0
	tailsID := e.spans.begin("tails", runID)
	if err := experiments.AttributeTails(sw); err != nil {
		return nil, err
	}
	t2 := time.Now()
	e.spans.end(tailsID)
	exportID := e.spans.begin("export", runID)
	art := experiments.BuildArtifact("fig3", sw)
	blob, err := json.Marshal(art)
	t3 := time.Now()
	e.spans.end(exportID)
	if err != nil {
		return nil, err
	}
	r.Wall, r.Measure, r.SweepWall = t3.Sub(t0), t1.Sub(t0), t1.Sub(t0)
	r.Tails, r.Export = t2.Sub(t1), t3.Sub(t2)

	// Cell times from outside: the engine claims cells in grid order
	// (per payload, VirtIO then XDMA), so cell k starts when the
	// (k-workers)-th completion frees a worker.
	sort.Slice(done, func(i, j int) bool { return done[i].at.Before(done[j].at) })
	finished := map[string]time.Time{}
	for _, c := range done {
		finished[c.key] = c.at
	}
	k := 0
	for _, size := range sw.Params.Payloads {
		for _, driver := range []string{"virtio", "xdma"} {
			start := t0
			if k >= fig3Workers && k-fig3Workers < len(done) {
				start = done[k-fig3Workers].at
			}
			end, ok := finished[fmt.Sprintf("%s/%d", driver, size)]
			if !ok || end.Before(start) {
				end = start
			}
			r.Cells = append(r.Cells, end.Sub(start))
			if e.traced {
				r.PktUs = append(r.PktUs, float64(end.Sub(start).Nanoseconds())/1e3/float64(p.Packets))
			}
			e.spans.add(fmt.Sprintf("cell %s/%dB", driver, size), sweepID, start, end)
			k++
		}
	}

	// Everything below is outside the timed workload.
	d := newDigest()
	d.str(string(blob))
	for _, pts := range [][]*experiments.PointResult{sw.VirtIO, sw.XDMA} {
		for _, pt := range pts {
			n := int64(pt.Total.Count()) + int64(pt.Faulted)
			r.Pkts += n
			if pt.Driver == "virtio" {
				r.VPkts += n
			} else {
				r.XPkts += n
			}
			r.Attempted += n
			if pt.Faulted > 0 {
				r.fail("seed %d %s/%dB: %d faulted samples", seed, pt.Driver, pt.Payload, pt.Faulted)
			}
			if n != int64(p.Packets) {
				r.fail("seed %d %s/%dB: %d samples, want %d", seed, pt.Driver, pt.Payload, n, p.Packets)
			}
			for _, s := range pt.Total.Samples() {
				d.int(int64(s))
			}
			d.snapshot(pt.Metrics)
			r.Counts.add(pt.Metrics)
			replayed := int64(0)
			for _, ts := range pt.Tail {
				replayed = max(replayed, int64(ts.Index)+1)
			}
			r.ReplayPkts += replayed
			r.Attributed += int64(len(pt.Tail))
			if len(pt.Tail) == 0 {
				r.fail("seed %d %s/%dB: no tail attribution", seed, pt.Driver, pt.Payload)
			}
		}
	}
	r.Hash = d.sum()
	return r, nil
}

// fig3Boots measures the boots of one fig3 run at the run's seed. The
// sweep and the tail replay boot one session per cell each, inside the
// experiments engine, where no call can be timed from outside. So
// fvperf opens sessions with the same 20 configs itself, in a process
// of their own, and times those calls. Each VirtIO session also answers
// a seeded echo check.
func fig3Boots(e *env) (*rep, error) {
	r := &rep{Counts: newCounts(), Probe: true}
	root := e.spans.begin("rep fig3-boots", 0)
	defer e.spans.end(root)
	for _, size := range experiments.DefaultPayloads {
		for range 2 {
			ns, err := timedOpenNet(e, r, root, fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: e.seed}}, size)
			if err != nil {
				return nil, err
			}
			echoCheck(r, ns, e.seed, size, fmt.Sprintf("virtio/%dB", size))
			if _, err := timedOpenXDMA(e, r, root, fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: e.seed}}, size); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// modelRef is the run's model_err_pct: the paper's sweep (irq
// datapath, one request in flight, all ten cells) at each of
// sizes.ModelSeeds derived seeds, each compared with Table I, averaged.
// A timed run steps through its sweeps between repetitions, each in a
// child process, outside every timed section. One seed's host-noise
// stream drives all ten cells, so a single seed's error moves by
// several percent from seed to seed whatever the packet count;
// averaging seeds is what steadies it.
type modelRef struct {
	cfg       runConfig
	log       io.Writer
	done      int     // sweeps run
	total     float64 // sum of their errors
	attempted int64   // round trips they simulated
}

// pending reports whether sweeps remain.
func (m *modelRef) pending() bool { return m.done < m.cfg.sizes.ModelSeeds }

// step runs the next reference sweep and adds its error.
func (m *modelRef) step() error {
	out, err := runRef(m.cfg, m.done, m.log)
	if err != nil {
		return err
	}
	m.total += out.ErrPct
	m.attempted += out.Attempted
	m.done++
	return nil
}

// errPct is the mean error over the sweeps run.
func (m *modelRef) errPct() float64 { return ratio(m.total, float64(m.done)) }

// refOut is one reference sweep's error against Table I.
type refOut struct {
	ErrPct    float64 `json:"err_pct"`
	Attempted int64   `json:"attempted"` // round trips simulated
}

// refSweep runs reference sweep j of a run's model error, at the j-th
// seed derived from the run's seed.
func refSweep(seed uint64, j int, sz sizes) (*refOut, error) {
	t, err := loadTable1()
	if err != nil {
		return nil, err
	}
	p := experiments.Params{Seed: derivedSeed(seed, j), Packets: sz.ModelPackets}
	sw, err := experiments.RunSweepParallelWithProgress(p, fig3Workers, nil)
	if err != nil {
		return nil, err
	}
	out := &refOut{}
	var points []tailPoint
	for _, pt := range experiments.BuildArtifact("reference", sw).Points {
		out.Attempted += int64(p.Packets)
		if pt.Faulted > 0 || pt.Count != p.Packets {
			return nil, fmt.Errorf("reference %s/%dB: %d clean of %d samples", pt.Driver, pt.Payload, pt.Count, p.Packets)
		}
		points = append(points, tailPoint{pt.Driver, pt.Payload, pt.P95Ns, pt.P99Ns, pt.P999Ns})
	}
	if out.ErrPct, _, err = modelErrPct(t, points); err != nil {
		return nil, err
	}
	return out, nil
}

// timedOpenNet boots a VirtIO session and records the boot's host time.
func timedOpenNet(e *env, r *rep, parent int, cfg fpgavirtio.NetConfig, size int) (*fpgavirtio.NetSession, error) {
	id := e.spans.begin(fmt.Sprintf("boot virtio/%dB", size), parent)
	t := time.Now()
	ns, err := fpgavirtio.OpenNet(cfg)
	r.Boots = append(r.Boots, time.Since(t))
	e.spans.end(id)
	return ns, err
}

// timedOpenXDMA boots an XDMA session and records the boot's host time.
func timedOpenXDMA(e *env, r *rep, parent int, cfg fpgavirtio.XDMAConfig, size int) (*fpgavirtio.XDMASession, error) {
	id := e.spans.begin(fmt.Sprintf("boot xdma/%dB", size), parent)
	t := time.Now()
	xs, err := fpgavirtio.OpenXDMA(cfg)
	r.Boots = append(r.Boots, time.Since(t))
	e.spans.end(id)
	return xs, err
}

// ---- stream and poll -------------------------------------------------------

// session is what the checks need from either session type.
type session interface {
	Registry() *telemetry.Registry
	FaultEvents() int64
}

// measure times one measurement call of n packets on a booted session,
// and records its packets, allocations, faults and registry counts. A
// returned error fails all n packets, and the workload goes on with its
// next session.
func measure(e *env, r *rep, d *digest, parent int, s session, virtio bool, name string, n int, call func() error) (time.Duration, bool) {
	r.Attempted += int64(n)
	faults0 := s.FaultEvents()
	id := e.spans.begin(name, parent)
	alloc0 := allocBytes()
	t := time.Now()
	err := call()
	took := time.Since(t)
	r.Alloc += allocBytes() - alloc0
	e.spans.end(id)
	r.Measure += took
	if err != nil {
		r.Failed += int64(n)
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", name, err))
		return took, false
	}
	r.Pkts += int64(n)
	if virtio {
		r.VPkts += int64(n)
	} else {
		r.XPkts += int64(n)
	}
	if f := s.FaultEvents() - faults0; f != 0 {
		r.fail("%s: %d fault events", name, f)
	}
	snap := s.Registry().Snapshot()
	r.Counts.add(snap)
	d.snapshot(snap)
	return took, true
}

// streamArm is one of the stream workload's three configurations; a nil
// net config is the XDMA arm.
type streamArm struct {
	name string
	net  *fpgavirtio.NetConfig
}

func streamArms(seed uint64) []streamArm {
	base := fpgavirtio.Config{Seed: seed}
	return []streamArm{
		{"virtio-suppressed", &fpgavirtio.NetConfig{Config: base, UseEventIdx: true, TxKickBatch: 16, IRQCoalescePkts: 8, QueuePairs: 2}},
		{"virtio-forcekicks", &fpgavirtio.NetConfig{Config: base, ForceKicks: true}},
		{"xdma-desclist", nil},
	}
}

// streamRep streams closed-loop with 16 requests in flight through
// each arm at 64 B and 1024 B, one fresh session per stream.
func streamRep(e *env) (*rep, error) {
	r := &rep{Counts: newCounts()}
	root := e.spans.begin("rep stream", 0)
	defer e.spans.end(root)
	d := newDigest()
	for _, size := range []int{64, 1024} {
		for _, arm := range streamArms(e.seed) {
			what := fmt.Sprintf("%s/%dB", arm.name, size)
			sc := fpgavirtio.StreamConfig{Packets: e.sizes.StreamPackets, PayloadSize: size, Window: streamWindow}
			var res fpgavirtio.StreamResult
			var ns *fpgavirtio.NetSession
			var s session
			var call func() error
			if arm.net != nil {
				var err error
				if ns, err = timedOpenNet(e, r, root, *arm.net, size); err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				s, call = ns, func() (err error) { res, err = ns.Stream(sc); return err }
			} else {
				// XDMA moves payload+headers, the sweep's pairing rule.
				sc.PayloadSize += experiments.HeaderOverhead
				xs, err := timedOpenXDMA(e, r, root, fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: e.seed}}, size)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				s, call = xs, func() (err error) { res, err = xs.Stream(sc); return err }
			}
			took, ok := measure(e, r, d, root, s, ns != nil, "stream "+what, sc.Packets, call)
			if !ok {
				continue
			}
			if res.Packets != sc.Packets || res.Drops != 0 {
				r.fail("%s: streamed %d of %d packets, %d dropped", what, res.Packets, sc.Packets, res.Drops)
			}
			if e.traced {
				r.PktUs = append(r.PktUs, float64(took.Nanoseconds())/1e3/float64(sc.Packets))
			}
			for _, v := range []int64{int64(res.Elapsed), int64(res.Drops), int64(res.Backpressure),
				int64(res.OccupancyMax), int64(res.Doorbells), int64(res.Interrupts)} {
				d.int(v)
			}
			d.float(res.OccupancyMean)
			if ns != nil {
				echoCheck(r, ns, e.seed, size, what)
			}
		}
	}
	r.Wall = r.Measure + sum(r.Boots)
	r.Hash = d.sum()
	return r, nil
}

// pollRep runs ping-pong with both stacks on their busy-poll datapaths
// at 64 B and 1024 B, one fresh session per cell.
func pollRep(e *env) (*rep, error) {
	r := &rep{Counts: newCounts()}
	root := e.spans.begin("rep poll", 0)
	defer e.spans.end(root)
	d := newDigest()
	n := e.sizes.PollPackets
	cfg := fpgavirtio.Config{Seed: e.seed, PollMode: true}
	samples := make([]fpgavirtio.RTTSample, 0, n)
	var last time.Time
	sample := func(_ int, s fpgavirtio.RTTSample) {
		samples = append(samples, s)
		if e.traced {
			now := time.Now()
			r.PktUs = append(r.PktUs, float64(now.Sub(last).Nanoseconds())/1e3)
			last = now
		}
	}
	for _, size := range []int{64, 1024} {
		for _, virtio := range []bool{true, false} {
			samples = samples[:0]
			var ns *fpgavirtio.NetSession
			var s session
			var call func() error
			what := fmt.Sprintf("xdma-poll/%dB", size)
			if virtio {
				what = fmt.Sprintf("virtio-poll/%dB", size)
				var err error
				if ns, err = timedOpenNet(e, r, root, fpgavirtio.NetConfig{Config: cfg}, size); err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				s, call = ns, func() error { return ns.PingSeries(make([]byte, size), n, sample) }
			} else {
				xs, err := timedOpenXDMA(e, r, root, fpgavirtio.XDMAConfig{Config: cfg}, size)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				s, call = xs, func() error { return xs.RoundTripSeries(make([]byte, size+experiments.HeaderOverhead), n, sample) }
			}
			last = time.Now()
			if _, ok := measure(e, r, d, root, s, virtio, "series "+what, n, call); !ok {
				continue
			}
			if len(samples) != n {
				r.fail("%s: %d of %d samples", what, len(samples), n)
			}
			for _, v := range samples {
				d.int(int64(v.Total))
				d.int(int64(v.Hardware))
				d.int(int64(v.RespGen))
			}
			if ns != nil {
				echoCheck(r, ns, e.seed, size, what)
			}
		}
	}
	r.Wall = r.Measure + sum(r.Boots)
	r.Hash = d.sum()
	return r, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
