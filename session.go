package fpgavirtio

import (
	"fmt"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// session is the testbed plumbing every device personality shares: the
// simulation, the host, the fault injector and the always-on flight
// recorder (installed only by stacks that read it), plus the FPGA
// endpoint whose bus counters BusStats folds.
// NetSession and XDMASession embed it, so its exported methods are part
// of their API; ConsoleSession and BlkSession hold it as a named field.
// What a round trip is stays with each stack.
type session struct {
	s      *sim.Sim
	host   *hostos.Host
	faults *faults.Injector
	flight *flightWatch
	ep     *pcie.Endpoint
}

// boot brings up a testbed: parse the fault plan, create the sim and
// host, arm the injector, let attach build the FPGA side (device,
// anything else constructed before boot, and the flight watch if the
// stack reads one) and return its endpoint, then enumerate the bus in a
// boot process and hand the single device found to probe.
func (c *session) boot(cfg Config, attach func() *pcie.Endpoint, probe func(p *sim.Proc, info *pcie.DeviceInfo) error) error {
	plan, err := faults.Parse(cfg.Faults)
	if err != nil {
		return err
	}
	c.s = sim.New()
	c.host = hostos.New(c.s, hostMemBytes, cfg.hostConfig(), cfg.Seed)
	// Arm fault injection before the device attaches so the endpoint
	// sees the injector from its first TLP. The injector draws from its
	// own fork of the seed, leaving the host-noise stream untouched.
	c.faults = faults.NewInjector(plan, sim.NewRNG(cfg.Seed).Fork("faults"), c.host.Metrics())
	c.host.RC.SetFaults(c.faults)
	c.ep = attach()

	var bootErr error
	booted := false
	c.s.Go("boot", func(p *sim.Proc) {
		defer c.s.Stop()
		infos := c.host.RC.Enumerate(p)
		if len(infos) != 1 {
			bootErr = fmt.Errorf("fpgavirtio: enumerated %d devices, want 1", len(infos))
			return
		}
		bootErr = probe(p, infos[0])
		booted = bootErr == nil
	})
	if err := c.s.Run(); err != nil {
		return err
	}
	if bootErr != nil {
		return bootErr
	}
	if !booted {
		return fmt.Errorf("fpgavirtio: session did not boot")
	}
	return nil
}

// watchFlight installs the always-on flight recorder. Called at the end
// of attach, so the ring already holds context when the first trigger
// fires. It rides the FlightSink channel, so TracingSpans() stays false
// and the 0-alloc hot path is unaffected.
func (c *session) watchFlight() {
	c.flight = newFlightWatch(c.s, c.faults, c.host.Metrics())
}

// run executes fn as an application process and drives the simulation
// until it finishes.
func (c *session) run(fn func(p *sim.Proc) error) error {
	var opErr error
	done := false
	c.s.Go("app", func(p *sim.Proc) {
		defer c.s.Stop()
		opErr = fn(p)
		done = true
	})
	err := c.s.Run()
	publishSimStats(c.s, c.host.Metrics())
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("fpgavirtio: operation did not complete")
	}
	return opErr
}

// Registry returns the session's telemetry metrics registry, holding
// the per-layer instruments every subsystem registered at boot.
func (c *session) Registry() *telemetry.Registry { return c.host.Metrics() }

// FaultPlan reports the armed fault plan's canonical string (empty when
// no injection is armed).
func (c *session) FaultPlan() string { return c.faults.Plan().String() }

// FaultEvents reports the total number of faults injected so far.
func (c *session) FaultEvents() int64 { return c.faults.Total() }

// FaultSummary reports per-class injected-fault counts (nil when no
// injection is armed).
func (c *session) FaultSummary() map[string]int64 { return c.faults.Summary() }

// FlightDumps returns the post-mortem snapshots the always-on flight
// recorder has taken so far (fault recoveries, new worst-case round
// trips), oldest trigger first.
func (c *session) FlightDumps() []telemetry.FlightDump { return c.flight.dumps() }

// AppendLastSpans appends to dst the flight-ring spans of the latest
// round trip (retries included): those begun since it started and
// closed by now — what a span Recorder installed around that one round
// trip would hold. Inside a PingSeries or RoundTripSeries callback that
// is the round trip just reported. Allocation-free once dst has grown;
// it errors instead of returning a partial window when the ring could
// not hold the whole round trip.
func (c *session) AppendLastSpans(dst []telemetry.FlightSpan) ([]telemetry.FlightSpan, error) {
	return c.flight.appendLast(dst)
}

// BusStats returns the FPGA endpoint's accumulated bus counters.
func (c *session) BusStats() BusStats {
	st := c.ep.Stats()
	out := BusStats{DownBytes: st.DownBytes, UpBytes: st.UpBytes, Interrupts: st.Interrupts}
	for _, n := range st.DownTLPs {
		out.DownTLPs += n
	}
	for _, n := range st.UpTLPs {
		out.UpTLPs += n
	}
	return out
}

// recordSpans runs op with a fresh span Recorder installed as the sim's
// span sink and returns what it recorded. Span emission is a pure
// recording hook, so op's simulated timing is the same either way.
func (c *session) recordSpans(op func() error) (*telemetry.Recorder, error) {
	rec := telemetry.NewRecorder(0)
	c.s.SetSpanSink(rec)
	defer c.s.SetSpanSink(nil)
	return rec, op()
}

// breakdown runs rounds measured operations under one span recorder and
// folds the spans into the report.
func (c *session) breakdown(driver string, rounds, payload int, round func() (RTTSample, error)) (BreakdownReport, error) {
	if rounds <= 0 {
		return BreakdownReport{}, fmt.Errorf("fpgavirtio: breakdown needs rounds > 0, got %d", rounds)
	}
	samples := make([]RTTSample, 0, rounds)
	rec, err := c.recordSpans(func() error {
		for i := 0; i < rounds; i++ {
			sample, err := round()
			if err != nil {
				return err
			}
			samples = append(samples, sample)
		}
		return nil
	})
	if err != nil {
		return BreakdownReport{}, err
	}
	return foldBreakdown(driver, rounds, payload, rec, samples), nil
}

// trace captures every simulation event and telemetry span of op.
func (c *session) trace(op func() error) (*Trace, error) {
	tr := &sim.RecordingTracer{Max: maxTraceEvents}
	c.s.SetTracer(tr)
	rec, err := c.recordSpans(op)
	c.s.SetTracer(nil)
	if err != nil {
		return nil, err
	}
	return buildTrace(tr, rec), nil
}

// captureCriticalPaths replays the deterministic round-trip series up
// to the largest target index and returns the critical-path analysis of
// each targeted round trip. The span recorder is installed only around
// targeted indices.
func (c *session) captureCriticalPaths(targets []int, roundTrip func(p *sim.Proc) (RTTSample, error)) ([]CapturedPath, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	want := make(map[int]bool, len(targets))
	maxT := 0
	for _, t := range targets {
		if t < 0 {
			return nil, fmt.Errorf("fpgavirtio: negative capture target %d", t)
		}
		want[t] = true
		if t > maxT {
			maxT = t
		}
	}
	out := make([]CapturedPath, 0, len(targets))
	err := c.run(func(p *sim.Proc) error {
		for i := 0; i <= maxT; i++ {
			var s RTTSample
			var rec *telemetry.Recorder
			var err error
			if want[i] {
				rec, err = c.recordSpans(func() (err error) {
					s, err = roundTrip(p)
					return err
				})
			} else {
				s, err = roundTrip(p)
			}
			if err != nil {
				return fmt.Errorf("fpgavirtio: replay round trip %d: %w", i, err)
			}
			if rec == nil {
				continue
			}
			cp, err := telemetry.AnalyzeCriticalPath(rec.Spans())
			if err != nil {
				return fmt.Errorf("fpgavirtio: replay round trip %d: %w", i, err)
			}
			out = append(out, CapturedPath{Index: i, RTT: sim.Ns(s.Total.Nanoseconds()), Path: cp})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// finishStream fills in what every stream reports from its measured
// window — rates, backpressure, occupancy and the interrupts since
// irqsBefore — and publishes the result to the registry. The stack has
// already set its own counters (doorbells, drops).
func (c *session) finishStream(res StreamResult, elapsed sim.Duration, pc *pacer, occ *occTracker, irqsBefore int) StreamResult {
	res.Elapsed = toStd(elapsed)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.PPS = float64(res.Packets) / secs
		res.GoodputBps = float64(res.Packets) * float64(res.PayloadBytes) * 8 / secs
	}
	res.Backpressure = pc.missed
	res.OccupancyMax = occ.max
	res.OccupancyMean = occ.mean(elapsed)
	if res.Window == 1 {
		res.OccupancyMax = 1
		res.OccupancyMean = 1
	}
	res.Interrupts = c.BusStats().Interrupts - irqsBefore
	publishStreamMetrics(c.Registry(), res)
	return res
}
