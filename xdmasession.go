package fpgavirtio

import (
	"bytes"
	"fmt"
	"time"

	"fpgavirtio/internal/drivers/xdmadrv"
	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/xdmaip"
)

// XDMAConfig configures a vendor-driver session. The zero value (plus
// Config) reproduces the paper's baseline: the XDMA example design
// (BRAM behind the DMA engine, no user logic), driven through the
// reference character-device driver.
type XDMAConfig struct {
	Config
	// WaitC2HReady switches from the paper's favourable back-to-back
	// setup to the realistic one (§IV-C): user logic raises a
	// data-ready interrupt after the H2C transfer, and the application
	// waits for it before issuing the read.
	WaitC2HReady bool
}

// XDMASession is a booted vendor-path testbed.
type XDMASession struct {
	s    *sim.Sim
	host *hostos.Host
	dev  *xdmaip.VendorDevice
	drv  *xdmadrv.Driver
	h2c  *hostos.File
	c2h  *hostos.File

	waitReady bool
	readyWQ   *hostos.WaitQueue
	dataReady bool
	bramBytes int
	faults    *faults.Injector
	flight    *flightWatch
}

// OpenXDMA boots the vendor baseline: attach the XDMA example design,
// enumerate, probe the reference driver, open both device nodes.
func OpenXDMA(cfg XDMAConfig) (*XDMASession, error) {
	plan, err := faults.Parse(cfg.Faults)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	h := hostos.New(s, hostMemBytes, cfg.hostConfig(), cfg.Seed)
	// Arm fault injection before the device attaches so the endpoint
	// sees the injector from its first TLP. The injector draws from its
	// own fork of the seed, leaving the host-noise stream untouched.
	inj := faults.NewInjector(plan, sim.NewRNG(cfg.Seed).Fork("faults"), h.Metrics())
	h.RC.SetFaults(inj)
	devCfg := xdmaip.DefaultConfig()
	devCfg.Link = cfg.Link.config()
	devCfg.NotifyOnH2CComplete = cfg.WaitC2HReady
	dev := xdmaip.NewVendor(s, h.RC, "xdma0", devCfg)
	xs := &XDMASession{s: s, host: h, dev: dev, waitReady: cfg.WaitC2HReady, bramBytes: devCfg.BRAMBytes, faults: inj}
	// Always-on flight recorder: installed before boot so the ring
	// already holds context when the first trigger fires.
	xs.flight = newFlightWatch(s, inj, h.Metrics())

	var bootErr error
	booted := false
	s.Go("boot", func(p *sim.Proc) {
		defer s.Stop()
		infos := h.RC.Enumerate(p)
		if len(infos) != 1 {
			bootErr = fmt.Errorf("fpgavirtio: enumerated %d devices, want 1", len(infos))
			return
		}
		drv, err := xdmadrv.ProbeWithOptions(p, h, infos[0], "xdma0",
			xdmadrv.Options{PollMode: cfg.PollMode})
		if err != nil {
			bootErr = err
			return
		}
		xs.drv = drv
		if xs.h2c, err = h.Open("/dev/xdma0_h2c_0"); err != nil {
			bootErr = err
			return
		}
		if xs.c2h, err = h.Open("/dev/xdma0_c2h_0"); err != nil {
			bootErr = err
			return
		}
		if xs.waitReady {
			// Realistic mode: enable user interrupt 0 and register the
			// data-ready handler the stock example design lacks.
			xs.readyWQ = h.NewWaitQueue("xdma.ready")
			h.RC.MMIOWrite(p, infos[0].BAR[1]+xdmaip.IRQBlockBase+xdmaip.RegIRQUserEnable, 4, 1)
			h.RegisterIRQ(infos[0].EP, xdmaip.VecUserBase, func(ip *sim.Proc) {
				h.CPUWork(ip, 300*sim.Nanosecond)
				xs.dataReady = true
				xs.readyWQ.Wake()
			})
		}
		booted = true
	})
	if err := s.Run(); err != nil {
		return nil, err
	}
	if bootErr != nil {
		return nil, bootErr
	}
	if !booted {
		return nil, fmt.Errorf("fpgavirtio: xdma session did not boot")
	}
	return xs, nil
}

func (xs *XDMASession) run(fn func(p *sim.Proc) error) error {
	var opErr error
	done := false
	xs.s.Go("app", func(p *sim.Proc) {
		defer xs.s.Stop()
		opErr = fn(p)
		done = true
	})
	err := xs.s.Run()
	publishSimStats(xs.s, xs.host.Metrics())
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("fpgavirtio: operation did not complete")
	}
	return opErr
}

// RoundTrip writes data to the FPGA and reads the same number of bytes
// back, exactly the paper's XDMA test-program loop: back-to-back
// write() and read() with no device-side wait in between (the
// favourable setup of §IV-C), returning the total round-trip time.
func (xs *XDMASession) RoundTrip(data []byte) (time.Duration, error) {
	sample, err := xs.RoundTripDetailed(data)
	return sample.Total, err
}

// RoundTripDetailed is RoundTrip plus the hardware-counter
// decomposition (H2C engine time + C2H engine time).
func (xs *XDMASession) RoundTripDetailed(data []byte) (RTTSample, error) {
	var sample RTTSample
	err := xs.run(func(p *sim.Proc) error {
		var err error
		sample, err = xs.roundTripOnce(p, data)
		return err
	})
	return sample, err
}

// RoundTripSeries runs n timed write/read exchanges inside one
// application process, reusing a single read-back buffer — the sweep's
// hot loop, allocation-free in steady state. sample (optional)
// receives each round trip's index and decomposition as it completes.
func (xs *XDMASession) RoundTripSeries(data []byte, n int, sample func(i int, s RTTSample)) error {
	back := make([]byte, len(data))
	return xs.run(func(p *sim.Proc) error {
		for i := 0; i < n; i++ {
			s, err := xs.roundTripInto(p, data, back)
			if err != nil {
				return fmt.Errorf("fpgavirtio: round trip %d: %w", i, err)
			}
			if sample != nil {
				sample(i, s)
			}
		}
		return nil
	})
}

// roundTripOnce runs one timed write/read exchange inside an
// application process. Both the latency mode and the window=1 streaming
// mode execute exactly this sequence, which is what makes their
// per-packet results agree.
func (xs *XDMASession) roundTripOnce(p *sim.Proc, data []byte) (RTTSample, error) {
	return xs.roundTripInto(p, data, make([]byte, len(data)))
}

// roundTripInto is roundTripOnce with a caller-supplied read-back
// buffer (len(back) must equal len(data)). Under fault injection a
// round trip whose read-back does not match (a corrupted DMA read or a
// dropped DMA write) is retried end to end a bounded number of times —
// the application-level recovery the character-device interface forces,
// since the driver has no integrity information of its own.
func (xs *XDMASession) roundTripInto(p *sim.Proc, data, back []byte) (RTTSample, error) {
	// One mark covers the retries: a round trip's window spans them all.
	xs.flight.begin()
	sample, err := xs.roundTripAttempt(p, data, back)
	if xs.faults == nil || err == nil || err != errDataMismatch {
		if err == nil {
			xs.flight.note(sample)
		} else {
			xs.flight.noteFaults()
		}
		return sample, err
	}
	for retry := 0; retry < 2; retry++ {
		xs.drv.NoteDataRetry()
		sample, err = xs.roundTripAttempt(p, data, back)
		if err != errDataMismatch {
			if err == nil {
				xs.flight.note(sample)
			}
			return sample, err
		}
	}
	xs.flight.noteFaults()
	return sample, fmt.Errorf("fpgavirtio: xdma round-trip data mismatch persisted across retries")
}

// errDataMismatch flags a round trip whose read-back differed from the
// written data.
var errDataMismatch = fmt.Errorf("fpgavirtio: xdma round-trip data mismatch")

func (xs *XDMASession) roundTripAttempt(p *sim.Proc, data, back []byte) (RTTSample, error) {
	t0 := xs.host.ClockGettime(p)
	// The app span brackets the same instants as the RTT timer, so
	// span-derived totals agree with RTTSample.Total.
	sp := xs.s.BeginSpan(telemetry.LayerApp, "roundtrip")
	if xs.waitReady {
		xs.dataReady = false
	}
	if _, err := xs.h2c.Write(p, data); err != nil {
		sp.End()
		return RTTSample{}, err
	}
	if xs.waitReady {
		// poll(2) on the user-interrupt eventfd, then re-arm.
		xs.host.SyscallEnter(p)
		for !xs.dataReady {
			xs.readyWQ.Wait(p)
		}
		xs.host.SyscallExit(p)
	}
	if _, err := xs.c2h.Read(p, back); err != nil {
		sp.End()
		return RTTSample{}, err
	}
	t1 := xs.host.ClockGettime(p)
	sp.End()
	if !bytes.Equal(back, data) {
		return RTTSample{}, errDataMismatch
	}
	total := t1.Sub(t0)
	var hw sim.Duration
	if d, ok := xs.dev.H2CCounter().TakeLast(); ok {
		hw += d
	}
	if d, ok := xs.dev.C2HCounter().TakeLast(); ok {
		hw += d
	}
	return RTTSample{
		Total:    toStd(total),
		Hardware: toStd(hw),
		Software: toStd(total - hw),
	}, nil
}

// Registry returns the session's telemetry metrics registry, holding
// the per-layer instruments every subsystem registered at boot.
func (xs *XDMASession) Registry() *telemetry.Registry { return xs.host.Metrics() }

// FaultPlan reports the armed fault plan's canonical string (empty when
// no injection is armed).
func (xs *XDMASession) FaultPlan() string {
	if xs.faults == nil {
		return ""
	}
	return xs.faults.Plan().String()
}

// FaultEvents reports the total number of faults injected so far.
func (xs *XDMASession) FaultEvents() int64 { return xs.faults.Total() }

// FaultSummary reports per-class injected-fault counts (nil when no
// injection is armed).
func (xs *XDMASession) FaultSummary() map[string]int64 { return xs.faults.Summary() }

// FlightDumps returns the post-mortem snapshots the always-on flight
// recorder has taken so far (fault recoveries, new worst-case round
// trips), oldest trigger first.
func (xs *XDMASession) FlightDumps() []telemetry.FlightDump { return xs.flight.dumps() }

// AppendLastSpans appends to dst the flight-ring spans of the latest
// round trip, retries included: those begun since it started and
// closed by now. Inside a RoundTripSeries callback that is the round
// trip just reported. Allocation-free once dst has grown; it errors
// instead of returning a partial window.
func (xs *XDMASession) AppendLastSpans(dst []telemetry.FlightSpan) ([]telemetry.FlightSpan, error) {
	return xs.flight.appendLast(dst)
}

// CaptureCriticalPaths replays the deterministic round-trip series up
// to the largest target index and returns the critical-path analysis
// of each targeted exchange. It must be called on a freshly opened
// session with the same config as the measured run: sessions are pure
// functions of their seed, so round trip i here is the same round
// trip i the measurement saw.
//
// The sweep's tail attribution no longer replays: it reads each
// round trip's window with AppendLastSpans during the measurement.
// This replay is the oracle that single pass is tested against.
func (xs *XDMASession) CaptureCriticalPaths(data []byte, targets []int) ([]CapturedPath, error) {
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
	rec := telemetry.NewRecorder(0)
	back := make([]byte, len(data))
	out := make([]CapturedPath, 0, len(targets))
	err := xs.run(func(p *sim.Proc) error {
		for i := 0; i <= maxT; i++ {
			capture := want[i]
			if capture {
				rec.Reset()
				xs.s.SetSpanSink(rec)
			}
			s, err := xs.roundTripInto(p, data, back)
			if capture {
				xs.s.SetSpanSink(nil)
			}
			if err != nil {
				return fmt.Errorf("fpgavirtio: replay round trip %d: %w", i, err)
			}
			if capture {
				cp, err := telemetry.AnalyzeCriticalPath(rec.Spans())
				if err != nil {
					return fmt.Errorf("fpgavirtio: replay round trip %d: %w", i, err)
				}
				out = append(out, CapturedPath{Index: i, RTT: sim.Ns(s.Total.Nanoseconds()), Path: cp})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BusStats returns the FPGA endpoint's accumulated bus counters.
func (xs *XDMASession) BusStats() BusStats {
	st := xs.dev.EP().Stats()
	out := BusStats{DownBytes: st.DownBytes, UpBytes: st.UpBytes, Interrupts: st.Interrupts}
	for _, n := range st.DownTLPs {
		out.DownTLPs += n
	}
	for _, n := range st.UpTLPs {
		out.UpTLPs += n
	}
	return out
}
