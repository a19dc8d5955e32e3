package fpgavirtio

import (
	"bytes"
	"fmt"
	"time"

	"fpgavirtio/internal/drivers/xdmadrv"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/pcie"
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
	session
	dev *xdmaip.VendorDevice
	drv *xdmadrv.Driver
	h2c *hostos.File
	c2h *hostos.File

	waitReady bool
	readyWQ   *hostos.WaitQueue
	dataReady bool
	bramBytes int
}

// OpenXDMA boots the vendor baseline: attach the XDMA example design,
// enumerate, probe the reference driver, open both device nodes.
func OpenXDMA(cfg XDMAConfig) (*XDMASession, error) {
	devCfg := xdmaip.DefaultConfig()
	devCfg.Link = cfg.Link.config()
	devCfg.NotifyOnH2CComplete = cfg.WaitC2HReady
	xs := &XDMASession{waitReady: cfg.WaitC2HReady, bramBytes: devCfg.BRAMBytes}
	attach := func() *pcie.Endpoint {
		xs.dev = xdmaip.NewVendor(xs.s, xs.host.RC, "xdma0", devCfg)
		xs.watchFlight()
		return xs.dev.EP()
	}
	probe := func(p *sim.Proc, info *pcie.DeviceInfo) error {
		h := xs.host
		drv, err := xdmadrv.ProbeWithOptions(p, h, info, "xdma0",
			xdmadrv.Options{PollMode: cfg.PollMode})
		if err != nil {
			return err
		}
		xs.drv = drv
		if xs.h2c, err = h.Open("/dev/xdma0_h2c_0"); err != nil {
			return err
		}
		if xs.c2h, err = h.Open("/dev/xdma0_c2h_0"); err != nil {
			return err
		}
		if xs.waitReady {
			// Realistic mode: enable user interrupt 0 and register the
			// data-ready handler the stock example design lacks.
			xs.readyWQ = h.NewWaitQueue("xdma.ready")
			h.RC.MMIOWrite(p, info.BAR[1]+xdmaip.IRQBlockBase+xdmaip.RegIRQUserEnable, 4, 1)
			h.RegisterIRQ(info.EP, xdmaip.VecUserBase, func(ip *sim.Proc) {
				h.CPUWork(ip, 300*sim.Nanosecond)
				xs.dataReady = true
				xs.readyWQ.Wake()
			})
		}
		return nil
	}
	if err := xs.boot(cfg.Config, attach, probe); err != nil {
		return nil, err
	}
	return xs, nil
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
	back := make([]byte, len(data))
	err := xs.run(func(p *sim.Proc) error {
		var err error
		sample, err = xs.roundTripInto(p, data, back)
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

// roundTripInto runs one timed write/read exchange inside an
// application process, reading back into back (len(back) must equal
// len(data)). Both the latency mode and the window=1 streaming mode
// execute exactly this sequence, which is what makes their per-packet
// results agree. Under fault injection a
// round trip whose read-back does not match (a corrupted DMA read or a
// dropped DMA write) is retried end to end a bounded number of times —
// the application-level recovery the character-device interface forces,
// since the driver has no integrity information of its own.
func (xs *XDMASession) roundTripInto(p *sim.Proc, data, back []byte) (RTTSample, error) {
	// One mark covers the retries: a round trip's window spans them all.
	xs.flight.begin()
	sample, err := xs.roundTripAttempt(p, data, back)
	// The injector is nil when no fault plan is armed; a mismatch then
	// is a model bug, reported rather than retried.
	if xs.faults == nil || err != errDataMismatch {
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
	back := make([]byte, len(data))
	return xs.captureCriticalPaths(targets, func(p *sim.Proc) (RTTSample, error) {
		return xs.roundTripInto(p, data, back)
	})
}
