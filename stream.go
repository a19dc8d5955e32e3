package fpgavirtio

import (
	"fmt"
	"time"

	"fpgavirtio/internal/drivers/xdmadrv"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

// StreamConfig drives a fixed packet count at an offered rate through a
// configurable window of in-flight requests. Window 1 degenerates to
// the latency experiment: the engine then executes exactly the same
// per-packet sequence as Ping/RoundTrip and reports per-packet samples.
type StreamConfig struct {
	// Packets is the total number of packets to stream (default 1000).
	Packets int
	// PayloadSize is the UDP payload (VirtIO) or transfer size (XDMA)
	// in bytes (default 64).
	PayloadSize int
	// Window is the number of requests kept in flight (default 1).
	Window int
	// RatePPS is the offered rate in packets per second; 0 streams
	// closed-loop as fast as the window allows.
	RatePPS float64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Packets == 0 {
		c.Packets = 1000
	}
	if c.PayloadSize == 0 {
		c.PayloadSize = 64
	}
	if c.Window == 0 {
		c.Window = 1
	}
	return c
}

func (c StreamConfig) validate() error {
	if c.Packets < 1 {
		return fmt.Errorf("fpgavirtio: stream packets must be >= 1, got %d", c.Packets)
	}
	if c.PayloadSize < 1 {
		return fmt.Errorf("fpgavirtio: stream payload must be >= 1 byte, got %d", c.PayloadSize)
	}
	if c.Window < 1 {
		return fmt.Errorf("fpgavirtio: stream window must be >= 1, got %d", c.Window)
	}
	if c.RatePPS < 0 {
		return fmt.Errorf("fpgavirtio: stream rate must be >= 0, got %g", c.RatePPS)
	}
	return nil
}

// StreamResult reports one streaming run. Rates are computed over the
// application-observed wall time from first send to last completion.
type StreamResult struct {
	Packets      int
	PayloadBytes int
	Window       int
	Elapsed      time.Duration
	// PPS is completed packets per second; GoodputBps counts payload
	// bits only (headers and ring metadata excluded).
	PPS        float64
	GoodputBps float64
	// Drops counts stack-level receive drops during the stream;
	// Backpressure counts sends that missed their offered-rate slot
	// because the window or the device held them back.
	Drops        int
	Backpressure int
	// OccupancyMax/OccupancyMean describe the in-flight request count
	// (peak, and time-weighted mean) over the stream.
	OccupancyMax  int
	OccupancyMean float64
	// Doorbells and Interrupts are the signalling totals the stream
	// generated (notify MMIO writes / engine starts, and MSI-X messages).
	Doorbells  int
	Interrupts int
	// RTT holds the per-packet decomposition when Window == 1.
	RTT []RTTSample
}

// occTracker accumulates the time-weighted in-flight request count.
type occTracker struct {
	last     sim.Time
	inflight int
	acc      int64 // in-flight · picoseconds
	max      int
}

func (o *occTracker) update(now sim.Time, delta int) {
	o.acc += int64(o.inflight) * int64(now.Sub(o.last))
	o.last = now
	o.inflight += delta
	if o.inflight > o.max {
		o.max = o.inflight
	}
}

func (o *occTracker) mean(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(o.acc) / float64(elapsed)
}

// pacer meters sends to the offered rate; it reports how often the
// sender fell behind its schedule.
type pacer struct {
	start    sim.Time
	interval sim.Duration
	missed   int
}

func newPacer(start sim.Time, ratePPS float64) *pacer {
	p := &pacer{start: start}
	if ratePPS > 0 {
		p.interval = sim.NsF(1e9 / ratePPS)
	}
	return p
}

// wait blocks until packet seq's slot. Returns immediately (counting a
// miss) when the slot already passed.
func (pc *pacer) wait(h interface {
	Nanosleep(p *sim.Proc, d sim.Duration)
}, p *sim.Proc, seq int) {
	if pc.interval == 0 {
		return
	}
	scheduled := pc.start.Add(sim.Duration(seq) * pc.interval)
	if now := p.Now(); now < scheduled {
		h.Nanosleep(p, scheduled.Sub(now))
	} else if seq > 0 {
		pc.missed++
	}
}

// publishStreamMetrics mirrors a stream result into the session's
// telemetry registry, alongside the per-layer instruments.
func publishStreamMetrics(reg *telemetry.Registry, res StreamResult) {
	reg.Counter(telemetry.MetricStreamPackets).Add(int64(res.Packets))
	reg.Counter(telemetry.MetricStreamBackpressure).Add(int64(res.Backpressure))
	reg.Counter(telemetry.MetricStreamDrops).Add(int64(res.Drops))
	reg.Gauge(telemetry.MetricStreamWindow).Set(float64(res.Window))
	reg.Gauge(telemetry.MetricStreamPPS).Set(res.PPS)
	reg.Gauge(telemetry.MetricStreamGoodputBps).Set(res.GoodputBps)
	reg.Gauge(telemetry.MetricStreamOccupancyMax).Set(float64(res.OccupancyMax))
	reg.Gauge(telemetry.MetricStreamOccupancyMean).Set(res.OccupancyMean)
	reg.Gauge(telemetry.MetricStreamDoorbells).Set(float64(res.Doorbells))
	reg.Gauge(telemetry.MetricStreamInterrupts).Set(float64(res.Interrupts))
}

// Stream drives cfg.Packets echo exchanges through the VirtIO path with
// cfg.Window requests in flight. Window 1 runs the exact latency-mode
// sequence per packet and fills StreamResult.RTT; larger windows stream
// closed-loop (or paced) and report aggregate throughput figures.
func (ns *NetSession) Stream(cfg StreamConfig) (StreamResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return StreamResult{}, err
	}
	res := StreamResult{Packets: cfg.Packets, PayloadBytes: cfg.PayloadSize, Window: cfg.Window}

	dropsBefore := ns.Registry().Counter(telemetry.MetricNetstackRxDropped).Value()
	notifyBefore := ns.dev.Controller().NotifyCount()
	irqsBefore := ns.BusStats().Interrupts

	var elapsed sim.Duration
	var occ occTracker
	var pc *pacer
	err := ns.run(func(p *sim.Proc) error {
		payload := make([]byte, cfg.PayloadSize)
		pc = newPacer(p.Now(), cfg.RatePPS)
		if cfg.Window == 1 {
			res.RTT = make([]RTTSample, 0, cfg.Packets)
			t0 := ns.host.ClockGettime(p)
			for i := 0; i < cfg.Packets; i++ {
				pc.wait(ns.host, p, i)
				_, s, err := ns.pingOnce(p, payload)
				if err != nil {
					return err
				}
				res.RTT = append(res.RTT, s)
			}
			elapsed = ns.host.ClockGettime(p).Sub(t0)
			return nil
		}

		occ.last = p.Now()
		tagSeq := ns.drv.QueuePairs() > 1 && cfg.PayloadSize >= 4
		send := func(seq int) error {
			pc.wait(ns.host, p, seq)
			if tagSeq {
				// Distinguish packets across queue pairs, where
				// completion order is no longer FIFO.
				payload[0] = byte(seq)
				payload[1] = byte(seq >> 8)
				payload[2] = byte(seq >> 16)
				payload[3] = byte(seq >> 24)
			}
			if err := ns.sock.SendTo(p, fpgaIP, echoPort, payload); err != nil {
				return err
			}
			occ.update(p.Now(), +1)
			return nil
		}

		t0 := ns.host.ClockGettime(p)
		sent, recvd := 0, 0
		for sent < cfg.Window && sent < cfg.Packets {
			if err := send(sent); err != nil {
				return err
			}
			sent++
		}
		for recvd < cfg.Packets {
			if ns.sock.Pending() == 0 {
				// Nothing deliverable: make sure no packet is stuck
				// behind a deferred TxKickBatch doorbell before blocking.
				ns.drv.FlushTx(p)
			}
			if _, err := ns.recv(p); err != nil {
				return err
			}
			// Windowed streaming has no per-packet RTTSample, so the
			// flight recorder's fault trigger is checked per completion.
			ns.flight.noteFaults()
			occ.update(p.Now(), -1)
			recvd++
			if sent < cfg.Packets {
				if err := send(sent); err != nil {
					return err
				}
				sent++
			}
		}
		elapsed = ns.host.ClockGettime(p).Sub(t0)
		occ.update(p.Now(), 0)

		// Drain the per-queue hardware counters so later detailed pings
		// pair samples correctly (windowed runs leave many behind).
		for pair := 0; pair < ns.drv.QueuePairs(); pair++ {
			ns.dev.Controller().QueueCounter(virtio.NetRXQueue(pair)).Reset()
			ns.dev.Controller().QueueCounter(virtio.NetTXQueue(pair)).Reset()
		}
		ns.dev.RespGenCounter().Reset()
		return nil
	})
	if err != nil {
		return StreamResult{}, err
	}

	res.Drops = int(ns.Registry().Counter(telemetry.MetricNetstackRxDropped).Value() - dropsBefore)
	res.Doorbells = ns.dev.Controller().NotifyCount() - notifyBefore
	return ns.finishStream(res, elapsed, pc, &occ, irqsBefore), nil
}

// Stream drives cfg.Packets write/read exchanges through the XDMA path
// with cfg.Window transfers per descriptor list. Window 1 runs the
// exact latency-mode sequence per packet and fills StreamResult.RTT;
// larger windows pipeline H2C and C2H batches through double-buffered
// card regions, one chained descriptor list per direction per batch.
func (xs *XDMASession) Stream(cfg StreamConfig) (StreamResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return StreamResult{}, err
	}
	res := StreamResult{Packets: cfg.Packets, PayloadBytes: cfg.PayloadSize, Window: cfg.Window}

	regionBytes := cfg.Window * cfg.PayloadSize
	if cfg.Window > 1 {
		if cfg.Window > xdmadrv.MaxBatchDescs {
			return StreamResult{}, fmt.Errorf("fpgavirtio: stream window %d exceeds descriptor list limit %d", cfg.Window, xdmadrv.MaxBatchDescs)
		}
		if regionBytes > xdmadrv.MaxTransfer {
			return StreamResult{}, fmt.Errorf("fpgavirtio: stream batch of %d bytes exceeds bounce buffer", regionBytes)
		}
		if 2*regionBytes > xs.bramBytes {
			return StreamResult{}, fmt.Errorf("fpgavirtio: stream needs %d bytes of card memory, device has %d", 2*regionBytes, xs.bramBytes)
		}
	}

	h2cBefore := xs.drv.H2CStats()
	c2hBefore := xs.drv.C2HStats()
	irqsBefore := xs.BusStats().Interrupts

	var elapsed sim.Duration
	var occ occTracker
	var pc *pacer
	err := xs.run(func(p *sim.Proc) error {
		pc = newPacer(p.Now(), cfg.RatePPS)
		if cfg.Window == 1 {
			res.RTT = make([]RTTSample, 0, cfg.Packets)
			data := make([]byte, cfg.PayloadSize)
			back := make([]byte, cfg.PayloadSize)
			t0 := xs.host.ClockGettime(p)
			for i := 0; i < cfg.Packets; i++ {
				pc.wait(xs.host, p, i)
				s, err := xs.roundTripInto(p, data, back)
				if err != nil {
					return err
				}
				res.RTT = append(res.RTT, s)
			}
			elapsed = xs.host.ClockGettime(p).Sub(t0)
			return nil
		}

		occ.last = p.Now()
		batches := (cfg.Packets + cfg.Window - 1) / cfg.Window
		batchSize := func(b int) int {
			n := cfg.Packets - b*cfg.Window
			if n > cfg.Window {
				n = cfg.Window
			}
			return n
		}
		payloadFor := func(seq int) []byte {
			b := make([]byte, cfg.PayloadSize)
			for i := range b {
				b[i] = byte(seq*131 + i)
			}
			return b
		}
		regionBase := func(b int) uint64 { return uint64((b % 2) * regionBytes) }

		cond := sim.NewCond(xs.s, "xdma.stream")
		written, readDone := 0, 0
		var writerErr error

		t0 := xs.host.ClockGettime(p)
		xs.s.Go("stream-writer", func(wp *sim.Proc) {
			for b := 0; b < batches; b++ {
				// Double buffering: region b%2 is free once batch b-2
				// has been read back.
				for readDone < b-1 {
					cond.Wait(wp)
				}
				n := batchSize(b)
				pc.wait(xs.host, wp, b*cfg.Window)
				payloads := make([][]byte, n)
				for i := range payloads {
					payloads[i] = payloadFor(b*cfg.Window + i)
				}
				if err := xs.drv.WriteBatch(wp, regionBase(b), cfg.PayloadSize, payloads); err != nil {
					writerErr = err
					cond.Broadcast()
					return
				}
				occ.update(wp.Now(), n)
				written++
				cond.Broadcast()
			}
		})

		for b := 0; b < batches; b++ {
			for written <= b && writerErr == nil {
				cond.Wait(p)
			}
			if writerErr != nil {
				return writerErr
			}
			n := batchSize(b)
			bufs := make([][]byte, n)
			for i := range bufs {
				bufs[i] = make([]byte, cfg.PayloadSize)
			}
			if err := xs.drv.ReadBatch(p, regionBase(b), cfg.PayloadSize, bufs); err != nil {
				return err
			}
			for i, buf := range bufs {
				want := payloadFor(b*cfg.Window + i)
				for j := range buf {
					if buf[j] != want[j] {
						return fmt.Errorf("fpgavirtio: stream data mismatch in packet %d", b*cfg.Window+i)
					}
				}
			}
			// Batched streaming has no per-packet RTTSample, so the
			// flight recorder's fault trigger is checked per batch.
			xs.flight.noteFaults()
			occ.update(p.Now(), -n)
			readDone++
			cond.Broadcast()
		}
		elapsed = xs.host.ClockGettime(p).Sub(t0)
		occ.update(p.Now(), 0)

		// Drain the engine counters so later detailed round trips pair
		// samples correctly.
		xs.dev.H2CCounter().Reset()
		xs.dev.C2HCounter().Reset()
		return nil
	})
	if err != nil {
		return StreamResult{}, err
	}

	// Engine starts are the XDMA path's doorbell analogue.
	res.Doorbells = (xs.drv.H2CStats() - h2cBefore) + (xs.drv.C2HStats() - c2hBefore)
	return xs.finishStream(res, elapsed, pc, &occ, irqsBefore), nil
}
