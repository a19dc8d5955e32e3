package pcie

import (
	"fmt"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// LinkConfig describes a PCIe link's generation and width plus the
// transaction-layer limits negotiated during training.
type LinkConfig struct {
	Gen   int // 1..4
	Lanes int // 1, 2, 4, 8, 16

	// MPS is Max_Payload_Size for MWr/CplD TLPs; MRRS is the maximum
	// read-request size. Defaults (128/512) match the XDMA defaults on
	// the paper's Artix-7 board.
	MPS  int
	MRRS int

	// Prop is the one-way flight+PHY/pipeline latency of a TLP.
	Prop sim.Duration
}

// DefaultGen2x2 is the paper testbed's link: Alinx AX7A200, two Gen2 lanes.
func DefaultGen2x2() LinkConfig {
	return LinkConfig{Gen: 2, Lanes: 2, MPS: 128, MRRS: 512, Prop: sim.Ns(200)}
}

// Gen3x4 is an alternative link used by the portability study.
func Gen3x4() LinkConfig {
	return LinkConfig{Gen: 3, Lanes: 4, MPS: 256, MRRS: 512, Prop: sim.Ns(170)}
}

// laneGBps returns the effective per-lane payload rate in bytes/ns,
// after encoding overhead (8b/10b for Gen1/2, 128b/130b afterwards).
func (c LinkConfig) laneBytesPerNs() float64 {
	switch c.Gen {
	case 1:
		return 2.5 / 10 // 2.5 GT/s, 8b/10b
	case 2:
		return 5.0 / 10
	case 3:
		return 8.0 * 128 / 130 / 8
	case 4:
		return 16.0 * 128 / 130 / 8
	default:
		panic(fmt.Sprintf("pcie: unsupported gen %d", c.Gen))
	}
}

func (c LinkConfig) validate() {
	switch c.Lanes {
	case 1, 2, 4, 8, 16:
	default:
		panic(fmt.Sprintf("pcie: unsupported lane count %d", c.Lanes))
	}
	if c.MPS <= 0 || c.MRRS <= 0 {
		panic("pcie: MPS/MRRS must be positive")
	}
	if c.Prop < 0 {
		panic("pcie: negative propagation delay")
	}
}

// BytesPerNs reports the link's aggregate effective byte rate.
func (c LinkConfig) BytesPerNs() float64 {
	return c.laneBytesPerNs() * float64(c.Lanes)
}

// String describes the link, e.g. "Gen2 x2 (1.00 B/ns)".
func (c LinkConfig) String() string {
	return fmt.Sprintf("Gen%d x%d (%.2f B/ns)", c.Gen, c.Lanes, c.BytesPerNs())
}

// direction is one simplex half of the link. TLPs serialize in FIFO
// order; busyUntil tracks when the wire frees up.
type direction struct {
	name      string
	busyUntil sim.Time
}

// Link is a point-to-point PCIe link between the root complex and one
// endpoint. It prices every TLP as serialization (occupancy of the
// sending half) plus fixed propagation.
type Link struct {
	sim  *sim.Sim
	cfg  LinkConfig
	down direction // RC -> EP
	up   direction // EP -> RC
}

// NewLink returns a link driven by s with configuration cfg.
func NewLink(s *sim.Sim, cfg LinkConfig) *Link {
	cfg.validate()
	return &Link{
		sim:  s,
		cfg:  cfg,
		down: direction{name: "down"},
		up:   direction{name: "up"},
	}
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// serTime is the wire occupancy of a TLP with the given payload size.
func (l *Link) serTime(payload int) sim.Duration {
	ns := float64(WireBytes(payload)) / l.cfg.BytesPerNs()
	return sim.NsF(ns)
}

// transmit queues one TLP on dir. It returns the time serialization
// finishes (sender-side release) and schedules deliver at arrival.
// When neither spans nor the event tracer are active, the arrival event
// carries deliver directly — no wrapper closure and no composed name —
// so a TLP costs zero heap allocations on the steady-state path.
func (l *Link) transmit(dir *direction, payload int, what string, deliver func()) sim.Time {
	now := l.sim.Now()
	serEnd, arrive := l.timing(dir, payload)
	dir.busyUntil = serEnd
	if l.sim.TracingSpans() || l.sim.Traced() {
		// Wire-layer span: queue + serialization + flight of this TLP.
		// BeginSpan feeds the flight sink too, so the TLP is recorded
		// there once, under the composed name.
		sp := l.sim.BeginSpan(telemetry.LayerWire, dir.name+":"+what)
		l.sim.At(arrive, "pcie:"+dir.name+":"+what, func() {
			sp.End()
			deliver()
		})
		//fvlint:ignore metricname span deliberately ends inside the scheduled arrival callback above
		return serEnd
	}
	// Flight recorder: the endpoints are already known here, so the
	// TLP is logged as a closed interval without touching the span
	// machinery (and without composing a name — dir and kind travel as
	// separate static strings). Stays on with zero allocations.
	l.sim.FlightClosed(telemetry.LayerWire, dir.name, what, now, arrive)
	l.sim.At(arrive, "pcie:tlp", deliver)
	return serEnd
}

// timing reports when a TLP of the given payload queued on dir now
// would finish serializing and when it would arrive.
func (l *Link) timing(dir *direction, payload int) (serEnd, arrive sim.Time) {
	start := l.sim.Now()
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	serEnd = start.Add(l.serTime(payload))
	return serEnd, serEnd.Add(l.cfg.Prop)
}

// Down sends a TLP from root complex to endpoint.
func (l *Link) Down(payload int, what string, deliver func()) sim.Time {
	return l.transmit(&l.down, payload, what, deliver)
}

// Up sends a TLP from endpoint to root complex.
func (l *Link) Up(payload int, what string, deliver func()) sim.Time {
	return l.transmit(&l.up, payload, what, deliver)
}
