package fpgavirtio

import (
	"fmt"
	"time"

	"fpgavirtio/internal/drivers/virtioblk"
	"fpgavirtio/internal/drivers/virtioconsole"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/vdev"
)

// ConsoleSession is a booted VirtIO console testbed (the device type of
// the prior work the paper extends).
type ConsoleSession struct {
	core session
	drv  *virtioconsole.Device
}

// OpenConsole boots a console session with echo user logic.
func OpenConsole(cfg Config) (*ConsoleSession, error) {
	if cfg.Faults != "" {
		return nil, fmt.Errorf("fpgavirtio: fault injection is not supported by console sessions")
	}
	cs := &ConsoleSession{}
	attach := func() *pcie.Endpoint {
		dev := vdev.NewConsole(cs.core.s, cs.core.host.RC, "fpga-vcon", vdev.ConsoleOptions{Link: cfg.Link.config()})
		return dev.Controller().EP()
	}
	probe := func(p *sim.Proc, info *pcie.DeviceInfo) error {
		drv, err := virtioconsole.Probe(p, cs.core.host, info)
		cs.drv = drv
		return err
	}
	if err := cs.core.boot(cfg, attach, probe); err != nil {
		return nil, err
	}
	return cs, nil
}

// WriteRead sends bytes to the console device and waits for the echoed
// bytes, returning them with the observed round-trip time.
func (cs *ConsoleSession) WriteRead(data []byte) ([]byte, time.Duration, error) {
	var out []byte
	var rtt sim.Duration
	err := cs.core.run(func(p *sim.Proc) error {
		t0 := cs.core.host.ClockGettime(p)
		if err := cs.drv.Write(p, data); err != nil {
			return err
		}
		got, err := cs.drv.Read(p)
		if err != nil {
			return err
		}
		t1 := cs.core.host.ClockGettime(p)
		out = got
		rtt = t1.Sub(t0)
		return nil
	})
	return out, toStd(rtt), err
}

// BlkSession is a booted VirtIO block-device testbed (the storage-
// accelerator use case).
type BlkSession struct {
	core session
	drv  *virtioblk.Device
}

// BlkConfig configures a block session.
type BlkConfig struct {
	Config
	// CapacitySectors sizes the device (512-byte sectors; default 2048).
	CapacitySectors uint64
}

// OpenBlk boots a block-device session backed by card memory.
func OpenBlk(cfg BlkConfig) (*BlkSession, error) {
	if cfg.Faults != "" {
		return nil, fmt.Errorf("fpgavirtio: fault injection is not supported by block sessions")
	}
	bs := &BlkSession{}
	attach := func() *pcie.Endpoint {
		dev := vdev.NewBlk(bs.core.s, bs.core.host.RC, "fpga-vblk", vdev.BlkOptions{
			Link:            cfg.Link.config(),
			CapacitySectors: cfg.CapacitySectors,
		})
		return dev.Controller().EP()
	}
	probe := func(p *sim.Proc, info *pcie.DeviceInfo) error {
		drv, err := virtioblk.Probe(p, bs.core.host, info)
		bs.drv = drv
		return err
	}
	if err := bs.core.boot(cfg.Config, attach, probe); err != nil {
		return nil, err
	}
	return bs, nil
}

// CapacitySectors reports the negotiated device capacity.
func (bs *BlkSession) CapacitySectors() uint64 { return bs.drv.CapacitySectors() }

// WriteSector writes one 512-byte sector and returns the operation time.
func (bs *BlkSession) WriteSector(sector uint64, data []byte) (time.Duration, error) {
	var rtt sim.Duration
	err := bs.core.run(func(p *sim.Proc) error {
		t0 := bs.core.host.ClockGettime(p)
		if err := bs.drv.WriteSector(p, sector, data); err != nil {
			return err
		}
		rtt = bs.core.host.ClockGettime(p).Sub(t0)
		return nil
	})
	return toStd(rtt), err
}

// ReadSector reads one 512-byte sector and returns it with the
// operation time.
func (bs *BlkSession) ReadSector(sector uint64) ([]byte, time.Duration, error) {
	var out []byte
	var rtt sim.Duration
	err := bs.core.run(func(p *sim.Proc) error {
		t0 := bs.core.host.ClockGettime(p)
		data, err := bs.drv.ReadSector(p, sector)
		if err != nil {
			return err
		}
		out = data
		rtt = bs.core.host.ClockGettime(p).Sub(t0)
		return nil
	})
	return out, toStd(rtt), err
}

// WriteSectors writes len(data)/512 consecutive sectors in one request.
func (bs *BlkSession) WriteSectors(sector uint64, data []byte) (time.Duration, error) {
	var rtt sim.Duration
	err := bs.core.run(func(p *sim.Proc) error {
		t0 := bs.core.host.ClockGettime(p)
		if err := bs.drv.WriteSectors(p, sector, data); err != nil {
			return err
		}
		rtt = bs.core.host.ClockGettime(p).Sub(t0)
		return nil
	})
	return toStd(rtt), err
}

// ReadSectors reads count consecutive sectors in one request.
func (bs *BlkSession) ReadSectors(sector uint64, count int) ([]byte, time.Duration, error) {
	var out []byte
	var rtt sim.Duration
	err := bs.core.run(func(p *sim.Proc) error {
		t0 := bs.core.host.ClockGettime(p)
		data, err := bs.drv.ReadSectors(p, sector, count)
		if err != nil {
			return err
		}
		out = data
		rtt = bs.core.host.ClockGettime(p).Sub(t0)
		return nil
	})
	return out, toStd(rtt), err
}

// Flush issues a flush barrier.
func (bs *BlkSession) Flush() error {
	return bs.core.run(func(p *sim.Proc) error { return bs.drv.Flush(p) })
}
