package fpgavirtio

import (
	"testing"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// TestFlightRingOneSpanPerTLP: with tracing on or off, the flight ring
// holds exactly one wire span per TLP the link carried. Tracing turns
// the wire path verbose, and that path must not log the TLP a second
// time.
func TestFlightRingOneSpanPerTLP(t *testing.T) {
	modes := []struct {
		name    string
		install func(s *sim.Sim)
	}{
		{"untraced", func(*sim.Sim) {}},
		{"event-traced", func(s *sim.Sim) { s.SetTracer(&sim.RecordingTracer{}) }},
		{"span-traced", func(s *sim.Sim) { s.SetSpanSink(telemetry.NewRecorder(0)) }},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ns, err := OpenNet(NetConfig{Config: Config{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			before := ns.BusStats()
			mark := ns.flight.fr.Mark()
			m.install(ns.s)
			for i := 0; i < 3; i++ {
				if _, err := ns.PingDetailed(make([]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			// Let the TLPs still on the wire land.
			if err := ns.run(func(p *sim.Proc) error { p.Sleep(sim.Us(5)); return nil }); err != nil {
				t.Fatal(err)
			}
			ns.s.SetTracer(nil)
			ns.s.SetSpanSink(nil)
			after := ns.BusStats()
			tlps := after.DownTLPs + after.UpTLPs - before.DownTLPs - before.UpTLPs
			win, err := ns.flight.fr.AppendWindow(nil, mark, ns.s.Now())
			if err != nil {
				t.Fatal(err)
			}
			wire := 0
			for _, sp := range win {
				if sp.Layer == telemetry.LayerWire {
					wire++
				}
			}
			if wire != tlps {
				t.Fatalf("flight ring holds %d wire spans for %d TLPs", wire, tlps)
			}
		})
	}
}
