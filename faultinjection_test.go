package fpgavirtio

import (
	"reflect"
	"strings"
	"testing"

	"fpgavirtio/internal/telemetry"
)

// Fault-injection integration tests: every fault class the chaos soak
// leaves out gets a targeted run here, the recovery state machine is
// walked across ring configurations, and faulted runs must replay
// byte-identically — determinism is the contract that makes chaos
// results debuggable.

func metricValue(snaps []telemetry.MetricSnapshot, name string) float64 {
	for _, s := range snaps {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func faultedNetRun(t *testing.T, seed uint64, packets int, plan string, mutate func(*NetConfig)) ([]RTTSample, []telemetry.MetricSnapshot, *NetSession) {
	t.Helper()
	cfg := NetConfig{Config: Config{Seed: seed, Faults: plan}}
	if mutate != nil {
		mutate(&cfg)
	}
	ns, err := OpenNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	samples := make([]RTTSample, 0, packets)
	err = ns.PingSeries(buf, packets, func(i int, s RTTSample) {
		samples = append(samples, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	return samples, ns.Registry().Snapshot(), ns
}

func faultedXDMARun(t *testing.T, seed uint64, packets int, plan string) ([]RTTSample, []telemetry.MetricSnapshot, *XDMASession) {
	t.Helper()
	xs, err := OpenXDMA(XDMAConfig{Config: Config{Seed: seed, Faults: plan}})
	if err != nil {
		t.Fatal(err)
	}
	// Non-zero payload so corrupted or dropped DMA data cannot collide
	// with a zeroed read-back buffer and pass the integrity check.
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	samples := make([]RTTSample, 0, packets)
	err = xs.RoundTripSeries(buf, packets, func(i int, s RTTSample) {
		samples = append(samples, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	return samples, xs.Registry().Snapshot(), xs
}

// ---- replay determinism under injection ---------------------------------

func TestReplayNetFaulted(t *testing.T) {
	const plan = "needsreset:every=80:count=3,irqdrop:p=0.005,cplpoison:every=300:count=2"
	s1, m1, ns := faultedNetRun(t, 42, 400, plan, nil)
	s2, m2, _ := faultedNetRun(t, 42, 400, plan, nil)
	requireSameSamples(t, s1, s2)
	requireSameMetrics(t, m1, m2)
	if ns.FaultEvents() == 0 {
		t.Fatal("plan armed but nothing injected — replay check is vacuous")
	}
	if got := ns.FaultPlan(); got != plan {
		t.Errorf("FaultPlan() = %q, want %q", got, plan)
	}
}

func TestReplayXDMAFaulted(t *testing.T) {
	const plan = "engineerr:every=70:count=3,irqdrop:p=0.005"
	s1, m1, xs := faultedXDMARun(t, 42, 400, plan)
	s2, m2, _ := faultedXDMARun(t, 42, 400, plan)
	requireSameSamples(t, s1, s2)
	requireSameMetrics(t, m1, m2)
	if xs.FaultEvents() == 0 {
		t.Fatal("plan armed but nothing injected — replay check is vacuous")
	}
}

// A session opened without a plan must not even register the fault and
// recovery instruments: the zero-fault path is byte-identical to a
// build without the faults package.
func TestZeroFaultPathRegistersNothing(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) *session
	}{
		{"virtio", func(t *testing.T) *session {
			ns, err := OpenNet(NetConfig{Config: Config{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ns.Ping(make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			return &ns.session
		}},
		{"xdma", func(t *testing.T) *session {
			xs, err := OpenXDMA(XDMAConfig{Config: Config{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := xs.RoundTrip(make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			return &xs.session
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.open(t)
			if c.FaultPlan() != "" || c.FaultEvents() != 0 || c.FaultSummary() != nil {
				t.Error("zero-fault session reports fault state")
			}
			for _, s := range c.Registry().Snapshot() {
				if strings.HasPrefix(s.Name, "fault.") || strings.HasPrefix(s.Name, "recovery.") {
					t.Errorf("zero-fault session registered %q", s.Name)
				}
			}
		})
	}
}

// ---- recovery state machine across ring configurations ------------------

// TestVirtioResetRecoveryConfigs walks NEEDS_RESET → re-negotiation →
// ring rebuild → requeue on every virtqueue configuration the driver
// supports. Completion of the series proves the rebuilt rings carry
// traffic; the counters prove the walk actually happened.
func TestVirtioResetRecoveryConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*NetConfig)
	}{
		{"split", nil},
		{"eventidx", func(c *NetConfig) { c.UseEventIdx = true }},
		{"packed", func(c *NetConfig) { c.UsePackedRing = true }},
		{"mq", func(c *NetConfig) { c.QueuePairs = 2 }},
		{"no-ctrlvq", func(c *NetConfig) { c.DisableCtrlVQ = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const plan = "needsreset:every=60:count=3"
			_, snaps, ns := faultedNetRun(t, 11, 400, plan, tc.mutate)
			if got := ns.FaultSummary()["needsreset"]; got != 3 {
				t.Fatalf("injected %d needsreset faults, want 3", got)
			}
			if resets := metricValue(snaps, telemetry.MetricRecoveryVirtioResets); resets < 3 {
				t.Errorf("recovery.virtio.resets = %v, want >= 3", resets)
			}
			if metricValue(snaps, telemetry.MetricRecoveryVirtioRequeue) == 0 {
				t.Error("no in-flight TX buffer was requeued across any reset")
			}
		})
	}
}

// ---- targeted per-class runs --------------------------------------------

// Classes excluded from DefaultChaosPlan, each exercised alone so a
// regression in one recovery path cannot hide behind another.

func TestFaultTLPDrop(t *testing.T) {
	// Dropped posted writes eat doorbells mid-run (after= skips the
	// boot-time config writes); the TX watchdog re-kicks.
	_, snaps, ns := faultedNetRun(t, 3, 400, "tlpdrop:every=97:count=3:after=400", nil)
	if ns.FaultSummary()["tlpdrop"] == 0 {
		t.Fatal("no TLP drop injected")
	}
	if metricValue(snaps, telemetry.MetricRecoveryVirtioWatchd) == 0 {
		t.Error("dropped doorbells recovered without the watchdog — check the plan still lands on kicks")
	}
}

func TestFaultStall(t *testing.T) {
	_, snaps, xs := faultedXDMARun(t, 4, 400, "stall:every=150:count=2:after=100")
	if xs.FaultSummary()["stall"] == 0 {
		t.Fatal("no stall window opened")
	}
	if metricValue(snaps, telemetry.MetricPCIeCplErrors) == 0 {
		t.Error("stalled reads did not surface completion errors")
	}
}

func TestFaultCplTimeout(t *testing.T) {
	// The XDMA hot path reads engine status on every transfer, so the
	// timed-out (all-ones) completions land mid-run and the channel
	// recovery path absorbs them.
	_, snaps, xs := faultedXDMARun(t, 5, 400, "cpltimeout:every=100:count=3:after=50")
	if xs.FaultSummary()["cpltimeout"] == 0 {
		t.Fatal("no completion timeout injected")
	}
	if metricValue(snaps, telemetry.MetricPCIeCplErrors) == 0 {
		t.Error("timed-out completions did not surface completion errors")
	}
}

func TestFaultCplTimeoutAtBoot(t *testing.T) {
	// Timeouts during feature negotiation: the silent-zero fix makes the
	// read complete all-ones and the transport's bounded retry re-reads
	// it, so the session still boots and carries traffic.
	_, snaps, ns := faultedNetRun(t, 5, 50, "cpltimeout:every=15:count=2", nil)
	if ns.FaultSummary()["cpltimeout"] == 0 {
		t.Fatal("no completion timeout injected at boot")
	}
	if metricValue(snaps, telemetry.MetricRecoveryMMIORetries) == 0 {
		t.Error("all-ones reads were not retried")
	}
}

func TestFaultDMAReadErr(t *testing.T) {
	_, snaps, xs := faultedXDMARun(t, 6, 400, "dmarderr:every=120:count=3:after=50")
	if xs.FaultSummary()["dmarderr"] == 0 {
		t.Fatal("no DMA read error injected")
	}
	if metricValue(snaps, telemetry.MetricRecoveryXDMAResubmits) == 0 {
		t.Error("corrupted round trips were not retried")
	}
}

func TestFaultDMAWriteErr(t *testing.T) {
	_, _, xs := faultedXDMARun(t, 7, 400, "dmawrerr:every=120:count=3:after=50")
	if xs.FaultSummary()["dmawrerr"] == 0 {
		t.Fatal("no DMA write error injected")
	}
	// Completion of the series is the assertion: a dropped write chunk
	// either mismatches (and retries) or lands on identical bytes from
	// the previous round trip — both must finish cleanly.
}

func TestFaultIRQSpurious(t *testing.T) {
	const plan = "irqspurious:p=0.02"
	s1, m1, ns := faultedNetRun(t, 8, 300, plan, nil)
	s2, m2, _ := faultedNetRun(t, 8, 300, plan, nil)
	if ns.FaultSummary()["irqspurious"] == 0 {
		t.Fatal("no spurious interrupt injected")
	}
	// Duplicate delivery must be harmless AND deterministic.
	requireSameSamples(t, s1, s2)
	requireSameMetrics(t, m1, m2)
}

// ---- misuse -------------------------------------------------------------

func TestFaultPlanRejected(t *testing.T) {
	if _, err := OpenNet(NetConfig{Config: Config{Seed: 1, Faults: "bogus:p=0.5"}}); err == nil {
		t.Error("OpenNet accepted an invalid plan")
	}
	if _, err := OpenXDMA(XDMAConfig{Config: Config{Seed: 1, Faults: "irqdrop"}}); err == nil {
		t.Error("OpenXDMA accepted a rule without p= or every=")
	}
	if _, err := OpenConsole(Config{Seed: 1, Faults: "irqdrop:p=0.1"}); err == nil {
		t.Error("OpenConsole accepted a fault plan")
	}
	if _, err := OpenBlk(BlkConfig{Config: Config{Seed: 1, Faults: "irqdrop:p=0.1"}}); err == nil {
		t.Error("OpenBlk accepted a fault plan")
	}
}

// Faulted runs with different seeds must diverge: the injector draws
// from the session seed, not a fixed stream.
func TestFaultedRunsDistinguishSeeds(t *testing.T) {
	const plan = "irqdrop:p=0.01"
	s1, _, _ := faultedNetRun(t, 1, 200, plan, nil)
	s2, _, _ := faultedNetRun(t, 2, 200, plan, nil)
	if reflect.DeepEqual(s1, s2) {
		t.Fatal("different seeds produced identical faulted runs")
	}
}
