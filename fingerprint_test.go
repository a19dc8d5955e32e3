package fpgavirtio

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpgavirtio/internal/sim"
)

// The sorted-slice event queue in internal/sim has a container/heap twin
// behind the `simrefqueue` build tag. Both must produce byte-identical
// runs: same RTT samples, same metric snapshots, same event traces —
// the trace is where the (at, seq) tie-break order is directly
// observable. This test hashes all three into one fingerprint and
// compares it against the committed golden, so
//
//	go test .                    // sorted-slice queue
//	go test -tags simrefqueue .  // reference heap
//
// must both match the same committed hash. Regenerate with
//
//	go test -run TestReplayFingerprint -update .
//
// (only under the default build — the golden is defined as the sorted-slice
// queue's output) after any intentional model change.
var updateFingerprint = flag.Bool("update", false, "rewrite testdata goldens")

const fingerprintFile = "testdata/replay_fingerprint.txt"

func replayFingerprint(t *testing.T) string {
	t.Helper()
	h := sha256.New()

	// Arm 1: traced VirtIO-net pings. The trace exposes dispatch order
	// event by event.
	ns, err := OpenNet(NetConfig{Config: Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &sim.RecordingTracer{}
	ns.s.SetTracer(tr)
	buf := make([]byte, 128)
	for i := 0; i < 40; i++ {
		s, err := ns.PingDetailed(buf)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "net %d %v %v %v %v\n", i, s.Total, s.Hardware, s.RespGen, s.Software)
	}
	ns.s.SetTracer(nil)
	for _, r := range tr.Records {
		fmt.Fprintf(h, "ev %d %s\n", int64(r.At), r.Name)
	}
	for _, m := range ns.Registry().Snapshot() {
		fmt.Fprintf(h, "m %s %s %v %d %v %v\n", m.Name, m.Type, m.Value, m.Count, m.Sum, m.Buckets)
	}

	// Arm 2: vendor-path round trips, untraced, with metric snapshot.
	xs, err := OpenXDMA(XDMAConfig{Config: Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	xbuf := make([]byte, 256)
	for i := 0; i < 40; i++ {
		s, err := xs.RoundTripDetailed(xbuf)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "xdma %d %v %v %v %v\n", i, s.Total, s.Hardware, s.RespGen, s.Software)
	}
	for _, m := range xs.Registry().Snapshot() {
		fmt.Fprintf(h, "m %s %s %v %d %v %v\n", m.Name, m.Type, m.Value, m.Count, m.Sum, m.Buckets)
	}

	// Arm 3: poll-mode datapath — a different event population (spin
	// loops, no IRQ cascade) through the same queue.
	ps, err := OpenNet(NetConfig{Config: Config{Seed: 7, PollMode: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s, err := ps.PingDetailed(buf)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "poll %d %v %v %v %v\n", i, s.Total, s.Hardware, s.RespGen, s.Software)
	}

	return hex.EncodeToString(h.Sum(nil))
}

// TestReplayFingerprint pins the simulation's bit-level output against
// the committed golden hash under whichever queue implementation this
// test binary was built with.
func TestReplayFingerprint(t *testing.T) {
	got := replayFingerprint(t)
	if *updateFingerprint {
		if err := os.MkdirAll(filepath.Dir(fingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", fingerprintFile)
		return
	}
	want, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("replay fingerprint diverged from %s:\n got  %s\n want %s\n"+
			"If a model change is intentional, regenerate with: go test -run TestReplayFingerprint -update .\n"+
			"If this build used -tags simrefqueue, the sorted-slice queue and the reference heap disagree — a determinism bug.",
			fingerprintFile, got, strings.TrimSpace(string(want)))
	}
}
