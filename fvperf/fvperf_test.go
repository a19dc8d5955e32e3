package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the child process that runs
// each repetition, as the fvperf binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinySizes keep the smoke runs to a second or two per workload.
var tinySizes = sizes{Fig3Packets: 200, Fig3Seeds: 2, ModelPackets: 300, ModelSeeds: 2, StreamPackets: 200, PollPackets: 100, MinReps: 2}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsPrintEveryMetric runs each workload at a tiny size, timed
// and traced, and checks that the result names every metric of
// BENCHMARK.json with its unit, and nothing else.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, fvperf has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in fvperf", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			cfg := runConfig{seed: 3, traced: traced, sizes: tinySizes, outDir: t.TempDir()}
			var log bytes.Buffer
			res, err := execute(w, cfg, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.Name, traced, err, log.String())
			}
			if !res.correct() || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failures=%v", wl.Name, traced, res.correct(), res.Attempted, res.Failures)
			}
			for name, unit := range want {
				m, ok := res.metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", wl.Name, traced, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s traced=%v: %s unit %q, want %q", wl.Name, traced, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", wl.Name, traced, name, m.Value)
				}
			}
			for name := range res.metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", wl.Name, traced, name)
				}
			}
			if !traced {
				for _, name := range []string{"wall_s", "pkts_per_s", "setup_s", "max_rss_mb", "model_err_pct", "ok_ratio"} {
					if res.metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, res.metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestRepetitionsRepeatExactly runs each workload twice with one seed:
// the per-session counts and the output digests must be identical.
func TestRepetitionsRepeatExactly(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		var reps []*rep
		for i := 0; i < 2; i++ {
			r, err := w.rep(&env{seed: 7, sizes: tinySizes, traced: i == 1, spans: newSpanLog()})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			reps = append(reps, r)
		}
		a, b := reps[0], reps[1]
		if a.Hash != b.Hash {
			t.Errorf("%s: digests differ: %s vs %s", name, a.Hash, b.Hash)
		}
		if !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Errorf("%s: counts differ between repetitions", name)
		}
		if a.Pkts != b.Pkts || a.Pkts == 0 {
			t.Errorf("%s: packets %d vs %d", name, a.Pkts, b.Pkts)
		}
		if len(a.Failures) > 0 || len(b.Failures) > 0 {
			t.Errorf("%s: failures %v %v", name, a.Failures, b.Failures)
		}
	}
}

// TestModelErrHandComputed checks model_err_pct on a fixed two-cell
// input against a hand computation.
func TestModelErrHandComputed(t *testing.T) {
	var tab table1
	err := json.Unmarshal([]byte(`{"rows": [
		{"payload": 64, "virtio": {"p95": 10, "p99": 20, "p99.9": 40}, "xdma": {"p95": 50, "p99": 100, "p99.9": 200}},
		{"payload": 128, "virtio": {"p95": 1, "p99": 1, "p99.9": 1}, "xdma": {"p95": 1, "p99": 1, "p99.9": 1}}]}`), &tab)
	if err != nil {
		t.Fatal(err)
	}
	points := []tailPoint{
		{Driver: "virtio", Payload: 64, P95Ns: 11000, P99Ns: 20000, P999Ns: 30000}, // errors 0.10, 0, 0.25
		{Driver: "xdma", Payload: 64, P95Ns: 50000, P99Ns: 90000, P999Ns: 260000},  // errors 0, 0.10, 0.30
		{Driver: "virtio", Payload: 4096, P95Ns: 1, P99Ns: 1, P999Ns: 1},           // no Table I row: ignored
	}
	got, cells, err := modelErrPct(&tab, points)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * (0.10 + 0 + 0.25 + 0 + 0.10 + 0.30) / 6; cells != 6 || math.Abs(got-want) > 1e-9 {
		t.Fatalf("model error %.12f%% over %d cells, want %.12f%% over 6", got, cells, want)
	}
	if _, _, err := modelErrPct(&tab, points[2:]); err == nil {
		t.Fatal("no matching cell: want an error")
	}
}

// TestTable1Reference checks the committed reference: 30 cells, a
// source and the calibration seed.
func TestTable1Reference(t *testing.T) {
	tab, err := loadTable1()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Source == "" || tab.CalibrationSeed != 1 || len(tab.Rows) != 5 {
		t.Fatalf("table1.json: source %q, calibration seed %d, %d rows", tab.Source, tab.CalibrationSeed, len(tab.Rows))
	}
	var points []tailPoint
	for _, row := range tab.Rows {
		for _, d := range []string{"virtio", "xdma"} {
			points = append(points, tailPoint{Driver: d, Payload: row.Payload, P95Ns: 1, P99Ns: 1, P999Ns: 1})
		}
	}
	if _, cells, err := modelErrPct(tab, points); err != nil || cells != 30 {
		t.Fatalf("full grid compares %d cells (%v), want 30", cells, err)
	}
}

func TestBucketOf(t *testing.T) {
	const m = modulePath + "/internal/"
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", m + "sim.(*Proc).park"}, "sim.handoff"},
		{[]string{m + "sim.(*equeue).push", m + "sim.(*Sim).enqueue"}, "sim"},
		{[]string{"runtime.mallocgc", m + "netstack.(*Stack).Send"}, "netstack"},
		{[]string{"math.archExp", m + "sim.(*RNG).LogNormal", m + "hostos.(*Host).CPUWork"}, "hostos.rng"},
		{[]string{m + "telemetry.(*FlightRecorder).push", m + "sim.(*Sim).BeginSpan"}, "telemetry.flight"},
		{[]string{modulePath + ".(*flightWatch).note", modulePath + ".(*NetSession).pingOnce"}, "telemetry.flight"},
		{[]string{m + "telemetry.AnalyzeCriticalPath"}, "telemetry"},
		{[]string{m + "mem.(*Memory).Fill", m + "pcie.(*Endpoint).DMAReadInto"}, "pcie"},
		{[]string{m + "drivers/virtionet.(*Device).Xmit"}, "drivers"},
		{[]string{m + "vdev.(*Controller).service"}, "virtio"},
		{[]string{m + "xdmaip.(*Engine).run"}, "xdmaip"},
		{[]string{m + "perf.(*Series).Add", m + "experiments.MeasureVirtIO"}, "experiments"},
		{[]string{modulePath + ".(*NetSession).run"}, "session"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestFoldRealProfile folds a CPU profile of a poll repetition: every
// sample lands in a known bucket and the shares sum to 100%.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	_, err := pollRep(&env{seed: 1, sizes: sizes{PollPackets: 2000}})
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	f := newFold()
	if err := f.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := f.check(); err != nil {
		t.Fatal(err)
	}
	if f.ns["hostos"]+f.ns["hostos.rng"]+f.ns["sim"]+f.ns["sim.handoff"] == 0 {
		t.Errorf("no samples in sim or hostos: %v", f.ns)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := &spanLog{spans: []spanRec{
		{ID: 1, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "cell b", Start: 20, End: 50},  // overlaps cell a
		{ID: 4, Parent: 1, Name: "cell c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "boot", Start: 12, End: 15},
	}}
	l.finish()
	for id, want := range map[int]int64{1: 50, 2: 17, 3: 30, 4: 30, 5: 3} {
		if got := l.spans[id-1].Self; got != want {
			t.Errorf("span %d self %d, want %d", id, got, want)
		}
	}
}

// TestBadFlagsPrintNoResult checks the usage errors: exit 2, no result
// line.
func TestBadFlagsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "fig3", "--seconds", "0"},
		{"--workload", "fig3", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
