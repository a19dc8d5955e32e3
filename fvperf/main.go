// Command fvperf is the repository benchmark. It runs one named
// workload of the simulator for a fixed host-time budget, checks the
// simulated outputs, and prints every metric by name with its unit.
// The last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (timed with no
// tracing); with -trace 1 they are the per-layer ones, taken from a
// traced run: a CPU profile folded by package, spans around every call
// into the system, and a host clock read per packet. See README.md.
//
// fvperf measures the system from outside. It uses only the root
// package's public API, the internal/experiments entry points that
// cmd/fvbench uses, and the metric-name strings of
// internal/telemetry/names.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload and prints the result. It
// returns 0 when every check passed, 1 when the run finished but a
// check failed (the result line says which counts), 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), "|"))
	seed := fs.Uint64("seed", 1, "seed of every simulated session and generated payload")
	seconds := fs.Int("seconds", 20, "host seconds to keep repeating the workload (at least 3 repetitions run)")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := fs.String("out", ".bench_build/fvperf", "directory for the traced run's spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "fvperf: need -workload %s, -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		sizes:   fullSizes,
		outDir:  *outDir,
	}
	res, err := execute(w, cfg, stderr)
	if err != nil {
		// A run that could not finish prints no result line.
		fmt.Fprintln(stderr, "fvperf:", err)
		return 1
	}
	printTable(stderr, res)
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintln(stderr, "fvperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "fvperf: FAILED:", f)
		}
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a finished run: its checks and its metrics.
type result struct {
	Attempted int64
	Failed    int64
	Failures  []string
	metrics   map[string]metric
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// fail records a failed check.
func (r *result) fail(format string, a ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) output() output {
	return output{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: r.metrics}
}

// printTable writes the metrics as aligned text, for people reading
// the run; the JSON line on stdout is the machine-readable copy.
func printTable(w io.Writer, r *result) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
}
