package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// Each repetition runs in child processes of its own (`fvperf rep
// ...`): one for stream and poll; for fig3 one per derived seed, so
// that each is one `fvbench fig3` process as users run it, plus one
// that times the boots.
//
// Sessions have no Close, so every session a process opens keeps its
// simulation goroutines, and with them its memory, until the process
// exits. A fresh process keeps one run's sessions from slowing the next
// (the collector scans every session still held), and gives each part
// its own peak RSS.
const childCommand = "rep"

// childOut is what a child sends back on stdout.
type childOut struct {
	Rep     *rep      `json:"rep,omitempty"`
	Ref     *refOut   `json:"ref,omitempty"` // a model-error reference sweep
	Spans   []spanRec `json:"spans,omitempty"`
	Profile []byte    `json:"profile,omitempty"` // gzip'd CPU profile
}

// repRun is one finished repetition as the parent sees it.
type repRun struct {
	r        *rep
	rssMiB   float64  // the largest peak RSS of its workload processes
	profiles [][]byte // gzip'd CPU profiles (traced repetitions)
}

// childMain runs one part of a repetition and prints a childOut line.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fvperf rep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 0, "seed")
	part := fs.Int("part", 0, "part of the repetition")
	traced := fs.Bool("traced", false, "trace this repetition")
	ref := fs.Bool("ref", false, "run model-error reference sweep -part instead of a workload")
	sizesJSON := fs.String("sizes", "", "sizes as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	var sz sizes
	if (!ok && !*ref) || json.Unmarshal([]byte(*sizesJSON), &sz) != nil {
		fmt.Fprintln(stderr, "fvperf rep: bad -workload or -sizes")
		return 2
	}
	if *ref {
		out, err := refSweep(*seed, *part, sz)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(childOut{Ref: out})
		}
		if err != nil {
			fmt.Fprintln(stderr, "fvperf rep:", err)
			return 1
		}
		return 0
	}
	e := &env{seed: *seed, part: *part, sizes: sz, traced: *traced}
	var prof bytes.Buffer
	if e.traced {
		e.spans = newSpanLog()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(stderr, "fvperf rep:", err)
			return 1
		}
	}
	r, err := w.rep(e)
	out := childOut{Rep: r}
	if e.traced {
		pprof.StopCPUProfile()
		out.Spans = e.spans.spans
		out.Profile = prof.Bytes()
	}
	if err != nil {
		fmt.Fprintln(stderr, "fvperf rep:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintln(stderr, "fvperf rep:", err)
		return 1
	}
	return 0
}

// runChild runs one child process with the given arguments, waits for
// it, and decodes what it sent back.
func runChild(args []string, log io.Writer) (*childOut, *os.ProcessState, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, append([]string{childCommand}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, log
	if err := cmd.Run(); err != nil {
		return nil, nil, err
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, nil, fmt.Errorf("unreadable child output: %w", err)
	}
	return &out, cmd.ProcessState, nil
}

// runRef runs reference sweep j of the run's model error in a child
// process. The child keeps the sweep's sessions, and their memory, out
// of the parent: a child's peak RSS as wait4 reports it is at least the
// parent's RSS when the child was started.
func runRef(cfg runConfig, j int, log io.Writer) (*refOut, error) {
	sz, err := json.Marshal(cfg.sizes)
	if err != nil {
		return nil, err
	}
	out, _, err := runChild([]string{"-ref", "-seed", fmt.Sprint(cfg.seed), "-part", fmt.Sprint(j), "-sizes", string(sz)}, log)
	if err != nil {
		return nil, fmt.Errorf("reference sweep %d: %w", j, err)
	}
	if out.Ref == nil {
		return nil, fmt.Errorf("reference sweep %d: no result", j)
	}
	return out.Ref, nil
}

// runRep runs repetition i, one child process per part, waiting for
// each, and folds the parts together. Its digest covers every part's
// digest in order. Traced parts' spans join spans, shifted to the
// parent's clock.
func runRep(w *workload, cfg runConfig, i int, traced bool, spans *spanLog, log io.Writer) (*repRun, error) {
	sz, err := json.Marshal(cfg.sizes)
	if err != nil {
		return nil, err
	}
	run := &repRun{r: &rep{Counts: newCounts()}}
	d := newDigest()
	for part := range w.parts(cfg.sizes) {
		start := time.Now()
		out, state, err := runChild([]string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-part", fmt.Sprint(part), fmt.Sprintf("-traced=%v", traced), "-sizes", string(sz)}, log)
		if err != nil {
			return nil, fmt.Errorf("repetition %d part %d: %w", i, part, err)
		}
		if out.Rep == nil {
			return nil, fmt.Errorf("repetition %d part %d: no result", i, part)
		}
		run.r.add(out.Rep)
		d.str(out.Rep.Hash)
		if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
			if !out.Rep.Probe {
				run.rssMiB = max(run.rssMiB, float64(ru.Maxrss)/1024) // Linux reports KiB
			}
		}
		if traced {
			path := filepath.Join(cfg.outDir, fmt.Sprintf("cpu-%s-seed%d-rep%d-part%d.pb.gz", w.name, cfg.seed, i, part))
			if err := writeFile(path, out.Profile); err != nil {
				return nil, err
			}
			run.profiles = append(run.profiles, out.Profile)
			spans.merge(out.Spans, start)
		}
	}
	run.r.Hash = d.sum()
	return run, nil
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
