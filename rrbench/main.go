// Command rrbench is the repository benchmark. One invocation runs one
// named workload for one seed, checks that the program's outputs are
// correct, and prints every metric by name with its unit as the last line
// of standard output:
//
//	bash rrbench/run.sh --workload kernels-default --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from source (its build cache lives under
// .bench_build in the checkout) and execs it from the checkout root.
//
// Workloads (see BENCHMARK.json for the one-line reasons, and record.json
// for sizes, cadences, the rate ladder and the SLO):
//
//   - kernels-default: the default preset, flat trace, full plan plus a
//     two-δ sweep. Louvain, tracking and sampled BFS dominate.
//   - replay-large: a half-scale large preset, compressed RRS1 trace, plan
//     = figs 2a–3c and 8a–9c. Decode, inflate, apply and the per-event
//     stage accumulators dominate; no kernel runs.
//   - serve-live: the figure daemon built in-process from the calls
//     cmd/rrserved makes, followed while a writer appends days and two
//     client connections read panels.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// The end-to-end timings are CPU time, which leaves out the time the host
// steals from this machine (see cpu.go): the batch plans' cpu_s,
// serve-live's CPU cost of serving its window's traffic, and each
// workload's set-up. Wall-clock figures (wall_s, events_per_s, and
// serve-live's request latencies and freshness) are per-layer figures of
// the traced run.
// With --trace 1 it re-runs the workload with spans recorded from this
// package's own wrappers around each layer's public calls, reports the
// per-layer metrics, and writes the spans to
// .bench_build/rrbench/spans-<workload>-<seed>.json.
//
// Inputs are generated from the seed by a child process (so generation
// never counts towards the measured process's peak RSS) and cached per
// seed under .bench_build/rrbench. Batch reference digests come from
// record.json for recorded seeds, and are otherwise computed once per seed
// by two more child processes through the in-tree batch oracle
// core.RunBatchSource, outside every timed section.
//
// The smoke test (go test in this directory) runs every workload on the
// small preset and checks the metric names and the digest gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// fail counts one failed operation and logs why to standard error.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "rrbench: FAIL: "+format+"\n", args...)
}

// params is one invocation's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	work     string // scratch and cache directory inside the checkout
	// tiny runs every workload on the small preset at the default
	// cadences; the smoke test uses it to run each workload in seconds.
	tiny bool
	// refOverride replaces the reference digest (the smoke test points it
	// at a wrong value to prove the gate fires).
	refOverride string
}

type workload struct {
	name string
	run  func(p params, rep *report) error
}

var workloads = []workload{
	{"kernels-default", runBatch},
	{"replay-large", runBatch},
	{"serve-live", runLive},
}

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "gen" || os.Args[1] == "ref") {
		if err := child(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "rrbench %s: %v\n", os.Args[1], err)
			os.Exit(1)
		}
		return
	}
	p, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
		os.Exit(2)
	}
	rep, err := runWorkload(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (params, error) {
	fs := flag.NewFlagSet("rrbench", flag.ContinueOnError)
	var p params
	fs.StringVar(&p.workload, "workload", "", "workload name")
	fs.Int64Var(&p.seed, "seed", 1, "workload seed")
	fs.Float64Var(&p.seconds, "seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&p.work, "work", ".bench_build", "scratch and cache directory")
	if err := fs.Parse(args); err != nil {
		return p, err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return p, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	p.traced = *traceFlag == 1
	if p.seconds <= 0 {
		return p, fmt.Errorf("--seconds must be positive")
	}
	p.work = filepath.Join(p.work, "rrbench")
	return p, nil
}

func runWorkload(p params) (*report, error) {
	for _, w := range workloads {
		if w.name != p.workload {
			continue
		}
		if err := os.MkdirAll(p.work, 0o755); err != nil {
			return nil, err
		}
		rep := newReport()
		if err := w.run(p, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p.workload, err)
		}
		if rep.Attempted < 1 {
			return nil, fmt.Errorf("%s: no operation attempted", p.workload)
		}
		rep.Correct = rep.Failed == 0
		return rep, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", p.workload, strings.Join(names, ", "))
}

func printReport(w io.Writer, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's own peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
