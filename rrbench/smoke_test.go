package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload spawns its gen and ref child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "gen" || os.Args[1] == "ref") {
		if err := child(os.Args[1], os.Args[2:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchMetric struct {
	Name, Unit string
}

// contract reads the metric names and units BENCHMARK.json promises.
func contract(t *testing.T) (workloads []string, e2e, perLayer []benchMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []benchMetric `json:"end_to_end"`
		PerLayer  []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, c.EndToEnd, c.PerLayer
}

// TestSmoke runs every workload once on the small preset, untraced and
// traced, and checks that each prints every metric BENCHMARK.json names,
// with its unit, from correct outputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	workloads, e2e, perLayer := contract(t)
	work := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = perLayer
			}
			p := params{workload: w, seed: 1, seconds: 2, traced: traced, work: work, tiny: true}
			rep, err := runWorkload(p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
			var sb strings.Builder
			if err := printReport(&sb, rep); err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(sb.String(), "}\n") || strings.Count(sb.String(), "\n") != 1 {
				t.Errorf("%s traced=%v: result is not one JSON line: %q", w, traced, sb.String())
			}
		}
	}
}

// TestDigestGate checks that a batch run against a wrong reference digest
// fails every run it makes.
func TestDigestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, w := range []string{"kernels-default", "replay-large"} {
		p := params{workload: w, seed: 1, seconds: 0.1, work: t.TempDir(), tiny: true,
			refOverride: strings.Repeat("0", 64)}
		rep, err := runWorkload(p)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Correct || rep.Failed != rep.Attempted {
			t.Errorf("%s: corrupted reference: correct=%v attempted=%d failed=%d, want every operation failed",
				w, rep.Correct, rep.Attempted, rep.Failed)
		}
	}
}
