package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// Workload shapes. They are fixed here, not flags: a later change that
// claims a gain must run exactly the workloads the parent ran.
const (
	// kernelsCoarsen multiplies the default community snapshot (3 days)
	// and sampled-path (9 days) cadences, so one full default-preset plan
	// fits the run length while the kernels keep dominating the wall.
	kernelsCoarsen = 4
	// largeArrivalBase and largeFiveQBase halve the large preset's
	// arrival processes (160 and 250), so generating an input and its
	// batch reference fits the benchmark's time budget.
	largeArrivalBase = 80
	largeFiveQBase   = 125
	// liveDays is the serve-live trace horizon; the daemon warms on the
	// first livePrefix days and the writer appends the rest.
	liveDays   = 320
	livePrefix = 270
)

// kernelsDeltas is the two-δ sweep of kernels-default.
var kernelsDeltas = []float64{0.01, 0.1}

// largeFigures is replay-large's plan: the evolution, alpha and osnmerge
// stages, none of which runs a per-snapshot kernel.
var largeFigures = []string{
	"fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c",
	"fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c",
}

// figuresOf returns the panels a batch workload's plan serves.
func figuresOf(workload string) []string {
	if workload == "replay-large" {
		return largeFigures
	}
	return core.AllFigures
}

// genConfig is the generator configuration of a workload's input.
func genConfig(workload string, seed int64, tiny bool) gen.Config {
	var c gen.Config
	switch {
	case tiny:
		c = gen.SmallConfig()
	case workload == "kernels-default":
		c = gen.DefaultConfig()
	case workload == "replay-large":
		c = gen.LargeConfig()
		c.Arrival.Base = largeArrivalBase
		c.Merge.FiveQArrivalBase = largeFiveQBase
	default:
		c = gen.SmallConfig()
		c.Days = liveDays
	}
	c.Seed = seed
	return c
}

// distDays mirrors the CLIs' default size-distribution days: three evenly
// spaced days in the trace's second half, snapped onto the snapshot grid.
func distDays(days, startDay, every int32) []int32 {
	snap := func(d int32) int32 {
		if d < startDay {
			return startDay
		}
		return d - (d-startDay)%every
	}
	return []int32{snap(days / 2), snap(days * 3 / 4), snap(days - 1)}
}

// batchConfig is the pipeline configuration of a batch workload.
func batchConfig(workload string, tiny bool, meta trace.Meta) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	if workload == "kernels-default" {
		cfg.DeltaSweep = append([]float64(nil), kernelsDeltas...)
		if !tiny {
			// The small smoke preset keeps the default cadences: coarser
			// snapshots leave its merge-prediction dataset empty.
			cfg.Community.SnapshotEvery *= kernelsCoarsen
			cfg.PathEvery *= kernelsCoarsen
		}
	}
	cfg.Community.SizeDistDays = distDays(meta.Days, cfg.Community.StartDay, cfg.Community.SnapshotEvery)
	return cfg
}

// oracleParts splits a batch workload's stages into two groups that the
// oracle computes in parallel child processes, so a new seed's reference
// costs about half the wall time.
func oracleParts(workload string) [2][]string {
	if workload == "replay-large" {
		return [2][]string{{"evolution", "alpha"}, {"osnmerge"}}
	}
	return [2][]string{{"metrics", "evolution", "alpha", "osnmerge"}, {"community", "users", "svm", "sweep"}}
}

// oracleConfig selects one part's stages on the batch oracle, whose only
// stage selection is the Skip* toggles.
func oracleConfig(workload string, tiny bool, meta trace.Meta, stages []string) core.Config {
	cfg := batchConfig(workload, tiny, meta)
	cfg.SkipMetrics = !slices.Contains(stages, "metrics")
	cfg.SkipEvolution = !slices.Contains(stages, "evolution")
	cfg.SkipCommunity = !slices.Contains(stages, "community")
	cfg.SkipMerge = !slices.Contains(stages, "osnmerge")
	return cfg
}

// record is record.json: the host and inputs the baseline was measured
// on, the recorded reference digests, and the first baseline datapoint.
//
//go:embed record.json
var recordJSON []byte

// recordedDigest returns the reference digest record.json holds for
// (workload, seed), if any.
func recordedDigest(workload string, seed int64) (string, bool) {
	var rec struct {
		Digests map[string]map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(recordJSON, &rec); err != nil {
		return "", false
	}
	d, ok := rec.Digests[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

func tag(p params) string {
	s := fmt.Sprintf("%s-%d", p.workload, p.seed)
	if p.tiny {
		s += "-tiny"
	}
	return s
}

// cacheKey names a seed's cached inputs and reference digest: the tag
// plus a hash of everything that shapes them, so a changed workload never
// reuses a stale input or digest.
func cacheKey(p params) string {
	shape, err := json.Marshal(genConfig(p.workload, p.seed, p.tiny))
	if err != nil {
		panic(err) // gen.Config is plain data
	}
	shape = fmt.Appendf(shape, "|%d|%d|%v", livePrefix, kernelsCoarsen, kernelsDeltas)
	return fmt.Sprintf("%s-%x", tag(p), sha256.Sum256(shape))[:len(tag(p))+9]
}

// inputDir generates the workload's inputs for the seed, once: a child
// process writes them into a temporary directory that is renamed into
// place on success. Other seeds' inputs of the workload are removed first
// so the cache holds one input set per workload.
func inputDir(p params) (string, error) {
	dir := filepath.Join(p.work, "inputs", cacheKey(p))
	if _, err := os.Stat(filepath.Join(dir, "done")); err == nil {
		return dir, nil
	}
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	old, _ := filepath.Glob(filepath.Join(parent, p.workload+"-*"))
	for _, o := range old {
		if err := os.RemoveAll(o); err != nil {
			return "", err
		}
	}
	tmp := dir + ".tmp"
	if err := runChild("gen", p, tmp); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// referenceDigest returns the oracle digest of a batch workload's figures
// for the seed: the override, a recorded digest, a cached one, or one a
// child process computes through core.RunBatchSource.
func referenceDigest(p params, inputs string) (string, error) {
	if p.refOverride != "" {
		return p.refOverride, nil
	}
	if !p.tiny {
		if d, ok := recordedDigest(p.workload, p.seed); ok {
			return d, nil
		}
	}
	path := filepath.Join(p.work, "refs", cacheKey(p)+".sha256")
	if b, err := os.ReadFile(path); err == nil {
		return strings.TrimSpace(string(b)), nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	// Each part writes the digest records of the panels its stages
	// produce; the digest hashes them in panel order.
	var errs [2]error
	var wg sync.WaitGroup
	for part := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[part] = runChild("ref", p, inputs, "-part", strconv.Itoa(part), "-out", fmt.Sprintf("%s.part%d", path, part))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return "", err
	}
	records := map[string]string{}
	for part := range 2 {
		b, err := os.ReadFile(fmt.Sprintf("%s.part%d", path, part))
		if err != nil {
			return "", err
		}
		if err := json.Unmarshal(b, &records); err != nil {
			return "", err
		}
	}
	h := sha256.New()
	for _, id := range figuresOf(p.workload) {
		rec, ok := records[id]
		if !ok {
			return "", fmt.Errorf("oracle produced no record for %s", id)
		}
		io.WriteString(h, rec)
	}
	d := fmt.Sprintf("%x", h.Sum(nil))
	if err := os.WriteFile(path+".tmp", []byte(d+"\n"), 0o644); err != nil {
		return "", err
	}
	for part := range 2 {
		os.Remove(fmt.Sprintf("%s.part%d", path, part))
	}
	return d, os.Rename(path+".tmp", path)
}

// runChild runs this binary's gen or ref mode in a child process and
// waits for it.
func runChild(mode string, p params, dir string, extra ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{mode, "-workload", p.workload, "-seed", strconv.FormatInt(p.seed, 10),
		"-work", p.work, "-dir", dir}
	if p.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, append(args, extra...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", mode, err)
	}
	return nil
}

// child is the entry point of the gen and ref child processes.
func child(mode string, args []string) error {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	var p params
	var dir string
	fs.StringVar(&p.workload, "workload", "", "workload name")
	fs.Int64Var(&p.seed, "seed", 1, "workload seed")
	fs.StringVar(&p.work, "work", "", "cache directory")
	fs.StringVar(&dir, "dir", "", "input directory")
	fs.BoolVar(&p.tiny, "tiny", false, "smoke-sized inputs")
	part := fs.Int("part", 0, "oracle part (ref)")
	out := fs.String("out", "", "record file (ref)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if mode == "gen" {
		return generate(p, dir)
	}
	if *part < 0 || *part > 1 {
		return fmt.Errorf("-part must be 0 or 1")
	}
	src, err := trace.OpenTrace(batchTracePath(p.workload, dir))
	if err != nil {
		return err
	}
	stages := oracleParts(p.workload)[*part]
	res, err := core.RunBatchSource(src, oracleConfig(p.workload, p.tiny, src.Meta(), stages))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	records := map[string]string{}
	for _, id := range figuresOf(p.workload) {
		stage, err := core.StageFor(id)
		if err != nil {
			return err
		}
		if !slices.Contains(stages, stage) {
			continue
		}
		var b strings.Builder
		if err := writePanel(&b, res, id); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		records[id] = b.String()
	}
	b, err := json.Marshal(records)
	if err != nil {
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}

// batchTracePath is the trace file of a batch workload's input directory.
func batchTracePath(workload, dir string) string {
	if workload == "replay-large" {
		return filepath.Join(dir, "trace.rrs1")
	}
	return filepath.Join(dir, "trace.rrt1")
}

// Live-input file names.
const (
	livePrefixFile = "prefix.rrt1" // the warm prefix the daemon starts on
	liveFullFile   = "full.rrt1"   // the whole horizon; the writer's day batches
)

// generate writes a workload's inputs into dir.
func generate(p params, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gcfg := genConfig(p.workload, p.seed, p.tiny)
	var err error
	switch p.workload {
	case "kernels-default":
		_, err = gen.GenerateToFile(gcfg, batchTracePath(p.workload, dir))
	case "replay-large":
		_, err = gen.GenerateToSegFile(gcfg, batchTracePath(p.workload, dir))
	case "serve-live":
		err = generateLive(gcfg, livePrefix, dir)
	default:
		err = fmt.Errorf("unknown workload %q", p.workload)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "done"), nil, 0o644)
}

// generateLive writes serve-live's warm prefix and full horizon as flat
// traces.
func generateLive(gcfg gen.Config, prefix int32, dir string) error {
	tr, err := gen.Generate(gcfg)
	if err != nil {
		return err
	}
	write := func(name string, keep func(trace.Event) bool) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		enc, err := trace.NewEncoder(f)
		if err != nil {
			f.Close()
			return err
		}
		enc.SetSeed(tr.Meta.Seed)
		enc.SetMergeDay(tr.Meta.MergeDay)
		for _, ev := range tr.Events {
			if !keep(ev) {
				break
			}
			if err := enc.Write(ev); err != nil {
				f.Close()
				return err
			}
		}
		if err := enc.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(livePrefixFile, func(ev trace.Event) bool { return ev.Day < prefix }); err != nil {
		return err
	}
	return write(liveFullFile, func(trace.Event) bool { return true })
}
