package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

const (
	// setupReps is how often a traced run plans, for core.plan_s.
	setupReps = 201
	// setupEvery is how often a batch run opens the trace and plans again
	// while its plans run; the median is setup_s. Set-up takes tens of
	// microseconds, so a burst of them would sample the host's speed at
	// one moment. The repeats cost about 0.1% of the process's CPU.
	setupEvery = 50 * time.Millisecond
	// A batch read is the whole figure set, what a client of the finished
	// run fetches: single panels are too small to time steadily, and their
	// sizes vary with the seed. The traced run reads for readShare of the
	// window; one read in warmPerCold+1 emits every panel afresh. The
	// host's speed drifts by tens of percent over a second or so, so a
	// read median needs seconds of reads, not a few hundred milliseconds.
	readShare   = 0.25
	warmPerCold = 5
)

// runBatch runs kernels-default or replay-large. Untraced, it repeats the
// whole plan for the measurement window (the first plan sets how many fit)
// and reports, in CPU time (see cpu.go):
//
//   - setup_s: trace open plus core.Plan, the thread's CPU time (median
//     over one before the first plan and one every setupEvery while the
//     plans run);
//   - cpu_s: the process's, for core.RunPlan until every panel's table is
//     encoded (median over the window's plans); events_per_cpu_s is trace
//     events / cpu_s.
//
// Every plan's panels are hashed and compared with the oracle digest; a
// mismatch fails that operation. The read, cold-read and freshness
// figures come from the traced run.
func runBatch(p params, rep *report) error {
	dir, err := inputDir(p)
	if err != nil {
		return err
	}
	path := batchTracePath(p.workload, dir)
	ref, err := referenceDigest(p, dir)
	if err != nil {
		return err
	}
	if p.traced {
		return tracedBatch(p, rep, path, ref)
	}
	figs := figuresOf(p.workload)

	// setup opens the trace and plans, as a run's set-up does, and returns
	// what it built and the calling thread's CPU seconds for it.
	setup := func() (trace.TraceFile, core.Config, *core.FigurePlan, float64, error) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t0 := threadCPU()
		src, err := trace.OpenTrace(path)
		if err != nil {
			return nil, core.Config{}, nil, 0, err
		}
		cfg := batchConfig(p.workload, p.tiny, src.Meta())
		plan, err := core.Plan(cfg, figs...)
		if err != nil {
			return nil, core.Config{}, nil, 0, err
		}
		return src, cfg, plan, (threadCPU() - t0).Seconds(), nil
	}
	src, cfg, plan, s0, err := setup()
	if err != nil {
		return err
	}
	meta := src.Meta()
	setups := []float64{s0}
	stopSetups := make(chan struct{})
	setupsDone := make(chan error, 1)
	go func() {
		tick := time.NewTicker(setupEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSetups:
				setupsDone <- nil
				return
			case <-tick.C:
				_, _, _, s, err := setup()
				if err != nil {
					setupsDone <- err
					return
				}
				setups = append(setups, s)
			}
		}
	}()

	ctx := context.Background()
	var walls, cpus []float64
	runs := 1
	for it := 0; it < runs; it++ {
		rep.Attempted++
		// Every plan starts from an empty heap, as a fresh process does,
		// so the previous plan's garbage does not move the peak.
		runtime.GC()
		coldFrameCache()
		t0, c0 := time.Now(), procCPU()
		res, err := core.RunPlan(ctx, src, cfg, plan)
		if err != nil {
			rep.fail("run %d: %v", it, err)
			continue
		}
		got, err := digest(res, figs)
		if err != nil {
			rep.fail("run %d: %v", it, err)
			continue
		}
		cpus = append(cpus, (procCPU() - c0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
		if got != ref {
			rep.fail("run %d: figure digest %s, reference %s", it, got, ref)
		}
		if len(walls) == 1 {
			runs = max(1, int(math.Round(p.seconds/walls[0])))
		}
	}
	close(stopSetups)
	if err := <-setupsDone; err != nil {
		return err
	}
	if len(walls) == 0 {
		return errors.New("no run completed")
	}

	rep.set("setup_s", "s", median(setups))
	cpu := median(cpus)
	fmt.Fprintf(os.Stderr, "rrbench: %d runs: cpu median %.3fs, wall median %.3fs\n", len(cpus), cpu, median(walls))
	rep.set("cpu_s", "s", cpu)
	rep.set("events_per_cpu_s", "1/s", float64(meta.Nodes+meta.Edges)/cpu)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MB", rss)
	return nil
}

// writePanel writes one panel's digest record to w: its id and its TSV
// encoding, or a skipped marker for a panel the trace cannot support
// (core.ErrStageSkipped is part of the answer, e.g. a merge-prediction
// dataset too small to split).
func writePanel(w io.Writer, res *core.Result, id string) error {
	tab, err := res.Figure(id)
	if errors.Is(err, core.ErrStageSkipped) {
		_, err = fmt.Fprintf(w, "%s skipped\n", id)
		return err
	}
	if err != nil {
		return fmt.Errorf("figure %s: %w", id, err)
	}
	fmt.Fprintf(w, "%s\n", id)
	if err := tab.WriteTSV(w); err != nil {
		return fmt.Errorf("encode %s: %w", id, err)
	}
	return nil
}

// digestEach hashes the digest records of every listed panel, in order,
// calling each (when non-nil) after every panel is encoded.
func digestEach(res *core.Result, ids []string, each func()) (string, error) {
	h := sha256.New()
	for _, id := range ids {
		if err := writePanel(h, res, id); err != nil {
			return "", err
		}
		if each != nil {
			each()
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digest(res *core.Result, ids []string) (string, error) { return digestEach(res, ids, nil) }

// coldFrameCache empties the process-wide inflated-frame cache, so every
// run decodes its compressed trace as a fresh rranalyze process would.
func coldFrameCache() {
	trace.SetFrameCacheCapacity(0)
	trace.SetFrameCacheCapacity(trace.DefaultFrameCacheBytes)
}

// unsealed copies a result's exported fields into a Result with no
// pre-emitted tables, so every Figure call runs its emitter.
func unsealed(r *core.Result) *core.Result {
	return &core.Result{
		Meta:           r.Meta,
		Growth:         r.Growth,
		Metrics:        r.Metrics,
		Evolution:      r.Evolution,
		Alpha:          r.Alpha,
		Community:      r.Community,
		Users:          r.Users,
		MergeBins:      r.MergeBins,
		MergeOverall:   r.MergeOverall,
		DeltaSweep:     r.DeltaSweep,
		Merge:          r.Merge,
		ResumedFromDay: r.ResumedFromDay,
	}
}

// readSet reads every panel of res once (lookup or emission, plus
// encoding), checks the set's digest, and returns the calling thread's CPU
// time for it in ms.
func readSet(res *core.Result, figs []string, ref string, rep *report) float64 {
	rep.Attempted++
	var buf bytes.Buffer
	t0 := threadCPU()
	for _, id := range figs {
		if err := writePanel(&buf, res, id); err != nil {
			rep.fail("read %s: %v", id, err)
			return ms(threadCPU() - t0)
		}
	}
	lat := ms(threadCPU() - t0)
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != ref {
		rep.fail("reads: digest %s, reference %s", got, ref)
	}
	return lat
}

// readPhase seals the result and reads the figure set in a closed loop for
// dur, with a cold read from a fresh unsealed copy (so every panel is
// emitted) after every warmPerCold warm ones: interleaved, host noise hits
// both kinds alike. It returns the cold and warm reads' CPU times in ms.
func readPhase(res *core.Result, figs []string, ref string, rep *report, dur time.Duration) (cold, warm []float64) {
	res.Seal()
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	for r := 0; r == 0 || time.Since(t0) < dur; r++ {
		warm = append(warm, readSet(res, figs, ref, rep))
		if r%warmPerCold == 0 {
			cold = append(cold, readSet(unsealed(res), figs, ref, rep))
		}
	}
	return cold, warm
}

// setReads reports the closed-loop reader's median latency and the rate
// it sustains at that latency, when its p99 meets the SLO (else 0).
func setReads(rep *report, reads []float64) {
	p50 := quantile(reads, 0.5)
	rep.set("read_p50_ms", "ms", p50)
	rps := 0.0
	if quantile(reads, 0.99) <= sloMs {
		rps = 1000 / p50
	}
	rep.set("read_rps_at_slo", "1/s", rps)
}

// tracedBatch is the traced run of a batch workload: one untraced RunPlan
// (the overhead baseline and the result the traced passes must
// reproduce), then layerPasses.
func tracedBatch(p params, rep *report, path, ref string) error {
	figs := figuresOf(p.workload)
	src, err := trace.OpenTrace(path)
	if err != nil {
		return err
	}
	meta := src.Meta()
	cfg := batchConfig(p.workload, p.tiny, meta)
	plan, err := core.Plan(cfg, figs...)
	if err != nil {
		return err
	}
	rep.Attempted++
	coldFrameCache()
	t0, c0 := time.Now(), procCPU()
	res, err := core.RunPlan(context.Background(), src, cfg, plan)
	if err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	var fresh []float64
	got, err := digestEach(res, figs, func() { fresh = append(fresh, ms(procCPU()-c0)) })
	if err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	untraced := time.Since(t0).Seconds()
	rep.set("wall_s", "s", untraced)
	rep.set("events_per_s", "1/s", float64(meta.Nodes+meta.Edges)/untraced)
	if got != ref {
		rep.fail("untraced run: figure digest %s, reference %s", got, ref)
	}
	// The reads and freshness are per-layer figures, in CPU time like the
	// rest of a batch run.
	cold, warm := readPhase(res, figs, ref, rep, time.Duration(p.seconds*readShare*float64(time.Second)))
	setReads(rep, warm)
	rep.set("read_p99_ms", "ms", quantile(warm, 0.99))
	rep.set("cold_p50_ms", "ms", median(cold))
	rep.set("fresh_p50_ms", "ms", quantile(fresh, 0.5))
	rep.set("fresh_p90_ms", "ms", quantile(fresh, 0.9))
	rec := newRecorder()
	if err := layerPasses(rep, rec, path, src, cfg, plan, figs, ref, res, untraced); err != nil {
		return err
	}
	setServeZeros(rep)
	rep.set("error_rate", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	return rec.write(spansPath(p))
}

// layerPasses measures the layers of one plan over the trace file at path:
// planning and table encoding; the plan on an engine assembled from the
// public stage constructors with every stage wrapped in spans; the kernel
// driver over the same snapshot and path schedule; and decode-only and
// decode+apply passes. res is the plan's untraced result and untraced its
// wall (RunPlan until every table is encoded); the traced pass must
// reproduce the reference digest ref.
func layerPasses(rep *report, rec *recorder, path string, src trace.TraceFile, cfg core.Config, plan *core.FigurePlan, figs []string, ref string, res *core.Result, untraced float64) error {
	meta := src.Meta()
	var plans []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := core.Plan(cfg, figs...); err != nil {
			return err
		}
		plans = append(plans, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if _, err := digest(res, figs); err != nil {
		return err
	}
	encode := time.Since(t0).Seconds()
	res = nil

	rep.Attempted++
	coldFrameCache()
	ctx := context.Background()
	tp, err := tracedPass(ctx, src, meta, cfg, plan, rec)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if got, err := digest(tp.res, figs); err != nil {
		rep.fail("traced pass: %v", err)
	} else if got != ref {
		rep.fail("traced pass: figure digest %s, reference %s", got, ref)
	}

	rep.Attempted++
	ks, err := kernelPass(src, meta, cfg, plan, tp.res, rec)
	if err != nil {
		rep.fail("kernel driver: %v", err)
	}

	coldFrameCache()
	before := trace.ReadFrameCacheStats()
	decodeS, events, err := decodePass(src, meta, false)
	if err != nil {
		return fmt.Errorf("decode pass: %w", err)
	}
	inflated := trace.ReadFrameCacheStats().InflatedBytes - before.InflatedBytes
	coldFrameCache()
	decodeApplyS, _, err := decodePass(src, meta, true)
	if err != nil {
		return fmt.Errorf("decode+apply pass: %w", err)
	}
	applyS := math.Max(0, decodeApplyS-decodeS)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}

	rep.set("core.plan_s", "s", median(plans))
	rep.set("core.encode_s", "s", encode)
	rep.set("trace.decode_s", "s", decodeS)
	rep.set("trace.events", "count", float64(events))
	rep.set("trace.bytes_read", "bytes", float64(fi.Size()))
	rep.set("trace.inflated_bytes", "bytes", float64(inflated))
	rep.set("graph.apply_s", "s", applyS)
	setStageMetrics(rep, rec, tp)
	ks.set(rep)
	// The work split: kernel seconds against every layer's measured work
	// (kernels, decode, apply, and the stage spans that hold no kernel).
	work := ks.total() + decodeS + applyS + tp.nonKernelS
	rep.set("bench.kernel_share", "ratio", ks.total()/work)
	rep.set("bench.dataplane_share", "ratio", (decodeS+applyS)/work)
	rep.set("bench.trace_overhead", "ratio", (float64(tp.end-tp.start)/1e9+encode)/untraced)
	return nil
}

func spansPath(p params) string {
	return fmt.Sprintf("%s/spans-%s.json", p.work, tag(p))
}

// decodePass reads every event of src once, applying each to a fresh
// shared state when apply is set. It returns the pass's seconds and the
// number of events.
func decodePass(src trace.Source, meta trace.Meta, apply bool) (float64, int64, error) {
	t0 := time.Now()
	cur, err := src.Open()
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	var st *trace.State
	if apply {
		st = trace.NewState(int(meta.Nodes), int(meta.Edges))
	}
	var n int64
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		if apply {
			if err := st.Apply(ev); err != nil {
				return 0, 0, err
			}
		}
		n++
	}
	return time.Since(t0).Seconds(), n, nil
}

// setServeZeros reports the serving-plane metrics a batch workload never
// exercises.
func setServeZeros(rep *report) {
	for _, m := range servePerLayer {
		rep.set(m.name, m.unit, 0)
	}
}
