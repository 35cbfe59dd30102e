package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/metrics"
	"repro/internal/osnmerge"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/trace"
	"repro/internal/tracking"
)

// stageWrap times one stage from outside. An Overlappable stage's events
// are buffered and replayed into it at the day end, inside one span, so no
// clock is read per event: the engine.Overlappable contract makes that
// replay equivalent to per-event delivery. Other stages get their events
// forwarded as they come and only their day end is timed.
type stageWrap struct {
	inner   engine.Stage
	rec     *recorder
	overlap bool
	batch   []trace.Event
}

func (w *stageWrap) Name() string { return w.inner.Name() }

func (w *stageWrap) OnEvent(st *trace.State, ev trace.Event) {
	if w.overlap {
		w.batch = append(w.batch, ev)
		return
	}
	w.inner.OnEvent(st, ev)
}

func (w *stageWrap) OnDayEnd(st *trace.State, day int32) {
	t0 := w.rec.now()
	for i := range w.batch {
		w.inner.OnEvent(st, w.batch[i])
	}
	t1 := w.rec.now()
	w.inner.OnDayEnd(st, day)
	t2 := w.rec.now()
	if len(w.batch) > 0 {
		w.rec.add(span{Name: w.Name() + ".event", Start: t0, End: t1, Parent: -1, Day: day})
	}
	w.rec.add(span{Name: w.Name() + ".day_end", Start: t1, End: t2, Parent: -1, Day: day})
	w.batch = w.batch[:0]
}

func (w *stageWrap) Finish(st *trace.State) error {
	t0 := w.rec.now()
	err := w.inner.Finish(st)
	w.rec.add(span{Name: w.Name() + ".finish", Start: t0, End: w.rec.now(), Parent: -1, Day: -1})
	return err
}

// overlapWrap keeps a wrapped Overlappable stage overlappable.
type overlapWrap struct{ *stageWrap }

func (overlapWrap) OverlapSafe() {}

// syncWrap forwards and times a wrapped stage's Syncer barrier.
type syncWrap struct {
	*stageWrap
	sy engine.Syncer
}

func (w syncWrap) Sync(ctx context.Context, st *trace.State, day int32) error {
	t0 := w.rec.now()
	err := w.sy.Sync(ctx, st, day)
	w.rec.add(span{Name: w.Name() + ".sync", Start: t0, End: w.rec.now(), Parent: -1, Day: day})
	return err
}

func wrap(s engine.Stage, rec *recorder) engine.Stage {
	w := &stageWrap{inner: s, rec: rec}
	if _, ok := s.(engine.Overlappable); ok {
		w.overlap = true
		return overlapWrap{w}
	}
	if y, ok := s.(engine.Syncer); ok {
		return syncWrap{w, y}
	}
	return w
}

// clockStage is an inline stage subscribed last: the engine runs its day
// end after every overlappable stage's day work has joined, so its
// timestamps close each day barrier.
type clockStage struct {
	rec  *recorder
	ends map[int32]int64
}

func (c *clockStage) Name() string                          { return "bench.clock" }
func (c *clockStage) OnEvent(_ *trace.State, _ trace.Event) {}
func (c *clockStage) OnDayEnd(_ *trace.State, day int32)    { c.ends[day] = c.rec.now() }
func (c *clockStage) Finish(_ *trace.State) error           { return nil }

// passResult is the traced engine pass's outcome.
type passResult struct {
	res        *core.Result
	start, end int64   // the run span: pass start to the end of the harvest
	passEnd    int64   // when the engine's pass returned
	root       int     // index of the run span
	nonKernelS float64 // seconds of stage spans that hold no kernel
}

// stageNames lists the wrapped streaming stages in the registry's
// subscription order; kernelStages are those whose day end (or sync) runs
// a per-snapshot kernel.
var (
	stageNames = []string{
		metrics.StageName, evolution.StageName, evolution.AlphaStageName,
		community.StageName, community.UsersStageName, community.SweepStageName, osnmerge.StageName,
	}
	kernelStages = map[string]bool{metrics.StageName: true, community.StageName: true, community.SweepStageName: true}
)

// tracedPass runs the plan's stages, built from their public constructors
// exactly as the core registry builds them, on an engine with every stage
// wrapped, then evaluates the SVM merge predictor as the plan's post-pass
// step does, and harvests everything into a core.Result.
func tracedPass(ctx context.Context, src trace.Source, meta trace.Meta, cfg core.Config, plan *core.FigurePlan, rec *recorder) (*passResult, error) {
	pool := engine.NewPool(cfg.Workers)
	eng := engine.New()
	eng.Hint(int(meta.Nodes), int(meta.Edges))
	eng.SetWorkers(pool.Workers())

	var (
		ms    *metrics.Stage
		evo   *evolution.Stage
		alpha *evolution.AlphaStage
		comm  *community.Stage
		users *community.UsersStage
		sweep *community.SweepStage
		merge *osnmerge.Stage
	)
	if plan.Has(metrics.StageName) {
		ms = metrics.NewStage(metrics.StageOptions{
			MetricsEvery:      cfg.MetricsEvery,
			PathEvery:         cfg.PathEvery,
			PathSources:       cfg.PathSources,
			ClusteringSamples: cfg.ClusteringSamples,
			Seed:              cfg.Seed,
			Workers:           pool.Workers(),
		})
		eng.Subscribe(wrap(ms, rec))
	}
	if plan.Has(evolution.StageName) {
		evo = evolution.NewStage(cfg.Evolution)
		eng.Subscribe(wrap(evo, rec))
	}
	if plan.Has(evolution.AlphaStageName) {
		alpha = evolution.NewAlphaStage(cfg.Alpha)
		eng.Subscribe(wrap(alpha, rec))
	}
	if plan.Has(community.StageName) {
		comm = community.NewStage(cfg.Community)
		comm.SetWorkers(pool.Workers())
		eng.Subscribe(wrap(comm, rec))
	}
	if plan.Has(community.UsersStageName) {
		users = community.NewUsersStage(nil, comm.Result)
		eng.Subscribe(wrap(users, rec))
	}
	if plan.Has(community.SweepStageName) && len(cfg.DeltaSweep) > 0 {
		sweep = community.NewSweepStage(cfg.Community, cfg.DeltaSweep, pool)
		eng.Subscribe(wrap(sweep, rec))
	}
	if plan.Has(osnmerge.StageName) && meta.MergeDay >= 0 {
		merge = osnmerge.NewStage(meta.MergeDay, cfg.Merge)
		eng.Subscribe(wrap(merge, rec))
	}
	clock := &clockStage{rec: rec, ends: map[int32]int64{}}
	eng.Subscribe(clock)

	start := rec.now()
	_, err := eng.RunSourceContext(ctx, src)
	passEnd := rec.now()
	if werr := pool.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}

	res := &core.Result{Meta: meta, ResumedFromDay: -1}
	if ms != nil {
		res.Growth, res.Metrics = ms.Growth, ms.Snapshots
	}
	if evo != nil {
		res.Evolution = evo.Result()
	}
	if alpha != nil {
		res.Alpha = alpha.Result()
	}
	if comm != nil {
		res.Community = comm.Result()
	}
	if users != nil {
		res.Users = users.Impact()
	}
	if plan.Has("svm") {
		t0 := rec.now()
		ds := community.BuildMergeDataset(comm.Result(), meta.MergeDay)
		bins, overall, err := community.EvaluateMergePrediction(ds, 10, svm.Options{Seed: cfg.Seed, ClassWeighted: true})
		if err == nil {
			res.MergeBins = bins
			res.MergeOverall = core.MergeAccuracy{
				PosAccuracy: overall.PosAccuracy, NegAccuracy: overall.NegAccuracy,
				Accuracy: overall.Accuracy, N: overall.N,
			}
		}
		rec.add(span{Name: "svm.eval", Start: t0, End: rec.now(), Parent: -1, Day: -1})
	}
	if sweep != nil {
		for i, d := range cfg.DeltaSweep {
			dr := sweep.Result(i)
			if dr == nil {
				continue
			}
			run := core.DeltaRun{Delta: d, Stats: dr.Stats}
			if n := len(cfg.Community.SizeDistDays); n > 0 {
				run.SizeDist = dr.SizeDists[cfg.Community.SizeDistDays[n-1]]
			}
			res.DeltaSweep = append(res.DeltaSweep, run)
		}
	}
	if merge != nil {
		res.Merge = merge.Result()
	}
	end := rec.now()

	nonKernel := 0.0
	for _, name := range stageNames {
		nonKernel += rec.sum(name+".event") + rec.sum(name+".finish")
		if !kernelStages[name] {
			nonKernel += rec.sum(name + ".day_end")
		}
	}
	nonKernel += rec.sum("svm.eval")
	root := buildPassTree(rec, clock, start, passEnd, end)
	return &passResult{res: res, start: start, end: end, passEnd: passEnd, root: root, nonKernelS: nonKernel}, nil
}

// buildPassTree turns the flat stage spans of a traced pass into a tree
// under one "run" span. Its children, which tile the run, are per day a
// "replay" span (decode wait, apply and inline dispatch, from the end of
// the previous day's barrier to the first stage's day work), a "barrier"
// span (the overlapped stage day work, ending when the clock stage sees
// the join) and the sweep's "sweep.sync" span; then one "finish" span
// over the stages' Finish calls and the "svm.eval" span.
func buildPassTree(rec *recorder, clock *clockStage, start, passEnd, end int64) int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	root := len(rec.spans)
	rec.spans = append(rec.spans, span{Name: "run", Start: start, End: end, Parent: -1, Day: -1})
	first := map[int32]int64{}
	syncEnd := map[int32]int64{}
	finishLo, finishHi := int64(math.MaxInt64), int64(0)
	var maxDay int32 = -1
	for i := 0; i < root; i++ {
		s := &rec.spans[i]
		switch {
		case s.Day < 0:
			if s.Name == "svm.eval" {
				s.Parent = root
			} else {
				finishLo, finishHi = min(finishLo, s.Start), max(finishHi, s.End)
			}
		case s.Name == community.SweepStageName+".sync":
			s.Parent = root
			syncEnd[s.Day] = s.End
		default:
			if t, ok := first[s.Day]; !ok || s.Start < t {
				first[s.Day] = s.Start
			}
		}
		maxDay = max(maxDay, s.Day)
	}
	for d := range clock.ends {
		maxDay = max(maxDay, d)
	}
	barrier := map[int32]int{}
	prev := start
	for d := int32(0); d <= maxDay; d++ {
		closeAt, ok := clock.ends[d]
		if !ok {
			continue
		}
		open := closeAt
		if t, ok := first[d]; ok {
			open = t
		}
		rec.spans = append(rec.spans, span{Name: "replay", Start: prev, End: open, Parent: root, Day: d})
		barrier[d] = len(rec.spans)
		rec.spans = append(rec.spans, span{Name: "barrier", Start: open, End: closeAt, Parent: root, Day: d})
		prev = max(closeAt, syncEnd[d])
	}
	if finishHi > 0 {
		fin := len(rec.spans)
		rec.spans = append(rec.spans, span{Name: "finish", Start: finishLo, End: min(finishHi, passEnd), Parent: root, Day: -1})
		for i := 0; i < root; i++ {
			if s := &rec.spans[i]; s.Day < 0 && s.Name != "svm.eval" {
				s.Parent = fin
			}
		}
	}
	for i := 0; i < root; i++ {
		if s := &rec.spans[i]; s.Day >= 0 && s.Parent < 0 {
			if b, ok := barrier[s.Day]; ok {
				s.Parent = b
			}
		}
	}
	return root
}

// setStageMetrics reports the per-stage, engine and coverage metrics of a
// traced pass.
func setStageMetrics(rep *report, rec *recorder, tp *passResult) {
	for _, name := range []string{metrics.StageName, evolution.StageName, evolution.AlphaStageName, osnmerge.StageName, community.UsersStageName} {
		rep.set(name+".event_s", "s", rec.sum(name+".event"))
	}
	for _, name := range stageNames {
		if name != community.SweepStageName {
			rep.set(name+".day_end_s", "s", rec.sum(name+".day_end"))
		}
		rep.set(name+".finish_s", "s", rec.sum(name+".finish"))
	}
	rep.set("sweep.sync_s", "s", rec.sum(community.SweepStageName+".sync"))
	rep.set("svm.eval_s", "s", rec.sum("svm.eval"))

	// The run span's children tile it; coverage is how much of the run
	// they account for.
	covered, _ := rec.tally(func(s span) bool { return s.Parent == tp.root })
	rep.set("bench.span_coverage", "ratio", covered/(float64(tp.end-tp.start)/1e9))
	_, barrierSelf := rec.tally(func(s span) bool { return s.Name == "barrier" })
	rep.set("engine.pass_s", "s", float64(tp.passEnd-tp.start)/1e9)
	rep.set("engine.self_s", "s", rec.sum("replay")+barrierSelf)
}

// kernelStats accumulates the kernel driver's per-kernel busy time and
// work counts.
type kernelStats struct {
	prepare, run, track, freeze, bfs, clust float64
	runs, levels, advances, freezes         int64
	sources                                 int64
}

func (k kernelStats) total() float64 {
	return k.prepare + k.run + k.track + k.freeze + k.bfs + k.clust
}

func (k kernelStats) set(rep *report) {
	rep.set("louvain.prepare_s", "s", k.prepare)
	rep.set("louvain.run_s", "s", k.run)
	rep.set("louvain.runs", "count", float64(k.runs))
	rep.set("louvain.levels", "count", float64(k.levels))
	rep.set("tracking.advance_s", "s", k.track)
	rep.set("tracking.advances", "count", float64(k.advances))
	rep.set("graph.freeze_s", "s", k.freeze)
	rep.set("graph.freezes", "count", float64(k.freezes))
	rep.set("metrics.path_bfs_s", "s", k.bfs)
	rep.set("metrics.path_sources", "count", float64(k.sources))
	rep.set("metrics.clustering_s", "s", k.clust)
}

// seeded builds the incremental Louvain seed from the previous snapshot's
// assignment, as the community detector does: nodes that joined since get
// singletons, and the first snapshot starts from all singletons.
func seeded(prev []int32, n int) []int32 {
	if prev == nil {
		return nil
	}
	init := make([]int32, n)
	for i := range init {
		if i < len(prev) {
			init[i] = prev[i]
		} else {
			init[i] = -1
		}
	}
	return init
}

// kernelPass replays the trace and walks the plan's snapshot and path
// schedule through the kernels' public calls, timing each: the metrics
// stage's clustering and path samplers (same seeded RNG stream), the
// community stage's prepare → seeded RunPrepared → Tracker.Advance on the
// live graph, and the sweep's Freeze → PrepareWorkers → per-δ RunPrepared
// → Tracker.Advance. It then checks that it reproduced the run: the
// modularity series must equal the fig5 and fig4 stats bit for bit, and
// the sampled clustering and path lengths the fig1 series.
func kernelPass(src trace.Source, meta trace.Meta, cfg core.Config, plan *core.FigurePlan, res *core.Result, rec *recorder) (kernelStats, error) {
	var ks kernelStats
	hasMetrics := plan.Has(metrics.StageName)
	hasComm := plan.Has(community.StageName)
	hasSweep := plan.Has(community.SweepStageName) && len(cfg.DeltaSweep) > 0
	if !hasMetrics && !hasComm && !hasSweep {
		return ks, nil
	}
	workers := engine.NewPool(cfg.Workers).Workers()
	copt := cfg.Community
	if copt.SnapshotEvery <= 0 {
		copt.SnapshotEvery = 3
	}
	if copt.MinSize <= 0 {
		copt.MinSize = 10
	}
	if copt.Delta <= 0 {
		copt.Delta = 0.04
	}
	due := func(day int32, nodes int) bool {
		return day >= copt.StartDay && (day-copt.StartDay)%copt.SnapshotEvery == 0 && nodes >= copt.MinNodes
	}
	rng := rand.New(stats.NewSource(cfg.Seed))
	var clust metrics.ClusteringSampler
	paths := metrics.PathSampler{Workers: workers}
	var clusters, pathLens []float64

	mainTracker := tracking.NewTracker(copt.MinSize)
	var mainPrev []int32
	var mainQ []float64
	sweepTrackers := make([]*tracking.Tracker, len(cfg.DeltaSweep))
	sweepPrev := make([][]int32, len(cfg.DeltaSweep))
	sweepQ := make([][]float64, len(cfg.DeltaSweep))
	for i := range sweepTrackers {
		sweepTrackers[i] = tracking.NewTracker(copt.MinSize)
	}

	var kerr error
	timed := func(name string, day int32, acc *float64, fn func()) {
		t0 := rec.now()
		fn()
		t1 := rec.now()
		rec.add(span{Name: name, Start: t0, End: t1, Parent: -1, Day: day})
		*acc += float64(t1-t0) / 1e9
	}
	detect := func(day int32, prep *louvain.Prepared, g graph.View, delta float64, prev *[]int32, tr *tracking.Tracker, q *[]float64) {
		var lr *louvain.Result
		timed("louvain.run", day, &ks.run, func() {
			var err error
			lr, err = louvain.RunPrepared(prep, louvain.Options{
				Delta: delta, MaxLevels: copt.MaxLevels, Seed: copt.Seed, Init: seeded(*prev, g.NumNodes()),
			})
			if err != nil && kerr == nil {
				kerr = fmt.Errorf("louvain at day %d: %w", day, err)
			}
		})
		if lr == nil {
			return
		}
		ks.runs++
		ks.levels += int64(lr.Levels)
		*prev = lr.Community
		*q = append(*q, lr.Modularity)
		timed("tracking.advance", day, &ks.track, func() { tr.Advance(day, g, tracking.Assignment(lr.Community)) })
		ks.advances++
	}

	st := trace.NewState(int(meta.Nodes), int(meta.Edges))
	err := trace.ReplaySourceInto(st, src, trace.Hooks{OnDayEnd: func(st *trace.State, day int32) {
		g := st.Graph
		if hasMetrics && day%cfg.MetricsEvery == 0 && g.NumNodes() > 0 {
			timed("metrics.clustering", day, &ks.clust, func() {
				clusters = append(clusters, clust.Sample(g, cfg.ClusteringSamples, rng))
			})
			if day%cfg.PathEvery == 0 {
				timed("metrics.path_bfs", day, &ks.bfs, func() {
					pl, err := paths.Sample(g, cfg.PathSources, rng)
					if err != nil {
						pl = 0
					}
					pathLens = append(pathLens, pl)
				})
				ks.sources += int64(cfg.PathSources)
			}
		}
		if !due(day, g.NumNodes()) {
			return
		}
		if hasComm {
			var prep *louvain.Prepared
			timed("louvain.prepare", day, &ks.prepare, func() { prep = louvain.PrepareWorkers(g, workers) })
			detect(day, prep, g, copt.Delta, &mainPrev, mainTracker, &mainQ)
		}
		if hasSweep {
			var f *graph.Frozen
			timed("graph.freeze", day, &ks.freeze, func() { f = g.Freeze() })
			ks.freezes++
			var prep *louvain.Prepared
			timed("louvain.prepare", day, &ks.prepare, func() { prep = louvain.PrepareWorkers(f, workers) })
			for i, d := range cfg.DeltaSweep {
				detect(day, prep, f, d, &sweepPrev[i], sweepTrackers[i], &sweepQ[i])
			}
		}
	}})
	if err != nil {
		return ks, err
	}
	if kerr != nil {
		return ks, kerr
	}
	if hasComm {
		if err := sameModularity("fig5", res.Community.Stats, mainQ); err != nil {
			return ks, err
		}
	}
	if hasSweep {
		for i := range cfg.DeltaSweep {
			if err := sameModularity(fmt.Sprintf("fig4 δ=%v", cfg.DeltaSweep[i]), res.DeltaSweep[i].Stats, sweepQ[i]); err != nil {
				return ks, err
			}
		}
	}
	if hasMetrics {
		if len(res.Metrics) != len(clusters) {
			return ks, fmt.Errorf("fig1: %d metric snapshots, kernel driver sampled %d", len(res.Metrics), len(clusters))
		}
		pi := 0
		for i, s := range res.Metrics {
			if math.Float64bits(s.Clustering) != math.Float64bits(clusters[i]) {
				return ks, fmt.Errorf("fig1 day %d: clustering %v, kernel driver %v", s.Day, s.Clustering, clusters[i])
			}
			if s.Day%cfg.PathEvery == 0 {
				if pi >= len(pathLens) || math.Float64bits(s.PathLength) != math.Float64bits(pathLens[pi]) {
					return ks, fmt.Errorf("fig1 day %d: path length %v differs from the kernel driver", s.Day, s.PathLength)
				}
				pi++
			}
		}
	}
	return ks, nil
}

// sameModularity checks a run's snapshot modularity series against the
// kernel driver's, bit for bit.
func sameModularity(what string, stats []community.SnapshotStat, q []float64) error {
	if len(stats) != len(q) {
		return fmt.Errorf("%s: %d snapshots, kernel driver ran %d", what, len(stats), len(q))
	}
	for i, s := range stats {
		if math.Float64bits(s.Modularity) != math.Float64bits(q[i]) {
			return fmt.Errorf("%s day %d: modularity %v, kernel driver %v", what, s.Day, s.Modularity, q[i])
		}
	}
	return nil
}
