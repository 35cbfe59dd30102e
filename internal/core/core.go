// Package core is the paper's contribution assembled as a library: the
// multi-scale analysis pipeline. Given a dynamic-network trace it runs the
// network-level (§2), node-level (§3), community-level (§4), and
// network-merge (§5) analyses, and exposes every figure of the paper's
// evaluation as a data table (see figures.go and DESIGN.md's experiment
// index).
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/community"
	"repro/internal/evolution"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/osnmerge"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config selects and parameterizes the pipeline stages.
type Config struct {
	// MetricsEvery is the cadence (days) of degree/clustering/
	// assortativity measurements. PathEvery is the cadence of sampled
	// path length, which is stored in that day's metrics row, so it is
	// measured only on days that are multiples of both: PathEvery=20
	// with MetricsEvery=3 samples every 60 days. (The paper computes
	// path length every 3 days with 1000 sources; the scaled defaults
	// are 3 and 9/100.)
	MetricsEvery int32
	PathEvery    int32
	// PathSources is the number of BFS sources for path length.
	PathSources int
	// ClusteringSamples is the node sample size for average clustering.
	ClusteringSamples int

	// Evolution and Alpha parameterize the §3 analyses.
	Evolution evolution.Options
	Alpha     evolution.AlphaOptions

	// Community parameterizes the §4 pipeline; DeltaSweep lists the δ
	// values for Fig 4 (empty = skip the sweep).
	Community  community.Options
	DeltaSweep []float64

	// Merge parameterizes the §5 analysis.
	Merge osnmerge.Options

	// Stage toggles, for cheap partial runs.
	//
	// Deprecated: the planner subsumes these coarse booleans — build a
	// plan with Plan(cfg, figures...) and execute it with RunPlan (or call
	// RunFigures) to run exactly the stages a set of panels needs. The
	// toggles remain as shims: Run and RunSource translate them into a
	// plan (skipping "community" also drops the users, svm, and sweep
	// stages that historically rode on that toggle), and an explicit
	// figure request to Plan overrides them entirely.
	SkipMetrics   bool
	SkipEvolution bool
	SkipCommunity bool
	SkipMerge     bool

	// Seed for sampled metrics.
	Seed int64

	// Workers bounds the run's concurrency: the worker pool the δ-sweep
	// and SVM evaluation fan out on, the engine's parallel shared pass
	// (decode-ahead reader plus per-day stage overlap), and the kernel
	// fan-outs (parallel Louvain prepare, sampled-BFS sources) all size
	// themselves by it. <= 0 selects GOMAXPROCS; 1 forces the fully
	// sequential pass. It is a throughput knob, never a result knob:
	// every figure is bit-identical at any setting
	// (TestParallelWorkersMatch), and Workers is deliberately excluded
	// from the checkpoint fingerprint, so checkpoints written at one
	// worker count resume at any other.
	Workers int

	// OnProgress, when non-nil, is invoked at every day boundary of the
	// shared streaming pass with the finished day and the cumulative
	// number of events applied. Since the δ-sweep also rides the shared
	// pass, this observes the whole run's replay. It must not block: it
	// runs on the replay's goroutine.
	OnProgress func(day int32, events int64)

	// CheckpointDir enables the checkpointed state plane (DESIGN.md §6):
	// when non-empty, RunPlan writes a checkpoint of the shared state and
	// every streaming stage's accumulators into this directory every
	// CheckpointEvery days at the engine's Sync barrier, plus one at the
	// last replayed day — the end-of-run checkpoint an incremental
	// workflow resumes from after the trace gains days.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in days; <= 0 defaults to
	// 90 when CheckpointDir is set.
	CheckpointEvery int32
	// CheckpointFullEvery is the tiered-storage cadence: of every N
	// checkpoints, the first is a full container and the following N-1
	// are deltas against their predecessor — changed stage blobs plus
	// the appended graph ranges only. <= 1 writes only full checkpoints
	// (the historic behavior). Like every storage knob it is excluded
	// from the compatibility fingerprint: full and delta checkpoints of
	// the same run interoperate freely.
	CheckpointFullEvery int
	// CheckpointKeep bounds retention: after each checkpoint write, all
	// but the newest N full checkpoints under this run's fingerprint
	// (plus the deltas chained above the oldest kept full) are deleted
	// from the backend. <= 0 keeps everything. Checkpoints written under
	// other fingerprints are never touched.
	CheckpointKeep int
	// CheckpointBackend overrides where checkpoints are written and
	// resolved from; nil uses a DirBackend rooted at CheckpointDir. An
	// explicit backend makes CheckpointDir optional.
	CheckpointBackend storage.Backend
	// CheckpointObserver, when non-nil, is invoked after every
	// successful checkpoint write with the written object's stats — the
	// serving daemon's /statz storage section hangs off it. Called on
	// the replay goroutine; it must not block.
	CheckpointObserver func(CheckpointStat)
	// Resume makes RunPlan restore the latest compatible checkpoint in
	// CheckpointDir — same stage set and config fingerprint, checkpoint
	// day within the trace — and replay only the days after it. Any
	// mismatch (different knobs, different stage plan, corrupt or
	// truncated file) falls back cleanly to a from-zero replay; resumed
	// or not, the figure tables are bit-identical
	// (TestResumeMatchesFromZero).
	Resume bool
}

// DefaultConfig mirrors the paper's parameters at the scaled sizes.
func DefaultConfig() Config {
	cm := community.DefaultOptions()
	return Config{
		MetricsEvery:      3,
		PathEvery:         9,
		PathSources:       100,
		ClusteringSamples: 1000,
		Evolution:         evolution.DefaultOptions(),
		Alpha:             evolution.AlphaOptions{Interval: 5000, MinEdges: 10000, PolyDegree: 5},
		Community:         cm,
		Merge:             osnmerge.DefaultOptions(),
		Seed:              1,
	}
}

// ParseDeltaSweep parses a comma-separated δ list — the textual form of
// Config.DeltaSweep used by the CLIs' -deltas flags. The values are
// Louvain modularity-gain thresholds, so each must be a positive finite
// number; duplicates are rejected too (a repeated δ would silently run
// the same detection twice and emit duplicate Fig 4 series).
func ParseDeltaSweep(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("empty δ list")
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad δ value %q: %v", f, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("δ value %q out of range: must be a positive finite threshold", f)
		}
		for _, prev := range out {
			if prev == v {
				return nil, fmt.Errorf("duplicate δ value %v", v)
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// GrowthDay is one day of the Fig 1a/1b series.
type GrowthDay = metrics.GrowthDay

// DeltaRun is one δ value's community pipeline outcome (Fig 4).
type DeltaRun struct {
	Delta float64
	Stats []community.SnapshotStat
	// SizeDist is the community size distribution at the sweep's
	// distribution day.
	SizeDist []int
}

// MergeAccuracy is the overall Fig 6b merge-prediction evaluation: held-out
// accuracy over N samples, split by class. It is a named type (not an
// anonymous struct) so callers can carry it through their own signatures.
type MergeAccuracy struct {
	PosAccuracy, NegAccuracy, Accuracy float64
	N                                  int
}

// Result is the full multi-scale analysis output.
type Result struct {
	Meta trace.Meta

	Growth  []GrowthDay
	Metrics []metrics.Snapshot

	Evolution *evolution.Result
	Alpha     *evolution.AlphaResult

	Community *community.Result
	Users     *community.UserImpact
	// MergeBins and MergeOverall are the Fig 6b evaluation.
	MergeBins    []community.AgeBinAccuracy
	MergeOverall MergeAccuracy
	DeltaSweep   []DeltaRun

	Merge *osnmerge.Result

	// ResumedFromDay is the checkpoint day this run resumed from, or -1
	// when it replayed from day 0 (no checkpointing, no compatible
	// checkpoint, or Config.Resume unset).
	ResumedFromDay int32

	// tables is the keyed figure store: panels pre-emitted by a
	// demand-driven run (RunPlan/RunFigures) or by Seal, served by Figure
	// without re-emitting. tableErrs is its error side, filled by Seal so
	// a sealed Result never runs an emitter (see Seal's concurrency
	// contract).
	tables    map[string]*Table
	tableErrs map[string]error
}

// ErrEmptyTrace is returned for traces with no events.
var ErrEmptyTrace = errors.New("core: empty trace")

// withDefaults fills the paper's scaled defaults into zero-valued knobs.
func (cfg Config) withDefaults() Config {
	if cfg.MetricsEvery <= 0 {
		cfg.MetricsEvery = 3
	}
	if cfg.PathEvery <= 0 {
		cfg.PathEvery = 9
	}
	if cfg.PathSources <= 0 {
		cfg.PathSources = 100
	}
	if cfg.ClusteringSamples <= 0 {
		cfg.ClusteringSamples = 1000
	}
	return cfg
}

// applyMergePrediction trains and evaluates the Fig 6b SVM merge predictor
// over a community result and copies the outcome into res. Evaluation
// errors (e.g. a dataset too small to split) leave the result fields empty;
// the figure then reports ErrStageSkipped, matching the pipeline's historic
// behavior.
func applyMergePrediction(res *Result, cr *community.Result, mergeDay int32, seed int64) {
	ds := community.BuildMergeDataset(cr, mergeDay)
	bins, overall, err := community.EvaluateMergePrediction(ds, 10, svmOptions(seed))
	if err != nil {
		return
	}
	res.MergeBins = bins
	res.MergeOverall = MergeAccuracy{
		PosAccuracy: overall.PosAccuracy,
		NegAccuracy: overall.NegAccuracy,
		Accuracy:    overall.Accuracy,
		N:           overall.N,
	}
}

// Run executes the configured pipeline stages over the trace on the
// streaming engine: every stage — the δ-sweep included — subscribes to
// one shared replay pass. The sweep's per-δ detectors run against frozen
// snapshots of the shared graph on a bounded worker pool, and the SVM
// merge-prediction evaluation joins that pool after the pass. The result
// is identical to RunBatch's (the equivalence is enforced by
// TestEngineMatchesBatch); only the pass structure differs.
//
// Run translates the deprecated Skip* toggles into a plan; demand-driven
// callers should use Plan/RunPlan (or RunFigures) instead, which also
// accept a context for cancellation.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	if len(tr.Events) == 0 {
		return nil, ErrEmptyTrace
	}
	return runPlan(nil, trace.SliceSource(tr.Events), tr.Meta, cfg, planFromConfig(cfg))
}

// RunSource is Run over a re-openable event source — the out-of-core
// entry point. With a disk-backed trace.FileSource the only O(events)
// artifact is the file itself: the single shared pass opens one cursor
// (the δ-sweep no longer opens its own), so resident memory is the live
// trace.State plus per-stage accumulators — O(state) with exactly one
// live graph regardless of how many δ values sweep (asserted by the
// replay-memory and delta-sweep benchmarks). The source's Meta gates
// the merge stage and sizes the state, exactly as a Trace's Meta does.
//
// Like Run, this is a Skip*-translating shim over RunPlan.
func RunSource(src trace.MetaSource, cfg Config) (*Result, error) {
	return RunPlan(nil, src, cfg, nil)
}

// RunBatch executes the same pipeline through the per-analysis batch entry
// points: each stage replays the trace independently (8+ passes on a full
// configuration). It is kept as the reference implementation the streaming
// engine is tested against, and as a fallback when per-stage isolation is
// worth more than speed.
func RunBatch(tr *trace.Trace, cfg Config) (*Result, error) {
	if len(tr.Events) == 0 {
		return nil, ErrEmptyTrace
	}
	return runBatchSource(trace.SliceSource(tr.Events), tr.Meta, cfg)
}

// RunBatchSource is RunBatch over a re-openable event source: every
// analysis re-opens the source for a private pass (8+ passes on a full
// configuration), trading passes for per-stage isolation exactly like
// RunBatch does.
func RunBatchSource(src trace.MetaSource, cfg Config) (*Result, error) {
	meta := src.Meta()
	if meta.Nodes == 0 && meta.Edges == 0 {
		return nil, ErrEmptyTrace
	}
	return runBatchSource(src, meta, cfg)
}

// runBatchSource is the batch-path implementation shared by RunBatch and
// RunBatchSource.
func runBatchSource(src trace.Source, meta trace.Meta, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Meta: meta, ResumedFromDay: -1}

	if !cfg.SkipMetrics {
		if err := runMetrics(src, cfg, res); err != nil {
			return nil, err
		}
	}
	if !cfg.SkipEvolution {
		ev, err := evolution.AnalyzeSource(src, cfg.Evolution)
		if err != nil {
			return nil, fmt.Errorf("core: evolution: %w", err)
		}
		res.Evolution = ev
		al, err := evolution.AnalyzeAlphaSource(src, cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("core: alpha: %w", err)
		}
		res.Alpha = al
	}
	if !cfg.SkipCommunity {
		cr, err := community.RunSource(src, cfg.Community)
		if err != nil {
			return nil, fmt.Errorf("core: community: %w", err)
		}
		res.Community = cr
		ui, err := community.AnalyzeUsersSource(src, cr, nil)
		if err != nil {
			return nil, fmt.Errorf("core: users: %w", err)
		}
		res.Users = ui
		applyMergePrediction(res, cr, meta.MergeDay, cfg.Seed)
		for _, d := range cfg.DeltaSweep {
			opt := cfg.Community
			opt.Delta = d
			dr, err := community.RunSource(src, opt)
			if err != nil {
				return nil, fmt.Errorf("core: delta sweep δ=%v: %w", d, err)
			}
			run := DeltaRun{Delta: d, Stats: dr.Stats}
			if len(opt.SizeDistDays) > 0 {
				run.SizeDist = dr.SizeDists[opt.SizeDistDays[len(opt.SizeDistDays)-1]]
			}
			res.DeltaSweep = append(res.DeltaSweep, run)
		}
	}
	if !cfg.SkipMerge && meta.MergeDay >= 0 {
		mr, err := osnmerge.AnalyzeSource(src, meta.MergeDay, cfg.Merge)
		if err != nil {
			return nil, fmt.Errorf("core: merge: %w", err)
		}
		res.Merge = mr
	}
	return res, nil
}

// runMetrics computes the Fig 1 series in one replay pass of its own,
// independent of the streaming metrics.Stage, so the batch reference path
// stays a genuinely separate implementation.
func runMetrics(src trace.Source, cfg Config, res *Result) error {
	rng := stats.NewRand(cfg.Seed)
	var prevNodes, prevEdges int64
	var addedNodes, addedEdges int64
	_, err := trace.ReplaySource(src, trace.Hooks{
		OnEvent: func(st *trace.State, ev trace.Event) {
			switch ev.Kind {
			case trace.AddNode:
				addedNodes++
			case trace.AddEdge:
				addedEdges++
			}
		},
		OnDayEnd: func(st *trace.State, day int32) {
			g := st.Graph
			nodes, edges := int64(g.NumNodes()), g.NumEdges()
			gd := GrowthDay{
				Day:        day,
				NodesAdded: addedNodes,
				EdgesAdded: addedEdges,
				Nodes:      nodes,
				Edges:      edges,
			}
			if prevNodes > 0 {
				gd.NodeGrowthPct = 100 * float64(addedNodes) / float64(prevNodes)
			}
			if prevEdges > 0 {
				gd.EdgeGrowthPct = 100 * float64(addedEdges) / float64(prevEdges)
			}
			res.Growth = append(res.Growth, gd)
			prevNodes, prevEdges = nodes, edges
			addedNodes, addedEdges = 0, 0

			if day%cfg.MetricsEvery == 0 && nodes > 0 {
				snap := metrics.Snapshot{
					Day:        day,
					Nodes:      nodes,
					Edges:      edges,
					AvgDegree:  metrics.AverageDegree(g),
					Clustering: metrics.SampledClustering(g, cfg.ClusteringSamples, rng),
					Assort:     metrics.Assortativity(g),
				}
				if day%cfg.PathEvery == 0 {
					if pl, err := metrics.SampledPathLength(g, cfg.PathSources, rng); err == nil {
						snap.PathLength = pl
					}
				}
				res.Metrics = append(res.Metrics, snap)
			}
		},
	})
	return err
}

// GenerateAndRun generates a trace from the given generator config and runs
// the pipeline on it — the one-call entry point used by the examples.
func GenerateAndRun(gcfg gen.Config, cfg Config) (*trace.Trace, *Result, error) {
	tr, err := gen.Generate(gcfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := Run(tr, cfg)
	if err != nil {
		return nil, nil, err
	}
	return tr, res, nil
}
