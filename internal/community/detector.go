package community

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/tracking"
)

// Detector is the per-δ detection layer of the §4 community pipeline: the
// incremental-Louvain seed chain, the similarity tracker, and the result
// accumulation for one δ. It owns no graph — every snapshot is handed in
// as a read-only graph.View, either the live shared graph (the single-δ
// Stage drives it straight off the engine pass) or a frozen CSR snapshot
// shared by all of a sweep's detectors (SweepStage). Splitting detection
// from graph maintenance is what lets a K-δ sweep run on one graph: the
// per-δ state is just the previous assignment plus tracking histories.
//
// A Detector is single-goroutine: Advance calls must be sequential and in
// snapshot order (day D's Louvain seeds from the previous snapshot's
// assignment). Concurrency across δ values is the caller's job.
type Detector struct {
	opt      Options
	workers  int               // Louvain-prepare fan-out width; see SetWorkers
	wantDist map[int32][]int32 // snapshot day -> requested SizeDistDays it serves
	tracker  *tracking.Tracker
	prevComm []int32
	res      *Result
	err      error
	done     bool
}

// NewDetector creates a per-δ detector with Run's defaulting. Requested
// SizeDistDays that fall between snapshots are snapped to the nearest
// scheduled snapshot day (see Options.SizeDistDays).
func NewDetector(opt Options) *Detector {
	opt = opt.withDefaults()
	d := &Detector{
		opt:      opt,
		wantDist: map[int32][]int32{},
		tracker:  tracking.NewTracker(opt.MinSize),
		res:      &Result{Opt: opt, SizeDists: map[int32][]int{}},
	}
	for _, day := range opt.SizeDistDays {
		snap := opt.SnapToSnapshotDay(day)
		d.wantDist[snap] = append(d.wantDist[snap], day)
	}
	return d
}

// SetWorkers sets the fan-out width of the per-snapshot Louvain prepare
// (louvain.PrepareWorkers) when Advance has to build its own weighted
// view. It is a throughput knob only — the prepared view is bit-identical
// at any width — and therefore lives outside Options, which is hashed
// into the checkpoint fingerprint: checkpoints must stay portable across
// worker counts.
func (d *Detector) SetWorkers(n int) { d.workers = n }

// due reports whether day is a scheduled snapshot day for this detector
// with a graph of `nodes` nodes.
func (d *Detector) due(day int32, nodes int) bool {
	return d.opt.due(day, nodes)
}

// Advance runs one snapshot over the given graph view: incremental
// Louvain seeded from the previous snapshot's assignment, tracker
// matching, and the per-snapshot statistics. After a Louvain error the
// detector latches it and further Advance calls are no-ops; the error
// surfaces from Finish.
func (d *Detector) Advance(day int32, g graph.View) {
	d.AdvancePrepared(day, g, nil)
}

// AdvancePrepared is Advance with a pre-built Louvain view of g (nil
// builds one): the sweep prepares the frozen snapshot's weighted graph
// once and shares it read-only across every δ's detector, so K detectors
// don't re-derive K identical weighted graphs per snapshot.
func (d *Detector) AdvancePrepared(day int32, g graph.View, prep *louvain.Prepared) {
	if d.err != nil {
		return
	}
	if prep == nil {
		prep = louvain.PrepareWorkers(g, d.workers)
	}
	n := g.NumNodes()
	// Incremental Louvain: seed with the previous snapshot's assignment;
	// nodes that joined since get singletons.
	init := make([]int32, n)
	for i := range init {
		if i < len(d.prevComm) {
			init[i] = d.prevComm[i]
		} else {
			init[i] = -1
		}
	}
	if d.prevComm == nil {
		init = nil
	}
	lr, err := louvain.RunPrepared(prep, louvain.Options{
		Delta:     d.opt.Delta,
		MaxLevels: d.opt.MaxLevels,
		Seed:      d.opt.Seed,
		Init:      init,
	})
	if err != nil {
		d.err = fmt.Errorf("community: louvain at day %d: %w", day, err)
		return
	}
	d.prevComm = lr.Community
	snap := d.tracker.Advance(day, g, tracking.Assignment(lr.Community))
	d.res.Final = snap

	stat := SnapshotStat{
		Day:            day,
		Nodes:          n,
		Edges:          g.NumEdges(),
		Modularity:     lr.Modularity,
		AvgSimilarity:  snap.AvgSimilarity,
		NumCommunities: len(snap.Communities),
	}
	// Top-5 coverage and size distribution.
	sizes := make([]int, 0, len(snap.Communities))
	for _, nodes := range snap.Communities {
		sizes = append(sizes, len(nodes))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	top5 := 0
	for i, sz := range sizes {
		if i >= 5 {
			break
		}
		top5 += sz
		if stat.Nodes > 0 {
			stat.TopCoverage[i] = float64(sz) / float64(stat.Nodes)
		}
	}
	if stat.Nodes > 0 {
		stat.Top5Coverage = float64(top5) / float64(stat.Nodes)
	}
	for _, want := range d.wantDist[day] {
		d.res.SizeDists[want] = sizes
	}
	d.res.Stats = append(d.res.Stats, stat)
	d.res.LastDay = day
}

// Finish seals the detector: it reports any Louvain error, ErrNoSnapshots
// for traces that never reached snapshot size, and otherwise attaches the
// tracker's event log and histories to the result.
func (d *Detector) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.res.Stats) == 0 {
		return ErrNoSnapshots
	}
	d.res.Events = d.tracker.Events()
	d.res.Histories = d.tracker.Histories()
	// Only the final snapshot's node -> community lookup is ever read
	// (CommunityOfNode, the users stage), so it is built once, here.
	if d.res.Final != nil {
		d.res.Final.IndexNodes()
	}
	d.done = true
	return nil
}

// Result returns the detector's output after a successful Finish; nil
// before.
func (d *Detector) Result() *Result {
	if !d.done {
		return nil
	}
	return d.res
}
