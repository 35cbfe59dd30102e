package core

import (
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// eqFloat is equality with NaN == NaN, for comparing figure cells (e.g.
// unmeasurable distance points) across the two pipeline implementations.
func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func compareTables(t *testing.T, id string, eng, bat *Table) {
	t.Helper()
	if eng.Title != bat.Title {
		t.Errorf("%s: title %q vs %q", id, eng.Title, bat.Title)
	}
	if len(eng.Columns) != len(bat.Columns) {
		t.Errorf("%s: columns %v vs %v", id, eng.Columns, bat.Columns)
		return
	}
	for i := range eng.Columns {
		if eng.Columns[i] != bat.Columns[i] {
			t.Errorf("%s: column %d %q vs %q", id, i, eng.Columns[i], bat.Columns[i])
		}
	}
	if len(eng.Rows) != len(bat.Rows) {
		t.Errorf("%s: %d rows vs %d rows", id, len(eng.Rows), len(bat.Rows))
		return
	}
	for ri := range eng.Rows {
		if len(eng.Rows[ri]) != len(bat.Rows[ri]) {
			t.Errorf("%s row %d: width mismatch", id, ri)
			return
		}
		for ci := range eng.Rows[ri] {
			if !eqFloat(eng.Rows[ri][ci], bat.Rows[ri][ci]) {
				t.Errorf("%s row %d col %d: %v vs %v", id, ri, ci, eng.Rows[ri][ci], bat.Rows[ri][ci])
				return
			}
		}
	}
	if len(eng.Notes) != len(bat.Notes) {
		t.Errorf("%s: notes %v vs %v", id, eng.Notes, bat.Notes)
		return
	}
	for k, v := range eng.Notes {
		bv, ok := bat.Notes[k]
		if !ok || !eqFloat(v, bv) {
			t.Errorf("%s: note %q %v vs %v", id, k, v, bv)
		}
	}
}

// TestEngineMatchesBatch is the tentpole's equivalence guarantee: the
// single-pass streaming engine (Run) and the multi-pass batch reference
// (RunBatch) must produce identical figure tables on the same seeded trace,
// and the engine must make exactly ONE replay pass for everything — the
// δ-sweep included, since its per-δ detectors now run off frozen snapshots
// of the shared pass's graph instead of replaying per δ.
func TestEngineMatchesBatch(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Alpha.Interval = 2000
	cfg.Alpha.MinEdges = 4000
	cfg.Alpha.PolyDegree = 3
	cfg.Community.SizeDistDays = []int32{200, 251, 296}
	cfg.DeltaSweep = []float64{0.01, 0.1}
	cfg.PathEvery = 30
	cfg.PathSources = 30

	prev := trace.OnReplayPass
	var passes atomic.Int64
	trace.OnReplayPass = func() { passes.Add(1) }
	engRes, err := Run(tr, cfg)
	trace.OnReplayPass = prev
	if err != nil {
		t.Fatal(err)
	}
	if got, want := passes.Load(), int64(1); got != want {
		t.Errorf("replay passes = %d, want %d (one shared pass, δ-sweep included)", got, want)
	}

	batRes, err := RunBatch(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if engRes.Meta != batRes.Meta {
		t.Errorf("meta: %+v vs %+v", engRes.Meta, batRes.Meta)
	}
	if engRes.MergeOverall != batRes.MergeOverall {
		t.Errorf("merge overall: %+v vs %+v", engRes.MergeOverall, batRes.MergeOverall)
	}
	if len(engRes.DeltaSweep) != len(batRes.DeltaSweep) {
		t.Fatalf("delta sweep: %d vs %d runs", len(engRes.DeltaSweep), len(batRes.DeltaSweep))
	}
	for i := range engRes.DeltaSweep {
		if engRes.DeltaSweep[i].Delta != batRes.DeltaSweep[i].Delta {
			t.Errorf("sweep %d: δ order %v vs %v (parallel fan-out must keep order)",
				i, engRes.DeltaSweep[i].Delta, batRes.DeltaSweep[i].Delta)
		}
	}

	compareAllFigures(t, "batch", engRes, batRes)

	// Disk-backed variant: stream the trace to a file through the
	// incremental Encoder and re-run the engine path from a FileSource.
	// The figure tables must be bit-identical to the in-memory slice
	// path — the data plane must be invisible to the analyses.
	path := filepath.Join(t.TempDir(), "eq.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)
	enc.SetMergeDay(tr.Meta.MergeDay)
	for _, ev := range tr.Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Meta() != tr.Meta {
		t.Fatalf("file meta %+v != trace meta %+v", fs.Meta(), tr.Meta)
	}
	fileRes, err := RunSource(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fileRes.Meta != engRes.Meta {
		t.Errorf("file meta: %+v vs %+v", fileRes.Meta, engRes.Meta)
	}
	if fileRes.MergeOverall != engRes.MergeOverall {
		t.Errorf("file merge overall: %+v vs %+v", fileRes.MergeOverall, engRes.MergeOverall)
	}
	compareAllFigures(t, "filesource", engRes, fileRes)
}

// compareAllFigures asserts bit-identical figure tables (and identical
// figure availability) between the engine result and another pipeline run.
func compareAllFigures(t *testing.T, label string, engRes, other *Result) {
	t.Helper()
	for _, id := range AllFigures {
		engTab, engErr := engRes.Figure(id)
		otherTab, otherErr := other.Figure(id)
		if (engErr == nil) != (otherErr == nil) {
			t.Errorf("figure %s: engine err %v vs %s err %v", id, engErr, label, otherErr)
			continue
		}
		if engErr != nil {
			continue
		}
		compareTables(t, label+":"+id, engTab, otherTab)
	}
}

// TestRunSinglePass asserts the headline property on a sweep-free
// configuration: every subscribed stage shares one replay pass.
func TestRunSinglePass(t *testing.T) {
	cfg := gen.SmallConfig()
	cfg.Days = 150
	cfg.Merge = nil
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultConfig()
	pcfg.SkipCommunity = true // the Louvain schedule dominates runtime
	pcfg.SkipMerge = true     // the 150-day horizon has no merge window
	pcfg.Alpha.Interval = 1000
	pcfg.Alpha.MinEdges = 2000
	pcfg.Alpha.PolyDegree = 2
	pcfg.PathEvery = 30
	pcfg.PathSources = 20

	prev := trace.OnReplayPass
	var passes atomic.Int64
	trace.OnReplayPass = func() { passes.Add(1) }
	res, err := Run(tr, pcfg)
	trace.OnReplayPass = prev
	if err != nil {
		t.Fatal(err)
	}
	if got := passes.Load(); got != 1 {
		t.Fatalf("replay passes = %d, want exactly 1", got)
	}
	if len(res.Growth) == 0 || res.Evolution == nil || res.Alpha == nil {
		t.Fatal("stages incomplete after the single pass")
	}
}
