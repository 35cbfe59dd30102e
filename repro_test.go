package repro

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

// facadeResult runs a cheap pipeline through the public facade.
func facadeResult(t *testing.T) *Result {
	t.Helper()
	cfg := SmallGenConfig()
	cfg.Days = 150
	cfg.Merge = nil
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(tr.Events); err != nil {
		t.Fatal(err)
	}
	p := DefaultPipeline()
	p.SkipCommunity = true
	p.SkipMerge = true
	p.Alpha.Interval = 1000
	p.Alpha.MinEdges = 2000
	p.Alpha.PolyDegree = 2
	res, err := Run(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeRoundTrip(t *testing.T) {
	res := facadeResult(t)
	tab, err := res.Figure("fig1c")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty figure")
	}
}

func TestFacadeFigureTSV(t *testing.T) {
	res := facadeResult(t)
	tab, err := res.Figure("fig2c")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# fig2c:") {
		t.Fatalf("missing header: %q", out[:50])
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var header string
	dataLines := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if header == "" {
			header = l
			continue
		}
		dataLines++
		if len(strings.Split(l, "\t")) != len(tab.Columns) {
			t.Fatalf("bad row: %q", l)
		}
	}
	if header != strings.Join(tab.Columns, "\t") {
		t.Fatalf("header = %q", header)
	}
	if dataLines != len(tab.Rows) {
		t.Fatalf("rows = %d, want %d", dataLines, len(tab.Rows))
	}
}

func TestAllFiguresListed(t *testing.T) {
	if len(AllFigures) != 30 {
		t.Fatalf("AllFigures = %d panels, want 30", len(AllFigures))
	}
	seen := map[string]bool{}
	for _, id := range AllFigures {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "fig") {
			t.Fatalf("bad id %q", id)
		}
	}
}

func TestDefaultConfigsDistinct(t *testing.T) {
	d, s := DefaultGenConfig(), SmallGenConfig()
	if d.Days == s.Days {
		t.Fatal("presets should differ in horizon")
	}
	if d.Merge == nil || s.Merge == nil {
		t.Fatal("both presets include the merge scenario")
	}
	// Mutating one preset must not affect the other (no shared pointers
	// besides Merge, which must be a fresh struct each call).
	a, b := DefaultGenConfig(), DefaultGenConfig()
	a.Merge.Day = 5
	if b.Merge.Day == 5 {
		t.Fatal("DefaultGenConfig shares Merge pointer across calls")
	}
}

// TestRunFiguresFacade drives the demand-driven flow end to end through
// the facade: plan one panel, run it, and read it back; other panels'
// stages never ran.
func TestRunFiguresFacade(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Days = 150
	cfg.Merge = nil
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFigures(context.Background(), tr.Source(), DefaultPipeline(), "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := res.Figure("fig1a")
	if err != nil || len(tab.Rows) == 0 {
		t.Fatalf("fig1a: %v", err)
	}
	if _, err := res.Figure("fig2a"); !errors.Is(err, ErrStageSkipped) {
		t.Fatalf("fig2a err = %v, want ErrStageSkipped", err)
	}
	if _, err := RunFigures(context.Background(), tr.Source(), DefaultPipeline(), "figXX"); !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("err = %v, want ErrUnknownFigure", err)
	}
}

// TestValidateSourceFacade validates a trace streamed off disk through the
// facade, without materializing the event slice.
func TestValidateSourceFacade(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Days = 60
	cfg.Merge = nil
	path := filepath.Join(t.TempDir(), "v.trace")
	if _, err := GenerateToFile(cfg, path); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSource(src); err != nil {
		t.Fatal(err)
	}
	// The compressed RRS1 container opens through the same facade call
	// and validates to the same trace.
	segPath := filepath.Join(t.TempDir(), "v.rrs")
	if _, err := gen.GenerateToSegFile(cfg, segPath); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenTraceFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Meta() != src.Meta() {
		t.Fatalf("RRS1 meta %+v, flat %+v", seg.Meta(), src.Meta())
	}
	if err := ValidateSource(seg); err != nil {
		t.Fatal(err)
	}
	// A truncated payload must surface through the streaming validator
	// (the header still parses, so the damage only shows mid-pass). The
	// cut lands inside the event stream, past the day-index footer whose
	// length the fixed trailer records — clipping only the footer would
	// merely drop the index.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := len(raw) - 12 - int(binary.LittleEndian.Uint64(raw[len(raw)-12:len(raw)-4]))
	if err := os.WriteFile(path, raw[:footer-4], 0o644); err != nil {
		t.Fatal(err)
	}
	src, err = OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSource(src); err == nil {
		t.Fatal("truncated trace validated clean")
	}
}

// TestRegistryFacade asserts the figure -> stage mapping is reachable
// through the facade for tooling.
func TestRegistryFacade(t *testing.T) {
	if len(Registry()) == 0 {
		t.Fatal("empty registry")
	}
	stage, err := StageFor("fig3c")
	if err != nil || stage != "alpha" {
		t.Fatalf("StageFor(fig3c) = %q, %v", stage, err)
	}
}

func TestGenerateAndRunFacade(t *testing.T) {
	cfg := gen.SmallConfig()
	cfg.Days = 120
	cfg.Merge = nil
	p := DefaultPipeline()
	p.SkipCommunity = true
	p.SkipMerge = true
	p.SkipMetrics = true
	p.Alpha.Interval = 1000
	p.Alpha.MinEdges = 2000
	p.Alpha.PolyDegree = 2
	tr, res, err := GenerateAndRun(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || res == nil || res.Alpha == nil {
		t.Fatal("incomplete")
	}
}
