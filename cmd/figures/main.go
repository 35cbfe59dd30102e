// Command figures regenerates the paper's figure data end to end: it
// generates a synthetic trace (or streams one off disk), runs the
// multi-scale pipeline, and prints the requested panel(s) as TSV.
//
// Usage:
//
//	figures -only fig3c                 # one panel, minimal stage plan
//	figures -only fig3c,fig5a           # two panels, union of their stages
//	figures -fig all -preset default    # every panel at the default scale
//	figures -only fig4a -deltas 0.01,0.04,0.16 # the δ sweep panels
//	figures -list                       # figure id -> producing stage
//	figures -preset large -encode renren.trace   # stream-generate to disk
//	figures -trace renren.trace -only fig8c      # replay off disk, O(state) memory
//	figures -only fig1a -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	fig := flag.String("fig", "all", "figure id (e.g. fig3c) or \"all\"")
	only := flag.String("only", "", "comma-separated figure ids; plans and runs exactly the stages they need (overrides -fig)")
	list := flag.Bool("list", false, "print every figure id with the stage that produces it, and exit")
	preset := flag.String("preset", "small", "generator preset when no trace file is given: small, default, or large")
	tracePath := flag.String("trace", "", "optional trace file, replayed off disk (overrides -preset)")
	seed := flag.Int64("seed", 1, "generator seed")
	deltas := flag.String("deltas", "", "comma-separated Louvain δ values for the fig4 sweep, e.g. 0.01,0.04,0.16 (default: the paper grid)")
	sweep := flag.String("sweep", "", "deprecated alias for -deltas (mutually exclusive with it)")
	progress := flag.Bool("progress", false, "write a day/event progress line to stderr while the shared pass replays")
	checkpointDir := flag.String("checkpoint-dir", "", "write pipeline checkpoints into this directory at the -checkpoint-every cadence")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in days (0 = default 90; needs -checkpoint-dir)")
	resume := flag.Bool("resume", false, "resume from the latest compatible checkpoint in -checkpoint-dir instead of replaying from day 0")
	snapshotEvery := flag.Int("snapshot-every", 0, "community snapshot cadence override")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the parallel shared pass and all fan-out work (results are bit-identical at any count)")
	format := flag.String("format", "tsv", "output format for figure tables: tsv or json")
	encode := flag.String("encode", "", "stream the generated trace to this file and exit (no analysis)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the pipeline run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the pipeline run to this file")
	flag.Parse()

	outFormat, err := core.ParseFormat(*format)
	if err != nil {
		log.Fatal(err)
	}

	if *list {
		// The id -> stage mapping comes from the planner registry, so a
		// newly registered stage shows up here without touching this tool.
		for _, id := range core.AllFigures {
			stage, err := core.StageFor(id)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s\t%s\n", id, stage)
		}
		return
	}

	genConfig := func() gen.Config {
		var cfg gen.Config
		switch *preset {
		case "small":
			cfg = gen.SmallConfig()
		case "default":
			cfg = gen.DefaultConfig()
		case "large":
			cfg = gen.LargeConfig()
		default:
			log.Fatalf("unknown preset %q (want small, default, or large)", *preset)
		}
		cfg.Seed = *seed
		return cfg
	}

	// Encode mode: generate → stream to disk, never materializing the
	// event slice; analysis happens later from the file.
	if *encode != "" {
		if *tracePath != "" {
			log.Fatal("-encode generates a trace; it cannot be combined with -trace")
		}
		meta, err := gen.GenerateToFile(genConfig(), *encode)
		if err != nil {
			log.Fatalf("encode: %v", err)
		}
		fmt.Printf("wrote %s: %d days, %d nodes (%d xiaonei / %d 5q / %d new), %d edges, merge day %d\n",
			*encode, meta.Days, meta.Nodes, meta.Xiaonei, meta.FiveQ, meta.NewUsers, meta.Edges, meta.MergeDay)
		return
	}

	var src trace.MetaSource
	if *tracePath != "" {
		tf, err := trace.OpenTrace(*tracePath)
		if err != nil {
			log.Fatalf("open trace: %v", err)
		}
		src = tf
	} else {
		tr, err := gen.Generate(genConfig())
		if err != nil {
			log.Fatalf("generate: %v", err)
		}
		src = tr.Source()
	}
	meta := src.Meta()
	log.Printf("trace: %d nodes, %d edges, %d days, merge day %d",
		meta.Nodes, meta.Edges, meta.Days, meta.MergeDay)

	// Resolve the requested panels into a minimal dependency-closed stage
	// plan: asking for one figure runs exactly the stages it needs.
	sel := *fig
	if *only != "" {
		sel = *only
	}
	var ids []string
	if sel == "all" {
		ids = core.AllFigures
	} else {
		for _, id := range strings.Split(sel, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	cfg := core.DefaultConfig()
	if *workers < 1 {
		log.Fatalf("-workers must be >= 1, got %d", *workers)
	}
	cfg.Workers = *workers
	if *snapshotEvery > 0 {
		cfg.Community.SnapshotEvery = int32(*snapshotEvery)
	}
	// δ values must be in place before planning — a fig4 request with an
	// empty sweep is rejected at plan time. Setting the default grid is
	// free when the sweep stage doesn't make the plan.
	if *deltas != "" && *sweep != "" {
		log.Fatal("-deltas and the deprecated -sweep are mutually exclusive; pass only -deltas")
	}
	deltaSpec := *deltas
	if deltaSpec == "" {
		deltaSpec = *sweep // deprecated alias
	}
	if deltaSpec != "" {
		vs, err := core.ParseDeltaSweep(deltaSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.DeltaSweep = vs
	} else {
		cfg.DeltaSweep = []float64{0.0001, 0.01, 0.04, 0.1, 0.3}
	}
	if *progress {
		cfg.OnProgress = func(day int32, events int64) {
			fmt.Fprintf(os.Stderr, "\rday %d/%d, %d events", day, meta.Days, events)
		}
	}
	// The checkpointed state plane: -checkpoint-dir writes day-addressed
	// snapshots at the cadence; -resume restores the latest compatible
	// one and replays only the days after it (incompatible or absent
	// checkpoints fall back to day 0).
	if *resume && *checkpointDir == "" {
		log.Fatal("-resume needs -checkpoint-dir")
	}
	cfg.CheckpointDir = *checkpointDir
	cfg.CheckpointEvery = int32(*checkpointEvery)
	cfg.Resume = *resume
	plan, err := core.Plan(cfg, ids...)
	if err != nil {
		log.Fatalf("plan: %v", err)
	}
	log.Printf("plan: stages %s for %d figure(s)", strings.Join(plan.Stages(), ", "), len(plan.Figures()))
	if plan.Has("community") || plan.Has("sweep") {
		d := meta.Days
		grid := func(x int32) int32 {
			if x < cfg.Community.StartDay {
				return cfg.Community.StartDay
			}
			return x - (x-cfg.Community.StartDay)%cfg.Community.SnapshotEvery
		}
		cfg.Community.SizeDistDays = []int32{grid(d / 2), grid(d * 3 / 4), grid(d - 1)}
	}

	// Interrupting the run (SIGINT) cancels every in-flight replay pass at
	// its next day boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Profiling brackets the pipeline run explicitly rather than via
	// defers: log.Fatalf exits without running defers, which would leave
	// a truncated CPU profile on exactly the failing runs one wants to
	// inspect.
	var cpuOut *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		cpuOut = f
	}

	res, err := core.RunPlan(ctx, src, cfg, plan)
	if *progress {
		fmt.Fprintln(os.Stderr) // finish the \r progress line
	}
	if cpuOut != nil {
		pprof.StopCPUProfile()
		if cerr := cpuOut.Close(); cerr != nil {
			log.Printf("cpuprofile: %v", cerr)
		}
	}
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	if res.ResumedFromDay >= 0 {
		if res.ResumedFromDay >= meta.Days-1 {
			log.Printf("resumed from checkpoint day %d (nothing newer to replay)", res.ResumedFromDay)
		} else {
			log.Printf("resumed from checkpoint day %d (replayed days %d..%d)", res.ResumedFromDay, res.ResumedFromDay+1, meta.Days-1)
		}
	} else if *resume {
		log.Printf("no compatible checkpoint in %s; replayed from day 0 (checkpoints bind the exact config and stage plan)", *checkpointDir)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		f.Close()
	}

	for _, id := range plan.Figures() {
		tab, err := res.Figure(id)
		if err != nil {
			log.Printf("%s: %v", id, err)
			continue
		}
		if err := tab.Write(os.Stdout, outFormat); err != nil {
			log.Fatalf("write: %v", err)
		}
		fmt.Println()
	}
}
