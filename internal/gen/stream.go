package gen

import (
	"fmt"
	"os"

	"repro/internal/stats"
	"repro/internal/trace"
)

// GenerateStream runs the simulation for cfg, invoking emit for every
// event in trace order, without ever materializing the event slice: the
// generator's memory is its simulation state, not the event count. It is
// the emit-mode core that Generate (slice), GenerateToFile (disk), and
// direct-replay consumers (a trace.Sink, a trace.Encoder) all share.
//
// The returned Meta carries the same counters Generate reports, including
// Seed and MergeDay. A non-nil error from emit aborts the run at the next
// day boundary and is returned verbatim. A nil emit discards the stream
// (useful for warming or costing a configuration).
func GenerateStream(cfg Config, emit func(trace.Event) error) (trace.Meta, error) {
	meta := trace.Meta{MergeDay: -1}
	if err := validateConfig(cfg); err != nil {
		return meta, err
	}
	rng := stats.NewRand(cfg.Seed)
	s := newSim(cfg, rng)
	s.emit = func(ev trace.Event) error {
		meta.Accumulate(ev)
		if emit == nil {
			return nil
		}
		return emit(ev)
	}

	var fiveQ *sim
	if cfg.Merge != nil {
		// Grow the 5Q network standalone over [0, Day-FiveQStart) days of
		// its own clock, with its own RNG stream. Its event stream is
		// discarded — only the final state is imported on the merge day —
		// so the sub-simulation keeps no emit sink at all.
		fq := fiveQConfig(cfg)
		fiveQ = newSim(fq, stats.NewRand(cfg.Seed+7919))
		if err := fiveQ.run(nil); err != nil {
			return meta, fmt.Errorf("gen: 5q sub-simulation: %w", err)
		}
	}
	if err := s.run(fiveQ); err != nil {
		return meta, err
	}
	meta.Seed = cfg.Seed
	if cfg.Merge != nil {
		meta.MergeDay = cfg.Merge.Day
	}
	return meta, nil
}

// GenerateToFile streams a generated trace straight into the binary trace
// format at path — the out-of-core companion to Generate: neither the
// event slice nor the encoded bytes are ever resident, so a million-node
// trace costs generator-state memory and one disk file. The written file
// replays through trace.OpenTrace. On error the partial file is
// removed.
func GenerateToFile(cfg Config, path string) (trace.Meta, error) {
	f, err := os.Create(path)
	if err != nil {
		return trace.Meta{}, err
	}
	meta, err := generateToEncoder(cfg, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return trace.Meta{}, err
	}
	return meta, nil
}

// GenerateToSegFile is GenerateToFile writing the compressed segmented
// container instead of the flat format: frames of flate-compressed
// day-runs with an embedded day index (trace.SegEncoder). The written
// file replays through trace.OpenTrace and is typically well under half
// the flat encoding's size. Segmented files are immutable once
// finalized — they cannot be extended with AppendToFile — so this is the
// archival/serving form, not the append-workflow form. On error the
// partial file is removed.
func GenerateToSegFile(cfg Config, path string) (trace.Meta, error) {
	f, err := os.Create(path)
	if err != nil {
		return trace.Meta{}, err
	}
	meta, err := generateToSegEncoder(cfg, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return trace.Meta{}, err
	}
	return meta, nil
}

func generateToSegEncoder(cfg Config, f *os.File) (trace.Meta, error) {
	enc, err := trace.NewSegEncoder(f)
	if err != nil {
		return trace.Meta{}, err
	}
	enc.SetSeed(cfg.Seed)
	if cfg.Merge != nil {
		enc.SetMergeDay(cfg.Merge.Day)
	}
	meta, err := GenerateStream(cfg, enc.Write)
	if err != nil {
		return trace.Meta{}, err
	}
	if err := enc.Close(); err != nil {
		return trace.Meta{}, err
	}
	return meta, nil
}

func generateToEncoder(cfg Config, f *os.File) (trace.Meta, error) {
	enc, err := trace.NewEncoder(f)
	if err != nil {
		return trace.Meta{}, err
	}
	enc.SetSeed(cfg.Seed)
	if cfg.Merge != nil {
		enc.SetMergeDay(cfg.Merge.Day)
	}
	meta, err := GenerateStream(cfg, enc.Write)
	if err != nil {
		return trace.Meta{}, err
	}
	if err := enc.Close(); err != nil {
		return trace.Meta{}, err
	}
	return meta, nil
}
