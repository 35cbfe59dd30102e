package ingest

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/trace"
)

// BenchmarkIngest measures the live plane's per-appended-day cost: each
// iteration plays the role of the writer for exactly one day (write the
// next day's events, Flush — which seals the previous day), then the
// follower's (probe the tail, AdvanceTo, republish). Reported metrics:
//
//	apply-ns/day    AdvanceTo latency (checkpoint resume + replay + publish)
//	probe-ns/day    tail probe latency (appended-bytes decode)
//	visible-ns/day  flush-to-served latency (probe + apply together)
//	events/sec      sustained apply throughput over the appended events
func BenchmarkIngest(b *testing.B) {
	const base = 70
	dir := b.TempDir()
	live := filepath.Join(dir, "live.trace")
	if _, err := gen.GenerateToFile(liveGenConfig(base), live); err != nil {
		b.Fatal(err)
	}

	// Pre-generate the writer's future: every day the iterations will
	// append, decoded into per-day batches.
	horizon := int32(base + 1 + b.N)
	full := filepath.Join(dir, "full.trace")
	if _, err := gen.GenerateToFile(liveGenConfig(horizon), full); err != nil {
		b.Fatal(err)
	}
	byDay := make(map[int32][]trace.Event)
	fsrc, err := trace.OpenTrace(full)
	if err != nil {
		b.Fatal(err)
	}
	cur, err := trace.OpenSourceAt(fsrc, base)
	if err != nil {
		b.Fatal(err)
	}
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		byDay[ev.Day] = append(byDay[ev.Day], ev)
	}
	cur.Close()

	tailer := NewTailer(Options{Path: live, Log: quietLog()})
	srv, err := serve.NewServer(context.Background(), serve.Options{
		TracePath:     live,
		CheckpointDir: filepath.Join(dir, "ckpt"),
		Config:        liveCoreConfig(),
		Log:           quietLog(),
		Open:          tailer.OpenSealed,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	f, err := os.OpenFile(live, os.O_RDWR, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	enc, err := trace.OpenAppend(f)
	if err != nil {
		b.Fatal(err)
	}
	writeDay := func(day int32) {
		b.Helper()
		for _, ev := range byDay[day] {
			if err := enc.Write(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	// Prime: day base's events seal day base-1, which the warm load
	// already published — iteration i then seals exactly day base+i.
	writeDay(base)

	var probeNs, applyNs int64
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeDay(base + 1 + int32(i))
		t0 := time.Now()
		snap, err := tailer.Probe()
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		advanced, day, err := srv.AdvanceTo(context.Background(), snap.Source())
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if !advanced || day != base+int32(i) {
			b.Fatalf("iteration %d: advanced=%v day=%d, want day %d", i, advanced, day, base+int32(i))
		}
		probeNs += t1.Sub(t0).Nanoseconds()
		applyNs += t2.Sub(t1).Nanoseconds()
		events += int64(len(byDay[base+int32(i)]))
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(probeNs)/n, "probe-ns/day")
	b.ReportMetric(float64(applyNs)/n, "apply-ns/day")
	b.ReportMetric(float64(probeNs+applyNs)/n, "visible-ns/day")
	if applyNs > 0 {
		b.ReportMetric(float64(events)/(float64(applyNs)/1e9), "events/sec")
	}
}
