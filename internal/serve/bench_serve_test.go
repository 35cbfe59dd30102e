package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// benchGet is the allocation-light request path the latency benchmarks
// measure: handler dispatch, cache, encoding — no sockets.
func benchGet(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

// reportLatencies reports p50/p99 request latency and throughput over the
// timed loop. BENCH_serve.json tracks the datapoints.
func reportLatencies(b *testing.B, lats []time.Duration) {
	b.Helper()
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p := func(q float64) time.Duration {
		i := int(float64(len(lats)-1) * q)
		return lats[i]
	}
	b.ReportMetric(float64(p(0.50).Nanoseconds())/1e3, "p50-µs")
	b.ReportMetric(float64(p(0.99).Nanoseconds())/1e3, "p99-µs")
	b.ReportMetric(float64(len(lats))/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServe measures the daemon's request path (DESIGN.md §8):
//
//   - WarmHit: repeat fetch of an already-encoded panel — one cache
//     lookup, the steady state a dashboard sees.
//   - ColdCache: fetch against an empty cache with a warm snapshot — a
//     sealed-table read plus one TSV encoding, the first fetch after a
//     refresh publishes a new generation.
//   - ConcurrentReaderDuringRefresh: reader latency while ingest passes
//     rebuild and republish the state in the background — the isolation
//     claim under load.
//   - CLIEquivalentFig1a: what the same panel costs as a one-shot
//     `figures -only fig1a` style run (full plan execution per query) —
//     the baseline the warm path's ≥10x speedup criterion divides by.
//
// All arms run at the test-scale preset; -benchtime=1x in the CI smoke.
func BenchmarkServe(b *testing.B) {
	srv := newTestServer(b, fxBase, "")
	h := srv.Handler()
	ids := srv.Snapshot().Res.Figures()

	b.Run("WarmHit", func(b *testing.B) {
		for _, id := range ids { // prime every panel
			if rec := benchGet(h, "/figures/"+id); rec.Code != http.StatusOK {
				b.Fatalf("%s: %d", id, rec.Code)
			}
		}
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			rec := benchGet(h, "/figures/"+ids[i%len(ids)])
			lats = append(lats, time.Since(t0))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
		b.StopTimer()
		reportLatencies(b, lats)
	})

	b.Run("ColdCache", func(b *testing.B) {
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv.cache = NewCache(64 << 20) // every fetch is a first fetch
			b.StartTimer()
			t0 := time.Now()
			rec := benchGet(h, "/figures/"+ids[i%len(ids)])
			lats = append(lats, time.Since(t0))
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
				b.Fatalf("status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
			}
		}
		reportLatencies(b, lats)
	})

	b.Run("ConcurrentReaderDuringRefresh", func(b *testing.B) {
		dir := b.TempDir()
		tracePath := filepath.Join(dir, "live.trace")
		copyFile(b, fxBase, tracePath)
		rsrv := newTestServer(b, tracePath, filepath.Join(dir, "ckpt"))
		rh := rsrv.Handler()

		// A background writer keeps the state plane churning: alternate
		// the trace file between the two horizons and republish, so the
		// timed readers always race a real ingest pass.
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			for flip := 0; !stop.Load(); flip++ {
				src := fxExt
				if flip%2 == 1 {
					src = fxBase
				}
				replaceFile(b, src, tracePath)
				if _, _, err := rsrv.Refresh(context.Background()); err != nil {
					b.Errorf("refresh: %v", err)
					return
				}
			}
		}()

		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			rec := benchGet(rh, "/figures/"+ids[i%len(ids)])
			lats = append(lats, time.Since(t0))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
		b.StopTimer()
		stop.Store(true)
		<-done
		reportLatencies(b, lats)
	})

	b.Run("CLIEquivalentFig1a", func(b *testing.B) {
		cfg := serveTestConfig()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, err := trace.OpenTrace(fxBase)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.RunFigures(nil, src, cfg, "fig1a")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Figure("fig1a"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e3, "per-query-µs")
		if b.N > 0 {
			b.Logf("one-shot query: %s per fig1a (the warm path amortizes this across every fetch)", b.Elapsed()/time.Duration(b.N))
		}
	})
}
