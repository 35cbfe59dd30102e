// Package serve is the warm-state figure-serving plane: a long-lived
// daemon (cmd/rrserved) that keeps one trace's fully-analyzed state
// resident and answers figure-panel requests in O(cache lookup) instead
// of O(replay).
//
// Three layers do the work (DESIGN.md §8):
//
//   - A published snapshot: at startup the server resumes the trace's
//     newest compatible checkpoint (the PR 5 state plane), runs the full
//     plan over the remaining days, seals the Result — after which every
//     Figure lookup is a read of pre-emitted tables — and publishes it
//     through an atomic pointer. Readers never lock; a refresh pass
//     builds an entirely new Result from the grown trace and swaps the
//     pointer, leaving the old snapshot valid for requests in flight
//     (copy-on-advance).
//
//   - A result cache: encoded panels keyed by (config fingerprint, last
//     trace day, figure id, δ-set, format), byte-capped with LRU
//     eviction. The day in the key makes a refresh invalidate every
//     older entry by construction; DropOtherDays reclaims their bytes.
//
//   - Single-flight coalescing: N concurrent requests for the same
//     uncached panel — in particular a custom-δ fig4 request, which
//     costs a real plan execution — trigger exactly one computation.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Options configures a Server.
type Options struct {
	// TracePath is the trace file to serve figures of (required). The
	// file is re-opened on every refresh, so a writer appending days —
	// or atomically replacing the file with a longer encoding — is
	// picked up without restarting the daemon.
	TracePath string
	// CheckpointDir, when set, arms the checkpointed state plane: the
	// warm pass resumes from the newest compatible checkpoint and writes
	// new ones as it advances, so a daemon restart (and every refresh)
	// replays only the days past the last checkpoint.
	CheckpointDir string
	// CheckpointFullEvery sets the tiered cadence of the warm pass's
	// checkpoints: of every N, 1 is a full container and N-1 are deltas
	// against their predecessor (<=1 = every checkpoint is full).
	CheckpointFullEvery int
	// CheckpointKeep bounds the checkpoint directory: after each write
	// the warm pass retains only the newest N full checkpoints (plus the
	// delta chains riding on them) under its fingerprint (<=0 = keep
	// everything).
	CheckpointKeep int
	// Config is the pipeline configuration of the warm plan. Its
	// DeltaSweep is the warm δ grid: requests without a delta parameter
	// (or with exactly this grid) are served from the snapshot; any
	// other δ-set routes through a cold plan execution. CheckpointDir,
	// CheckpointEvery and Resume on it are overridden by the fields
	// above.
	Config core.Config
	// CacheBytes caps the result cache (default 64 MiB).
	CacheBytes int64
	// Log receives request and lifecycle records (default slog.Default).
	Log *slog.Logger
	// Open, when set, replaces the default trace probe: it returns the
	// MetaSource the warm pass and every refresh read. The ingest plane
	// points it at the tail prober's sealed prefix, so a refresh can
	// never decode a torn tail or a half-written day. Defaults to opening
	// TracePath as a finalized trace file.
	Open func() (trace.MetaSource, error)
}

// ErrClosed is returned by Refresh and AdvanceTo once Close has begun:
// the server no longer advances, though the published snapshot keeps
// serving reads until the process exits.
var ErrClosed = errors.New("serve: server is closed")

// Snapshot is one published generation of warm state: an immutable,
// sealed Result plus the identity its cache keys derive from. Fields are
// never mutated after publish — a refresh builds a new Snapshot.
type Snapshot struct {
	Res  *core.Result
	Meta trace.Meta
	// Src is the data plane this snapshot was computed from. Cold plan
	// executions (custom-δ requests) replay it, so they see exactly the
	// days the snapshot describes — never a torn tail the file may have
	// grown in the meantime.
	Src         trace.MetaSource
	Day         int32 // last trace day (Meta.Days - 1)
	Fingerprint uint64
	Deltas      []float64
	DeltaTag    string
	LoadedAt    time.Time
	ResumedFrom int32 // checkpoint day the warm pass resumed from, -1 if from zero
	// Carried counts the figures whose tables were bit-identical to the
	// previous snapshot's at publish time — their cached encodings were
	// re-keyed to this generation instead of recomputed.
	Carried int
}

// Server is the figure-serving daemon's engine room; Handler exposes it
// over HTTP.
type Server struct {
	opt   Options
	log   *slog.Logger
	cache *Cache

	snap atomic.Pointer[Snapshot]

	// baseCtx scopes computations whose lifetime belongs to the server,
	// not to one request: a cold plan execution that 99 coalesced
	// waiters ride must not die because the leader's client hung up.
	baseCtx context.Context
	cancel  context.CancelFunc

	refreshMu  sync.Mutex
	refreshing *refreshFlight

	// applyMu serializes snapshot advances (Refresh and the ingest
	// plane's AdvanceTo); Close acquires it to drain an in-flight apply
	// before cancelling baseCtx.
	applyMu sync.Mutex
	closed  atomic.Bool

	// open probes the trace: Options.Open, or the TracePath default.
	open func() (trace.MetaSource, error)

	statzMu    sync.Mutex
	statzExtra map[string]func() any

	// lastCkpt is the newest checkpoint write the warm pass reported,
	// surfaced in the /statz storage section.
	ckptMu   sync.Mutex
	lastCkpt *core.CheckpointStat

	start     time.Time
	requests  atomic.Int64
	refreshes atomic.Int64

	// runFigures executes a plan; tests swap it to count executions.
	runFigures func(ctx context.Context, src trace.MetaSource, cfg core.Config, figures ...string) (*core.Result, error)
}

// NewServer loads the trace's warm state — resuming the newest compatible
// checkpoint when Options.CheckpointDir is set — seals it, and returns a
// server ready to handle requests.
func NewServer(ctx context.Context, opt Options) (*Server, error) {
	if opt.TracePath == "" {
		return nil, errors.New("serve: Options.TracePath is required")
	}
	if opt.CacheBytes <= 0 {
		opt.CacheBytes = 64 << 20
	}
	log := opt.Log
	if log == nil {
		log = slog.Default()
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:        opt,
		log:        log,
		cache:      NewCache(opt.CacheBytes),
		baseCtx:    baseCtx,
		cancel:     cancel,
		statzExtra: make(map[string]func() any),
		start:      time.Now(),
		runFigures: core.RunFigures,
	}
	s.RegisterStatz("storage", s.storageStats)
	s.RegisterStatz("memory", memoryStats)
	s.open = opt.Open
	if s.open == nil {
		// Frozen: the snapshot's source must keep replaying the days the
		// snapshot was computed from even while a writer grows the file.
		// OpenTrace sniffs the magic, so the daemon serves flat and
		// compressed segmented traces alike.
		s.open = func() (trace.MetaSource, error) {
			tf, err := trace.OpenTrace(opt.TracePath)
			if err != nil {
				return nil, err
			}
			return tf.Frozen(), nil
		}
	}
	src, err := s.open()
	if err != nil {
		cancel()
		return nil, fmt.Errorf("serve: open trace: %w", err)
	}
	snap, err := s.loadFrom(ctx, src)
	if err != nil {
		cancel()
		return nil, err
	}
	s.publish(snap)
	log.LogAttrs(ctx, slog.LevelInfo, "warm state loaded",
		slog.Int("last_day", int(snap.Day)),
		slog.Int("resumed_from", int(snap.ResumedFrom)),
		slog.Int("figures", len(snap.Res.Figures())),
		slog.String("fingerprint", fmt.Sprintf("%016x", snap.Fingerprint)),
		slog.Duration("took", time.Since(s.start)))
	return s, nil
}

// Close shuts the advance plane down cleanly: it marks the server closed
// (new Refresh/AdvanceTo calls return ErrClosed), drains the apply in
// flight — a refresh that has already started completes and publishes,
// so its work is not torn away mid-pass — and only then cancels the
// background context, aborting any cold plan executions at their next
// day boundary. Safe to call more than once.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		s.cancel()
		return
	}
	// Acquiring applyMu is the drain: an in-flight apply holds it until
	// its publish completes.
	s.applyMu.Lock()
	s.applyMu.Unlock() //nolint:staticcheck // empty section is the drain
	s.cancel()
}

// Snapshot returns the currently published generation.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// warmConfig is Options.Config with the server's checkpoint plane wired
// in — the configuration of the warm pass.
func (s *Server) warmConfig() core.Config {
	cfg := s.opt.Config
	cfg.CheckpointDir = s.opt.CheckpointDir
	cfg.CheckpointFullEvery = s.opt.CheckpointFullEvery
	cfg.CheckpointKeep = s.opt.CheckpointKeep
	cfg.Resume = cfg.CheckpointDir != ""
	if cfg.CheckpointDir != "" || cfg.CheckpointBackend != nil {
		cfg.CheckpointObserver = s.observeCheckpoint
	}
	return cfg
}

// coldConfig derives the configuration of a custom-δ plan execution: the
// warm knobs with the requested δ grid, and no checkpoint plane — cold
// plans must never write into (or resume from) the warm state directory,
// whose files belong to the warm fingerprint.
func (s *Server) coldConfig(deltas []float64) core.Config {
	cfg := s.opt.Config
	cfg.DeltaSweep = append([]float64(nil), deltas...)
	cfg.CheckpointDir = ""
	cfg.CheckpointEvery = 0
	cfg.CheckpointFullEvery = 0
	cfg.CheckpointKeep = 0
	cfg.CheckpointBackend = nil
	cfg.CheckpointObserver = nil
	cfg.Resume = false
	cfg.OnProgress = nil
	return cfg
}

// loadFrom runs the warm plan over src and seals the Result into a
// publishable Snapshot.
func (s *Server) loadFrom(ctx context.Context, src trace.MetaSource) (*Snapshot, error) {
	if ctx == nil {
		ctx = s.baseCtx
	}
	meta := src.Meta()
	cfg := s.warmConfig()
	plan, err := core.Plan(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: plan: %w", err)
	}
	res, err := s.runFigures(ctx, src, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: warm pass: %w", err)
	}
	res.Seal()
	return &Snapshot{
		Res:         res,
		Src:         src,
		Meta:        meta,
		Day:         meta.Days - 1,
		Fingerprint: plan.Fingerprint(cfg, meta),
		Deltas:      append([]float64(nil), cfg.DeltaSweep...),
		DeltaTag:    deltaTag(cfg.DeltaSweep),
		LoadedAt:    time.Now(),
		ResumedFrom: res.ResumedFromDay,
	}, nil
}

// publish swaps the published snapshot pointer and eagerly drops cache
// entries of superseded generations. The swap is the only synchronization
// between the refresh pass and readers: the old snapshot stays whole for
// requests already holding it.
func (s *Server) publish(snap *Snapshot) {
	s.snap.Store(snap)
	s.cache.DropOtherDays(snap.Day)
}

// refreshFlight coalesces concurrent Refresh calls onto one pass.
type refreshFlight struct {
	done     chan struct{}
	advanced bool
	day      int32
	err      error
}

// Refresh re-probes the trace file and, if it gained days, runs the warm
// plan over the new content (resuming from the latest checkpoint when
// armed) and publishes the fresh snapshot. Concurrent calls coalesce
// onto the in-flight pass. It returns whether the published day
// advanced and the now-current last day.
func (s *Server) Refresh(ctx context.Context) (advanced bool, day int32, err error) {
	s.refreshMu.Lock()
	if f := s.refreshing; f != nil {
		s.refreshMu.Unlock()
		select {
		case <-f.done:
			return f.advanced, f.day, f.err
		case <-ctx.Done():
			return false, 0, ctx.Err()
		}
	}
	f := &refreshFlight{done: make(chan struct{})}
	s.refreshing = f
	s.refreshMu.Unlock()

	f.advanced, f.day, f.err = s.refresh(ctx)
	s.refreshMu.Lock()
	s.refreshing = nil
	s.refreshMu.Unlock()
	close(f.done)
	return f.advanced, f.day, f.err
}

// refresh is one ingest pass: probe, advance, publish.
func (s *Server) refresh(ctx context.Context) (bool, int32, error) {
	if s.closed.Load() {
		return false, s.snap.Load().Day, ErrClosed
	}
	src, err := s.open()
	if err != nil {
		return false, s.snap.Load().Day, fmt.Errorf("serve: refresh probe: %w", err)
	}
	return s.AdvanceTo(ctx, src)
}

// AdvanceTo runs the warm plan over src — resuming from the newest
// compatible checkpoint when armed — and publishes the result, carrying
// forward cache entries of figures whose tables did not change. It is
// the ingest plane's entry point: the tailer hands it each newly sealed
// prefix. A src whose horizon does not extend past the published day is
// a no-op. Advances are serialized; the pass itself runs under the
// server's lifetime context, so a caller hanging up cannot tear down a
// publish other readers are waiting on, and Close drains any apply in
// flight before cancelling.
func (s *Server) AdvanceTo(ctx context.Context, src trace.MetaSource) (advanced bool, day int32, err error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cur := s.snap.Load()
	if s.closed.Load() {
		return false, cur.Day, ErrClosed
	}
	if src.Meta().Days-1 <= cur.Day {
		return false, cur.Day, nil
	}
	t0 := time.Now()
	snap, err := s.loadFrom(s.baseCtx, src)
	if err != nil {
		return false, cur.Day, err
	}
	s.publishAdvance(cur, snap)
	s.refreshes.Add(1)
	s.log.LogAttrs(ctx, slog.LevelInfo, "refreshed",
		slog.Int("from_day", int(cur.Day)),
		slog.Int("to_day", int(snap.Day)),
		slog.Int("resumed_from", int(snap.ResumedFrom)),
		slog.Int("carried", snap.Carried),
		slog.Duration("took", time.Since(t0)))
	return true, snap.Day, nil
}

// publishAdvance publishes snap, first re-keying the cache entries of
// every figure whose table is identical to the outgoing snapshot's:
// day-advance invalidation is by construction (the day is in the key),
// so unchanged panels would otherwise be re-encoded on their next
// request even though not a byte of them moved.
func (s *Server) publishAdvance(prev, snap *Snapshot) {
	if prev != nil && snap.Day != prev.Day && snap.DeltaTag == prev.DeltaTag {
		for _, id := range snap.Res.Figures() {
			oldTab, oldErr := prev.Res.Figure(id)
			newTab, newErr := snap.Res.Figure(id)
			if oldErr != nil || newErr != nil || !newTab.Equal(oldTab) {
				continue
			}
			snap.Carried++
			for _, f := range []core.Format{core.FormatTSV, core.FormatJSON} {
				s.cache.Rekey(
					cacheKey(prev.Fingerprint, prev.Day, id, prev.DeltaTag, f),
					cacheKey(snap.Fingerprint, snap.Day, id, snap.DeltaTag, f),
					snap.Day)
			}
		}
	}
	s.publish(snap)
}

// Handler returns the daemon's HTTP surface:
//
//	GET  /figures            panel ids the snapshot serves, as JSON
//	GET  /figures/{id}       one panel; ?format=tsv|json, ?delta=0.01,...
//	GET  /healthz            liveness + published day
//	GET  /statz              cache/snapshot/request counters, as JSON
//	POST /refresh            re-probe the trace and advance the snapshot
//
// Every request is logged through the server's slog.Logger.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /figures", s.handleList)
	mux.HandleFunc("GET /figures/{id}", s.handleFigure)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("POST /refresh", s.handleRefresh)
	return s.logged(mux)
}

// handleFigure serves one panel. Requests resolve against the snapshot
// published at arrival: a refresh mid-request cannot tear the response.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := core.StageFor(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	format, err := core.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var deltas []float64
	if dq := r.URL.Query().Get("delta"); dq != "" {
		if deltas, err = core.ParseDeltaSweep(dq); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	snap := s.snap.Load()

	// A δ-set only changes sweep-produced panels; everything else is
	// warm-served no matter what δ the client passed.
	cold := len(deltas) > 0 && core.FigureUsesDeltaSweep(id) && !sameDeltas(deltas, snap.Deltas)
	var key string
	var compute func() ([]byte, error)
	if cold {
		cfg := s.coldConfig(deltas)
		plan, err := core.Plan(cfg, id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key = cacheKey(plan.Fingerprint(cfg, snap.Meta), snap.Day, id, deltaTag(deltas), format)
		compute = func() ([]byte, error) {
			// Replay the snapshot's own source: re-opening the file here
			// would read days (or a torn tail) the snapshot's day key
			// doesn't describe.
			res, err := s.runFigures(s.baseCtx, snap.Src, cfg, id)
			if err != nil {
				return nil, err
			}
			tab, err := res.Figure(id)
			if err != nil {
				return nil, err
			}
			return encodeTable(tab, format)
		}
	} else {
		key = cacheKey(snap.Fingerprint, snap.Day, id, snap.DeltaTag, format)
		compute = func() ([]byte, error) {
			tab, err := snap.Res.Figure(id) // lock-free: the Result is sealed
			if err != nil {
				return nil, err
			}
			return encodeTable(tab, format)
		}
	}

	val, hit, err := s.cache.GetOrCompute(key, snap.Day, compute)
	if err != nil {
		s.writeFigureError(w, r, id, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", format.ContentType())
	h.Set("X-Cache", hitLabel(hit))
	h.Set("X-Trace-Day", strconv.Itoa(int(snap.Day)))
	w.Write(val)
}

// writeFigureError maps pipeline errors onto HTTP statuses.
func (s *Server) writeFigureError(w http.ResponseWriter, r *http.Request, id string, err error) {
	switch {
	case errors.Is(err, core.ErrStageSkipped):
		http.Error(w, fmt.Sprintf("%s: not available for this trace/config: %v", id, err), http.StatusNotFound)
	case errors.Is(err, core.ErrUnknownFigure):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "computation cancelled", http.StatusServiceUnavailable)
	default:
		s.log.LogAttrs(r.Context(), slog.LevelError, "figure failed",
			slog.String("figure", id), slog.String("err", err.Error()))
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// handleList reports the ids the published snapshot serves.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	writeJSON(w, map[string]any{
		"figures":  snap.Res.Figures(),
		"last_day": snap.Day,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	writeJSON(w, map[string]any{"status": "ok", "last_day": snap.Day})
}

// RegisterStatz merges fn's value under name into every /statz response
// — the hook the ingest plane uses to expose tail-lag metrics. fn must
// be safe for concurrent use.
func (s *Server) RegisterStatz(name string, fn func() any) {
	s.statzMu.Lock()
	defer s.statzMu.Unlock()
	s.statzExtra[name] = fn
}

// observeCheckpoint records the warm pass's newest checkpoint write for
// the /statz storage section. It runs on the replay goroutine, so it
// only stores the stat under a mutex.
func (s *Server) observeCheckpoint(st core.CheckpointStat) {
	s.ckptMu.Lock()
	s.lastCkpt = &st
	s.ckptMu.Unlock()
}

// memoryStats renders the /statz "memory" section: live-heap and
// GC-pause gauges for the warm pass's resident state, plus the
// process-wide inflated-frame cache counters — together they show
// whether the allocation-lean data plane is holding (low GC activity)
// and whether refresh re-opens are hitting the frame cache instead of
// re-running flate.
func memoryStats() any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fc := trace.ReadFrameCacheStats()
	return map[string]any{
		"heap_alloc_bytes":  ms.HeapAlloc,
		"heap_sys_bytes":    ms.HeapSys,
		"heap_objects":      ms.HeapObjects,
		"gc_cycles":         ms.NumGC,
		"gc_pause_total_ns": ms.PauseTotalNs,
		"gc_last_pause_ns":  ms.PauseNs[(ms.NumGC+255)%256],
		"gc_cpu_fraction":   ms.GCCPUFraction,
		"next_gc_bytes":     ms.NextGC,
		"frame_cache": map[string]any{
			"hits":           fc.Hits,
			"misses":         fc.Misses,
			"hit_bytes":      fc.HitBytes,
			"inflated_bytes": fc.InflatedBytes,
			"bytes":          fc.Bytes,
			"entries":        fc.Entries,
			"capacity_bytes": fc.Capacity,
			"evictions":      fc.Evictions,
		},
	}
}

// storageStats renders the /statz "storage" section: the trace
// container's compression accounting (when segmented), the checkpoint
// backend's inventory, and the last checkpoint write's size and latency.
func (s *Server) storageStats() any {
	out := map[string]any{}
	if snap := s.snap.Load(); snap != nil {
		var st trace.SegStats
		seg := false
		if fs, ok := snap.Src.(*trace.FileSource); ok {
			st, seg = fs.Stats()
		}
		if seg {
			ratio := 0.0
			if st.RawBytes > 0 {
				ratio = float64(st.CompressedBytes) / float64(st.RawBytes)
			}
			out["trace"] = map[string]any{
				"format":            "segmented",
				"segments":          st.Segments,
				"raw_bytes":         st.RawBytes,
				"compressed_bytes":  st.CompressedBytes,
				"compression_ratio": ratio,
			}
		} else {
			out["trace"] = map[string]any{"format": "flat"}
		}
	}
	if dir := s.opt.CheckpointDir; dir != "" {
		ck := map[string]any{"dir": dir}
		if infos, err := core.ListCheckpoints(storage.NewDirBackend(dir)); err != nil {
			ck["error"] = err.Error()
		} else {
			var fulls, deltas, unreadable int
			var size int64
			for _, ci := range infos {
				size += ci.Size
				switch {
				case ci.Err != "":
					unreadable++
				case ci.Delta:
					deltas++
				default:
					fulls++
				}
			}
			ck["objects"] = len(infos)
			ck["fulls"] = fulls
			ck["deltas"] = deltas
			ck["unreadable"] = unreadable
			ck["bytes"] = size
		}
		out["checkpoints"] = ck
	}
	s.ckptMu.Lock()
	if st := s.lastCkpt; st != nil {
		out["last_checkpoint"] = map[string]any{
			"day":      st.Day,
			"delta":    st.Delta,
			"bytes":    st.Bytes,
			"write_ms": float64(st.Elapsed.Nanoseconds()) / 1e6,
		}
	}
	s.ckptMu.Unlock()
	return out
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	stats := map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"requests": s.requests.Load(),
		"trace": map[string]any{
			"path":      s.opt.TracePath,
			"days":      snap.Meta.Days,
			"last_day":  snap.Day,
			"nodes":     snap.Meta.Nodes,
			"edges":     snap.Meta.Edges,
			"merge_day": snap.Meta.MergeDay,
		},
		"snapshot": map[string]any{
			"fingerprint":  fmt.Sprintf("%016x", snap.Fingerprint),
			"loaded_at":    snap.LoadedAt.UTC().Format(time.RFC3339),
			"resumed_from": snap.ResumedFrom,
			"figures":      len(snap.Res.Figures()),
			"deltas":       snap.Deltas,
			"carried":      snap.Carried,
		},
		"cache":     s.cache.Stats(),
		"refreshes": s.refreshes.Load(),
	}
	s.statzMu.Lock()
	for name, fn := range s.statzExtra {
		stats[name] = fn()
	}
	s.statzMu.Unlock()
	writeJSON(w, stats)
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	advanced, day, err := s.Refresh(r.Context())
	if err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelError, "refresh failed", slog.String("err", err.Error()))
		http.Error(w, "refresh failed", http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"advanced": advanced, "last_day": day})
}

// logged wraps the mux with request accounting and slog records.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		t0 := time.Now()
		lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(lw, r)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.RequestURI()),
			slog.Int("status", lw.status),
			slog.Int64("bytes", lw.bytes),
			slog.String("cache", lw.Header().Get("X-Cache")),
			slog.Duration("took", time.Since(t0)))
	})
}

// loggingWriter captures status and byte count for the request log.
type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (l *loggingWriter) WriteHeader(code int) {
	l.status = code
	l.ResponseWriter.WriteHeader(code)
}

func (l *loggingWriter) Write(p []byte) (int, error) {
	n, err := l.ResponseWriter.Write(p)
	l.bytes += int64(n)
	return n, err
}

// cacheKey renders the cache identity of one encoded panel.
func cacheKey(fp uint64, day int32, id, deltaTag string, f core.Format) string {
	return fmt.Sprintf("%016x|%d|%s|%s|%s", fp, day, id, deltaTag, f)
}

// deltaTag canonicalizes a δ-set for cache keys.
func deltaTag(deltas []float64) string {
	if len(deltas) == 0 {
		return "-"
	}
	parts := make([]string, len(deltas))
	for i, d := range deltas {
		parts[i] = strconv.FormatFloat(d, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// sameDeltas reports element-wise equality (order matters: the δ order is
// the fig4 series order).
func sameDeltas(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func encodeTable(t *core.Table, f core.Format) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.Write(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func hitLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v)
}
