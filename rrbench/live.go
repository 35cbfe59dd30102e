package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trace"
)

// serve-live shape.
const (
	// liveSetups is how many times a run warms a daemon; the last one
	// serves the measurement window.
	liveSetups = 3
	// writePeriod is the writer's open-loop schedule: one sealed day per
	// period. With coldEvery it sets how much of the window the daemon
	// spends on background work: at a day per 500 ms and a cold fetch per
	// 2.2 s, the two CPUs of the reference host were saturated often
	// enough that host noise doubled the run-to-run spread of every
	// serve-live metric.
	writePeriod = time.Second
	// livePoll is the tailer's probe interval, with no idle backoff: with
	// the default backoff the phase between the writer's schedule and the
	// probe drifts from run to run, and freshness would measure that drift
	// rather than the apply path. The writer's and the tailer's periods
	// are fixed, so the wait for the next probe is about the same for
	// every day of a run but differs from run to run; a short interval
	// keeps that run-wide offset small against the apply time. A probe
	// decodes only the bytes appended since the last one (tens of
	// microseconds).
	livePoll = 5 * time.Millisecond
	// Connection 2 fetches a cold panel every coldEvery, coldOffset after
	// the writer seals a day, on the writer's clock. The writer starts at
	// day livePrefix (270) and snapshots fall on days 20+3k, so each of
	// those days holds no community snapshot: its apply is done by then,
	// and the fetch (about 0.7 s) ends before the next day is written.
	// Freshness then measures ingest beside the read ladder, not how a
	// cold plan happened to overlap an apply, which varied from run to
	// run. A fetch per non-snapshot day instead would keep a cold plan
	// running through half the window, and the read median would sit
	// between the reads that meet one and those that do not.
	coldEvery  = 3 * writePeriod
	coldOffset = 150 * time.Millisecond
	// drainTimeout bounds the wait for the daemon to publish the last
	// written day after the window.
	drainTimeout = 60 * time.Second
	// Tiered weekly checkpoints: every 7 days, 1 full of every 4, keep 2.
	liveCheckpointEvery = 7
	liveFullEvery       = 4
	liveKeep            = 2
)

// ladder is connection 1's open-loop read schedule: rates in requests per
// second, each held for its share of the window. One connection serves
// about 9000 cached reads/s on the reference host, so the top rung is far
// past that knee and the others far below it: the reported rate does not
// flip between runs. refRate is the rate read_p50_ms and read_p99_ms are
// reported at; it gets the largest share so its p99 rests on thousands of
// reads. The writer and connection 2 stop when the top rung starts: a
// connection past the knee keeps a CPU busy, and the days and cold fetches
// that met it were the slowest of a run by a margin that varied from run
// to run.
var (
	ladder = []struct{ rate, share float64 }{
		{100, 0.1}, {300, 0.1}, {1000, 0.6}, {30000, 0.2},
	}
	refRate = 1000.0
)

// sloMs is the read p99 limit. Beside serve-live's writer and cold plans,
// every advance keeps all GOMAXPROCS busy and a read waits for a P behind
// its goroutines: a cached read's p99 there is 25–200 ms at any rate on
// the reference host (1.5–4 ms with the writer and cold client stopped,
// 8 ms with GOMAXPROCS raised past the CPU count), so a tighter limit
// would report no rate at all. The limit sits well above that band; a
// rate fails it when reads queue behind each other, which the growing-lag
// check catches first. Batch reads of the whole figure set take a few
// milliseconds.
const sloMs = 500.0

// warmDeltas is the daemon's default warm δ grid (rrserved -deltas).
var warmDeltas = []float64{0.0001, 0.01, 0.04, 0.1, 0.3}

// servePerLayer lists the per-layer metrics only serve-live exercises.
var servePerLayer = []struct{ name, unit string }{
	{"trace.probe_us", "us"},
	{"ingest.apply_ms_p50", "ms"},
	{"ingest.days_per_apply", "count"},
	{"ingest.days_behind_max", "count"},
	{"serve.advance_ms_p50", "ms"},
	{"storage.put_ms_p50", "ms"},
	{"storage.put_bytes", "bytes"},
	{"storage.puts", "count"},
	{"storage.get_ms", "ms"},
	{"checkpoint.full_bytes_avg", "bytes"},
	{"checkpoint.delta_bytes_avg", "bytes"},
	{"serve.handler_p50_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_misses", "count"},
	{"serve.cache_carried", "count"},
	{"loadgen.late_p99_ms", "ms"},
}

// liveConfig is the daemon's warm configuration for a prefix of the given
// length: the default pipeline with the default warm δ grid, weekly
// checkpoints, and size-distribution days pinned at startup as rrserved
// pins them.
func liveConfig(days int32) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	cfg.DeltaSweep = append([]float64(nil), warmDeltas...)
	cfg.CheckpointEvery = liveCheckpointEvery
	cfg.Community.SizeDistDays = distDays(days, cfg.Community.StartDay, cfg.Community.SnapshotEvery)
	return cfg
}

// timingBackend wraps a storage.Backend with a span around every Put and
// Get, and keeps the size of every checkpoint it stores.
type timingBackend struct {
	storage.Backend
	rec       *recorder
	mu        sync.Mutex
	putBytes  int64
	full, dlt []int64 // bytes of each full and delta checkpoint put
}

func (b *timingBackend) Put(name string, data []byte) error {
	t0 := b.rec.now()
	err := b.Backend.Put(name, data)
	b.rec.add(span{Name: "storage.put", Start: t0, End: b.rec.now(), Parent: -1, Day: -1})
	b.mu.Lock()
	defer b.mu.Unlock()
	b.putBytes += int64(len(data))
	switch {
	case strings.HasSuffix(name, ".dckpt"):
		b.dlt = append(b.dlt, int64(len(data)))
	case strings.HasSuffix(name, ".ckpt"):
		b.full = append(b.full, int64(len(data)))
	}
	return err
}

func (b *timingBackend) Get(name string) ([]byte, error) {
	t0 := b.rec.now()
	data, err := b.Backend.Get(name)
	b.rec.add(span{Name: "storage.get", Start: t0, End: b.rec.now(), Parent: -1, Day: -1})
	return data, err
}

// daemon is one in-process figure daemon: the server, its ingest loop and
// its loopback listener.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	rec     *recorder      // nil untraced
	backend *timingBackend // nil untraced

	cancel   context.CancelFunc
	done     chan struct{} // closed when the follow loop has returned
	serveErr chan error

	// Traced ingest accounting, written by the follow loop only.
	mu        sync.Mutex
	published map[int32]time.Time // day → when an apply published it
	days      []float64           // days advanced per successful apply
	carried   int
}

// spanHandler puts a span, with its own request id, around every request.
type spanHandler struct {
	next http.Handler
	rec  *recorder
	seq  atomic.Int64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.rec.now()
	h.next.ServeHTTP(w, r)
	h.rec.add(span{Name: "serve.handler", Start: t0, End: h.rec.now(), Parent: -1, Req: h.seq.Add(1), Day: -1})
}

// startDaemon warms a daemon over the live file, as cmd/rrserved -follow
// does, and returns once /healthz answers. A non-nil rec traces it.
func startDaemon(live, ckdir string, rec *recorder) (*daemon, error) {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	tailer := ingest.NewTailer(ingest.Options{Path: live, Poll: livePoll, MaxPoll: livePoll, Log: discard})
	src, err := tailer.OpenSealed()
	if err != nil {
		return nil, err
	}
	cfg := liveConfig(src.Meta().Days)
	d := &daemon{rec: rec, done: make(chan struct{}), serveErr: make(chan error, 1), published: map[int32]time.Time{}}
	if rec != nil {
		d.backend = &timingBackend{Backend: storage.NewDirBackend(ckdir), rec: rec}
		cfg.CheckpointBackend = d.backend
	}
	srv, err := serve.NewServer(context.Background(), serve.Options{
		TracePath:           live,
		CheckpointDir:       ckdir,
		CheckpointFullEvery: liveFullEvery,
		CheckpointKeep:      liveKeep,
		Config:              cfg,
		Log:                 discard,
		Open:                tailer.OpenSealed,
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	if rec != nil {
		go func() {
			defer close(d.done)
			tailer.Follow(ctx, d.tracedApply)
		}()
	} else {
		applier := ingest.NewApplier(srv, tailer)
		srv.RegisterStatz("ingest", applier.Statz)
		go func() {
			defer close(d.done)
			applier.Run(ctx)
		}()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	handler := srv.Handler()
	if rec != nil {
		handler = &spanHandler{next: handler, rec: rec}
	}
	d.hs = &http.Server{Handler: handler}
	d.base = "http://" + ln.Addr().String()
	go func() { d.serveErr <- d.hs.Serve(ln) }()
	deadline := time.Now().Add(drainTimeout)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("/healthz did not answer within %v", drainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// tracedApply is the ingest.Applier's apply step with the advance timed.
func (d *daemon) tracedApply(ctx context.Context, snap *trace.TailSnapshot) error {
	src := snap.Source()
	if src == nil {
		return nil
	}
	prev := d.srv.Snapshot().Day
	t0 := d.rec.now()
	advanced, day, err := d.srv.AdvanceTo(ctx, src)
	d.rec.add(span{Name: "serve.advance", Start: t0, End: d.rec.now(), Parent: -1, Day: day})
	now := time.Now()
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if advanced {
		d.days = append(d.days, float64(day-prev))
		d.carried += d.srv.Snapshot().Carried
		for dd := prev + 1; dd <= day; dd++ {
			d.published[dd] = now
		}
	}
	return nil
}

// stop shuts the daemon down and waits for its goroutines.
func (d *daemon) stop() {
	if d.hs != nil {
		d.hs.Shutdown(context.Background())
		<-d.serveErr
	}
	d.cancel()
	<-d.done
	d.srv.Close()
}

// liveInputs is serve-live's pre-generated input: the warm prefix file and
// the writer's day batches.
type liveInputs struct {
	prefix  string
	batches [][]trace.Event // one per appended day, in day order
}

func loadLiveInputs(dir string) (*liveInputs, error) {
	src, err := trace.OpenTrace(filepath.Join(dir, livePrefixFile))
	if err != nil {
		return nil, err
	}
	prefixDays := src.Meta().Days
	full, err := trace.OpenTrace(filepath.Join(dir, liveFullFile))
	if err != nil {
		return nil, err
	}
	cur, err := full.OpenAt(prefixDays)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	in := &liveInputs{prefix: filepath.Join(dir, livePrefixFile)}
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if ev.Day < prefixDays {
			continue
		}
		if n := len(in.batches); n == 0 || in.batches[n-1][0].Day != ev.Day {
			in.batches = append(in.batches, nil)
		}
		in.batches[len(in.batches)-1] = append(in.batches[len(in.batches)-1], ev)
	}
	return in, nil
}

// appendDay appends one day's events through trace.OpenAppend and
// finalizes the file, which seals the day for the tail probe.
func appendDay(path string, evs []trace.Event) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	enc, err := trace.OpenAppend(f)
	if err != nil {
		f.Close()
		return err
	}
	for _, ev := range evs {
		if err := enc.Write(ev); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// readSample is one open-loop read.
type readSample struct {
	latMs, lagMs float64
	ok           bool
}

// liveState is what the run's goroutines share.
type liveState struct {
	rep   *report
	repMu sync.Mutex

	stateMu sync.Mutex          // guards the fields below
	sealed  map[int32]time.Time // day → when its write returned
	fresh   map[int32]float64   // day → freshness in ms
	hits    int64
	misses  int64
}

func (s *liveState) attempt(failed bool, format string, args ...any) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.rep.Attempted++
	if failed {
		s.rep.fail(format, args...)
	}
}

// observe credits freshness to every written day the response's
// X-Trace-Day covers.
func (s *liveState) observe(h http.Header, at time.Time) {
	day, err := strconv.Atoi(h.Get("X-Trace-Day"))
	if err != nil {
		return
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	switch h.Get("X-Cache") {
	case "hit":
		s.hits++
	case "miss":
		s.misses++
	}
	for d, t := range s.sealed {
		if _, done := s.fresh[d]; !done && d <= int32(day) {
			s.fresh[d] = ms(at.Sub(t))
		}
	}
}

// get fetches one URL on client. It returns the HTTP status (0 when the
// request failed) and the body; a 404 is the daemon's answer for a panel
// its trace cannot support yet (core.ErrStageSkipped), not a failure.
func (s *liveState) get(client *http.Client, url string) (int, []byte) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	at := time.Now()
	if err != nil {
		return 0, nil
	}
	if resp.StatusCode == http.StatusOK {
		s.observe(resp.Header, at)
	}
	return resp.StatusCode, body
}

// answered reports whether a read got a valid answer.
func answered(status int) bool { return status == http.StatusOK || status == http.StatusNotFound }

// panelURLs is the read mix: every panel in both formats, shuffled by the
// seed so the Zipf ranks land on seed-chosen panels.
func panelURLs(base string, rng *rand.Rand) []string {
	var out []string
	for _, id := range core.AllFigures {
		out = append(out, base+"/figures/"+id, base+"/figures/"+id+"?format=json")
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// openLoop sends GETs at rate for dur on one connection, each due at its
// scheduled time; latency and send lag are measured from the due time.
// Requests still unsent when the step ends are returned as unsent: the
// generator could not keep the schedule. elapsed runs from the step's
// start to its last response.
func openLoop(s *liveState, client *http.Client, urls []string, zipf *rand.Zipf, rate float64, dur time.Duration) (out []readSample, unsent int, elapsed time.Duration) {
	n := int(rate * dur.Seconds())
	out = make([]readSample, 0, n)
	start := time.Now()
	end := start.Add(dur)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		if sent.After(end) {
			return out, n - k, time.Since(start)
		}
		status, _ := s.get(client, urls[zipf.Uint64()])
		ok := answered(status)
		out = append(out, readSample{latMs: ms(time.Since(due)), lagMs: ms(sent.Sub(due)), ok: ok})
	}
	return out, 0, time.Since(start)
}

// stepResult summarizes one ladder step.
type stepResult struct {
	rate, achieved, p50, p99 float64
	growing, ok              bool
}

func summarize(rate float64, elapsed time.Duration, ss []readSample, unsent int) stepResult {
	// More than 1% of the step left unsent means the generator could not
	// keep the schedule.
	r := stepResult{rate: rate, ok: true, growing: unsent*100 > len(ss)+unsent}
	var lat []float64
	completed := 0
	for _, s := range ss {
		lat = append(lat, s.latMs)
		if s.ok {
			completed++
		} else {
			r.ok = false
		}
	}
	r.achieved = float64(completed) / elapsed.Seconds()
	r.p50 = quantile(lat, 0.5)
	r.p99 = quantile(lat, 0.99)
	// The send lag grows when the last quarter of the step ran, at the
	// median, further behind schedule than the SLO and than twice the
	// first quarter.
	q := len(ss) / 4
	if q > 0 {
		first, last := make([]float64, 0, q), make([]float64, 0, q)
		for i := 0; i < q; i++ {
			first = append(first, ss[i].lagMs)
			last = append(last, ss[len(ss)-q+i].lagMs)
		}
		lf, ll := median(first), median(last)
		r.growing = r.growing || (ll > sloMs && ll > 2*lf)
	}
	return r
}

// runLive runs serve-live. Set-up (median of liveSetups) is copying the
// warm prefix into place and warming a daemon until /healthz answers; its
// time is the CPU time the process spends warming (see cpu.go). The
// window then runs three clients against the last daemon: connection 1
// climbs the open-loop read ladder over Zipf-skewed panels; until its top
// rung, the writer appends one pre-generated day per writePeriod and
// connection 2 fetches a cold, non-warm-δ fig4 panel every coldEvery.
// That traffic is fixed by its schedules, so the process's CPU time over
// it, cpu_s, is what serving it costs; events_per_cpu_s is the appended
// events over cpu_s. After the window the run waits for the last written
// day to be published, checks every warm panel against a from-zero
// core.RunPlan over the final trace, and stops the daemon. The request
// latencies are per-layer figures of the traced run.
func runLive(p params, rep *report) error {
	dir, err := inputDir(p)
	if err != nil {
		return err
	}
	in, err := loadLiveInputs(dir)
	if err != nil {
		return err
	}
	runDir := filepath.Join(p.work, "live-"+tag(p))
	live := filepath.Join(runDir, "live.rrt1")
	ckdir := filepath.Join(runDir, "ckpt")

	var setups []float64
	var d *daemon
	for i := 0; i < liveSetups; i++ {
		if d != nil {
			d.stop()
		}
		if err := os.RemoveAll(runDir); err != nil {
			return err
		}
		if err := os.MkdirAll(ckdir, 0o755); err != nil {
			return err
		}
		if err := copyFile(live, in.prefix); err != nil {
			return err
		}
		runtime.GC() // the previous daemon's garbage is not this set-up's work
		c0 := procCPU()
		// Each daemon gets its own recorder: the traced figures describe
		// the one that serves the window.
		var rec *recorder
		if p.traced {
			rec = newRecorder()
		}
		if d, err = startDaemon(live, ckdir, rec); err != nil {
			return err
		}
		setups = append(setups, (procCPU() - c0).Seconds())
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	s := &liveState{rep: rep, sealed: map[int32]time.Time{}, fresh: map[int32]float64{}}
	rng := rand.New(rand.NewSource(p.seed))
	urls := panelURLs(d.base, rng)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(urls)-1))
	window := time.Duration(p.seconds * float64(time.Second))
	busy := window - time.Duration(ladder[len(ladder)-1].share*float64(window))
	stopCold := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: open loop, one day per writePeriod.
	var lastWritten atomic.Int32
	lastWritten.Store(-1)
	var appended atomic.Int64 // events in the days written
	var behindMax atomic.Int32
	// Traced, the writer times a tail probe of its own after every day it
	// seals: the incremental probe cost the daemon's tailer pays.
	probe := trace.NewTailProbe(live)
	if _, err := probe.Probe(); err != nil {
		return err
	}
	start, c0 := time.Now(), procCPU()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < len(in.batches); k++ {
			due := start.Add(time.Duration(k) * writePeriod)
			if due.Sub(start) >= busy {
				return
			}
			time.Sleep(time.Until(due))
			evs := in.batches[k]
			err := appendDay(live, evs)
			at := time.Now()
			s.attempt(err != nil, "append day %d: %v", evs[0].Day, err)
			if err != nil {
				return
			}
			s.stateMu.Lock()
			s.sealed[evs[0].Day] = at
			s.stateMu.Unlock()
			lastWritten.Store(evs[0].Day)
			appended.Add(int64(len(evs)))
			if b := evs[0].Day - d.srv.Snapshot().Day; b > behindMax.Load() {
				behindMax.Store(b)
			}
			if d.rec != nil {
				t0 := d.rec.now()
				_, err := probe.Probe()
				d.rec.add(span{Name: "trace.probe", Start: t0, End: d.rec.now(), Parent: -1, Day: evs[0].Day})
				s.attempt(err != nil, "tail probe after day %d: %v", evs[0].Day, err)
			}
		}
	}()

	// Connection 2: cold non-warm-δ fig4 fetches on the writer's clock,
	// one at a time (a late fetch delays the next).
	var coldMs []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := newClient()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k)*coldEvery + coldOffset)
			if due.Sub(start) >= busy {
				return
			}
			select {
			case <-stopCold:
				return
			case <-time.After(time.Until(due)):
			}
			url := fmt.Sprintf("%s/figures/fig4a?delta=%g", d.base, 0.02+0.001*float64(k))
			t0 := time.Now()
			status, _ := s.get(client, url)
			ok := status == http.StatusOK
			coldMs = append(coldMs, ms(time.Since(t0)))
			s.attempt(!ok, "cold fetch %s failed", url)
		}
	}()

	// Connection 1: the read ladder.
	client := newClient()
	var steps []stepResult
	var lags []float64
	var ref stepResult
	var serveCPU time.Duration
	for i, rung := range ladder {
		if i == len(ladder)-1 {
			// The traffic so far is fixed by its schedules, so the CPU
			// it took is the cost of serving it.
			serveCPU = procCPU() - c0
		}
		rate := rung.rate
		stepDur := time.Duration(rung.share * float64(window))
		ss, unsent, elapsed := openLoop(s, client, urls, zipf, rate, stepDur)
		st := summarize(rate, elapsed, ss, unsent)
		for _, x := range ss {
			s.attempt(!x.ok, "read failed")
			// The generator's own lateness matters where the daemon kept
			// up; on a rung past its capacity the lag is the finding.
			if !st.growing {
				lags = append(lags, x.lagMs)
			}
		}
		steps = append(steps, st)
		if rate == refRate {
			ref = st
		}
	}
	close(stopCold)
	wg.Wait()

	// Drain: keep reading until the last written day is served.
	last := lastWritten.Load()
	deadline := time.Now().Add(drainTimeout)
	for {
		s.stateMu.Lock()
		_, done := s.fresh[last]
		s.stateMu.Unlock()
		if done || last < 0 {
			break
		}
		if time.Now().After(deadline) {
			s.attempt(true, "day %d not served within %v", last, drainTimeout)
			break
		}
		s.get(client, d.base+"/figures/fig1a")
		time.Sleep(5 * time.Millisecond)
	}

	// Correctness: every warm panel at the final day against a from-zero
	// RunPlan over the final trace.
	served := map[string][]byte{}
	status := map[string]int{}
	for _, id := range core.AllFigures {
		status[id], served[id] = s.get(client, d.base+"/figures/"+id)
		s.attempt(!answered(status[id]), "final fetch %s: status %d", id, status[id])
	}
	src, err := trace.OpenTrace(live)
	if err != nil {
		return err
	}
	final := src.Meta()
	prefixSrc, err := trace.OpenTrace(in.prefix)
	if err != nil {
		return err
	}
	cfg := liveConfig(prefixSrc.Meta().Days)
	cfg.CheckpointEvery = 0
	plan, err := core.Plan(cfg, core.AllFigures...)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := core.RunPlan(context.Background(), src, cfg, plan)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	mismatched, err := compareServed(res, status, served)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	s.attempt(len(mismatched) > 0, "served panels differ from the reference run at day %d: %s", final.Days-1, strings.Join(mismatched, ","))
	if got := d.srv.Snapshot().Day; got != final.Days-1 {
		s.attempt(true, "published day %d, final trace day %d", got, final.Days-1)
	}

	var fresh []float64
	for _, f := range s.fresh {
		fresh = append(fresh, f)
	}
	if p.traced {
		// The latencies are per-layer figures: they are wall clock, so
		// steal on the host moves them from run to run by more than any
		// bound (see cpu.go). A run seals 16 days, so the freshness p90
		// rests on two of them.
		rep.set("read_p50_ms", "ms", ref.p50)
		rep.set("read_p99_ms", "ms", ref.p99)
		best := 0.0
		for _, st := range steps {
			if st.ok && !st.growing && st.p99 <= sloMs {
				best = st.achieved
			}
		}
		rep.set("read_rps_at_slo", "1/s", best)
		rep.set("fresh_p50_ms", "ms", quantile(fresh, 0.5))
		rep.set("fresh_p90_ms", "ms", quantile(fresh, 0.9))
		rep.set("cold_p50_ms", "ms", median(coldMs))
		return tracedLive(p, rep, d, s, live, src, cfg, plan, res, wall, behindMax.Load(), lags)
	}

	rep.set("setup_s", "s", median(setups))
	fmt.Fprintf(os.Stderr, "rrbench: serving cpu %.3fs for %d appended events; reference run %.3fs wall\n", serveCPU.Seconds(), appended.Load(), wall)
	rep.set("cpu_s", "s", serveCPU.Seconds())
	rep.set("events_per_cpu_s", "1/s", float64(appended.Load())/serveCPU.Seconds())
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MB", rss)
	days := make([]int32, 0, len(s.fresh))
	for d := range s.fresh {
		days = append(days, d)
	}
	slices.Sort(days)
	var line strings.Builder
	for _, d := range days {
		fmt.Fprintf(&line, " %d:%.0f", d, s.fresh[d])
	}
	fmt.Fprintf(os.Stderr, "rrbench: fresh ms by day:%s\n", line.String())
	for _, st := range steps {
		fmt.Fprintf(os.Stderr, "rrbench: ladder %g/s: achieved %.1f/s p50 %.3fms p99 %.3fms growing=%v ok=%v\n",
			st.rate, st.achieved, st.p50, st.p99, st.growing, st.ok)
	}
	return nil
}

// compareServed encodes every panel of the reference result and returns
// the panels whose served answer differs: other bytes, or a status that
// does not match whether the reference could produce the panel.
func compareServed(res *core.Result, status map[string]int, served map[string][]byte) ([]string, error) {
	var buf bytes.Buffer
	var mismatched []string
	for _, id := range core.AllFigures {
		tab, err := res.Figure(id)
		switch {
		case errors.Is(err, core.ErrStageSkipped):
			if status[id] != http.StatusNotFound {
				mismatched = append(mismatched, id)
			}
			continue
		case err != nil:
			return nil, fmt.Errorf("reference %s: %w", id, err)
		}
		buf.Reset()
		if err := tab.WriteTSV(&buf); err != nil {
			return nil, err
		}
		if status[id] != http.StatusOK || !bytes.Equal(buf.Bytes(), served[id]) {
			mismatched = append(mismatched, id)
		}
	}
	return mismatched, nil
}

// tracedLive reports serve-live's per-layer metrics: the ingest, serving
// and storage layers from the daemon's spans during the window, and, over
// the final trace, every engine, stage and kernel layer through
// layerPasses (its traced pass must reproduce the reference run's panels).
// The daemon's spans go to spans-<tag>-live.json beside the passes' file.
func tracedLive(p params, rep *report, d *daemon, s *liveState, live string, src trace.TraceFile, cfg core.Config, plan *core.FigurePlan, res *core.Result, wall float64, behindMax int32, lags []float64) error {
	ref, err := digest(res, core.AllFigures)
	if err != nil {
		return err
	}
	rec := newRecorder()
	if err := layerPasses(rep, rec, live, src, cfg, plan, core.AllFigures, ref, res, wall); err != nil {
		return err
	}
	meta := src.Meta()
	rep.set("wall_s", "s", wall)
	rep.set("events_per_s", "1/s", float64(meta.Nodes+meta.Edges)/wall)

	us := func(msList []float64) float64 { return median(msList) * 1000 }
	rep.set("serve.advance_ms_p50", "ms", median(d.rec.durations("serve.advance")))
	rep.set("serve.handler_p50_us", "us", us(d.rec.durations("serve.handler")))
	rep.set("trace.probe_us", "us", us(d.rec.durations("trace.probe")))
	rep.set("storage.put_ms_p50", "ms", median(d.rec.durations("storage.put")))
	rep.set("storage.puts", "count", float64(len(d.rec.durations("storage.put"))))
	rep.set("storage.get_ms", "ms", d.rec.sum("storage.get")*1000)
	d.mu.Lock()
	var applyMs []float64
	s.stateMu.Lock()
	for day, at := range d.published {
		if t, ok := s.sealed[day]; ok {
			applyMs = append(applyMs, ms(at.Sub(t)))
		}
	}
	hits, misses := s.hits, s.misses
	s.stateMu.Unlock()
	daysPer := 0.0
	for _, n := range d.days {
		daysPer += n / float64(len(d.days))
	}
	rep.set("ingest.apply_ms_p50", "ms", median(applyMs))
	rep.set("ingest.days_per_apply", "count", daysPer)
	rep.set("serve.cache_carried", "count", float64(d.carried))
	d.mu.Unlock()
	rep.set("ingest.days_behind_max", "count", float64(behindMax))

	b := d.backend
	b.mu.Lock()
	rep.set("storage.put_bytes", "bytes", float64(b.putBytes))
	rep.set("checkpoint.full_bytes_avg", "bytes", mean(b.full))
	rep.set("checkpoint.delta_bytes_avg", "bytes", mean(b.dlt))
	b.mu.Unlock()

	rep.set("serve.cache_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	rep.set("serve.cache_misses", "count", float64(misses))
	rep.set("loadgen.late_p99_ms", "ms", quantile(lags, 0.99))
	rep.set("error_rate", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	if err := d.rec.write(strings.TrimSuffix(spansPath(p), ".json") + "-live.json"); err != nil {
		return err
	}
	return rec.write(spansPath(p))
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}
