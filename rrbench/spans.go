package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's origin; Parent indexes the enclosing
// span (-1 for a root); Req is the shared id of a serve request's spans
// (0 elsewhere); Day is the trace day the span belongs to (-1 if none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Day    int32  `json:"day"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// add records a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// sum returns the summed duration in seconds of every span named name.
func (r *recorder) sum(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// durations returns the durations in milliseconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// tally returns the summed duration and the summed self time (duration
// minus the union of the span's own children's intervals), in seconds, of
// every span match selects.
func (r *recorder) tally(match func(span) bool) (total, self float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range r.spans {
		if !match(s) {
			continue
		}
		d := s.End - s.Start
		total += float64(d) / 1e9
		self += float64(d-covered(kids[i], s.Start, s.End)) / 1e9
	}
	return total, self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// write saves the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
