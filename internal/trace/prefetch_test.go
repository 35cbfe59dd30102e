package trace

import (
	"errors"
	"path/filepath"
	"testing"
)

// gapTrace builds a trace whose events cluster on sparse days (gaps of
// empty days in between), to pin the prefetch hand-off at day boundaries
// including empty-day day-end hooks.
func gapTrace() *Trace {
	days := []int32{0, 1, 5, 6, 6, 12, 13, 13, 13, 20}
	events := make([]Event, 0, 2*len(days))
	for i, d := range days {
		events = append(events, Event{Kind: AddNode, Day: d, U: int32(i)})
		if i > 0 {
			events = append(events, Event{Kind: AddEdge, Day: d, U: int32(i - 1), V: int32(i)})
		}
	}
	tr := &Trace{Events: events}
	tr.Meta = Summarize(events)
	return tr
}

// hookLog records the exact callback sequence of one replay pass.
type hookLog struct {
	kinds []string // "ev" or "day"
	evs   []Event
	days  []int32
}

func (l *hookLog) hooks() Hooks {
	return Hooks{
		OnEvent: func(_ *State, ev Event) {
			l.kinds = append(l.kinds, "ev")
			l.evs = append(l.evs, ev)
		},
		OnDayEnd: func(_ *State, day int32) {
			l.kinds = append(l.kinds, "day")
			l.days = append(l.days, day)
		},
	}
}

func sameLog(t *testing.T, label string, got, want *hookLog) {
	t.Helper()
	if len(got.kinds) != len(want.kinds) {
		t.Fatalf("%s: %d callbacks, want %d", label, len(got.kinds), len(want.kinds))
	}
	for i := range got.kinds {
		if got.kinds[i] != want.kinds[i] {
			t.Fatalf("%s: callback %d is %s, want %s", label, i, got.kinds[i], want.kinds[i])
		}
	}
	sameEvents(t, label, got.evs, want.evs)
	for i := range got.days {
		if got.days[i] != want.days[i] {
			t.Fatalf("%s: day-end %d fired for day %d, want %d", label, i, got.days[i], want.days[i])
		}
	}
}

// TestPrefetchMatchesSequential holds the prefetched pass to the exact
// event and day-boundary sequence of the direct pass, over a trace with
// empty-day gaps.
func TestPrefetchMatchesSequential(t *testing.T) {
	tr := gapTrace()
	path := filepath.Join(t.TempDir(), "gap.trace")
	encodeToFile(t, tr, path)
	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}

	var seq, pre hookLog
	if _, err := ReplaySource(fs, seq.hooks()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySource(Prefetch(fs), pre.hooks()); err != nil {
		t.Fatal(err)
	}
	sameLog(t, "prefetch replay", &pre, &seq)
}

// TestPrefetchBatchCapSplit drains a single day denser than the batch
// cap, so one day is handed off in multiple slices.
func TestPrefetchBatchCapSplit(t *testing.T) {
	n := prefetchBatchCap + prefetchBatchCap/2
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, Event{Kind: AddNode, Day: 3, U: int32(i)})
	}
	tr := &Trace{Events: events}
	tr.Meta = Summarize(events)
	path := filepath.Join(t.TempDir(), "dense.trace")
	encodeToFile(t, tr, path)
	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, Prefetch(fs))
	sameEvents(t, "dense day", got, events)
}

// TestPrefetchOpenAt asserts the wrapper's DaySeeker path: OpenAt(day)
// yields exactly the suffix from that day, like the inner source.
func TestPrefetchOpenAt(t *testing.T) {
	tr := synthTrace(200)
	path := filepath.Join(t.TempDir(), "idx.trace")
	encodeToFile(t, tr, path)
	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	src := Prefetch(fs)
	ds, ok := src.(DaySeeker)
	if !ok {
		t.Fatal("Prefetch of a file source should implement DaySeeker")
	}
	lastDay := tr.Events[len(tr.Events)-1].Day
	for _, day := range []int32{0, 1, lastDay / 2, lastDay, lastDay + 3} {
		cur, err := ds.OpenAt(day)
		if err != nil {
			t.Fatal(err)
		}
		got := drainCursor(t, cur)
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		sameEvents(t, "prefetch OpenAt", got, suffixFrom(tr.Events, day))
	}
}

// TestPrefetchInMemoryBypass: in-memory sources are returned unchanged —
// there is no decode cost to hide.
func TestPrefetchInMemoryBypass(t *testing.T) {
	tr := gapTrace()
	if src := Prefetch(SliceSource(tr.Events)); src == nil {
		t.Fatal("nil source")
	} else if _, ok := src.(SliceSource); !ok {
		t.Fatalf("Prefetch(SliceSource) = %T, want SliceSource", src)
	}
	if src := Prefetch(tr.Source()); src == nil {
		t.Fatal("nil source")
	} else if _, ok := src.(TraceSource); !ok {
		t.Fatalf("Prefetch(TraceSource) = %T, want TraceSource", src)
	}
}

// faultSource yields a fixed prefix of events and then fails, tracking
// whether (and how often) its cursors are closed.
type faultSource struct {
	events []Event
	failAt int // cursor position at which Next errors; -1 never
	closed int
}

var errFault = errors.New("synthetic decode fault")

func (s *faultSource) Open() (Cursor, error) { return &faultCursor{src: s}, nil }

type faultCursor struct {
	src *faultSource
	i   int
}

func (c *faultCursor) Next() (Event, bool, error) {
	if c.src.failAt >= 0 && c.i == c.src.failAt {
		return Event{}, false, errFault
	}
	if c.i >= len(c.src.events) {
		return Event{}, false, nil
	}
	ev := c.src.events[c.i]
	c.i++
	return ev, true, nil
}

func (c *faultCursor) Close() error {
	c.src.closed++
	return nil
}

// TestPrefetchErrorPosition pins error timing: a decode error surfaces
// after exactly the events that preceded it — including when the error
// lands mid-day, so the preceding partial day is still delivered.
func TestPrefetchErrorPosition(t *testing.T) {
	tr := gapTrace()
	for _, failAt := range []int{0, 1, 5, len(tr.Events)} {
		src := &faultSource{events: tr.Events, failAt: failAt}
		cur, err := Prefetch(src).Open()
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				if !errors.Is(err, errFault) {
					t.Fatalf("failAt=%d: error %v, want errFault", failAt, err)
				}
				break
			}
			if !ok {
				t.Fatalf("failAt=%d: clean EOF, want errFault", failAt)
			}
			got = append(got, ev)
		}
		// The error must stay latched on further Next calls.
		if _, _, err := cur.Next(); !errors.Is(err, errFault) {
			t.Fatalf("failAt=%d: error not latched: %v", failAt, err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		sameEvents(t, "prefix before fault", got, tr.Events[:failAt])
		if src.closed != 1 {
			t.Fatalf("failAt=%d: inner cursor closed %d times, want 1", failAt, src.closed)
		}
	}
}

// TestPrefetchCloseMidStream closes the consumer cursor while the reader
// still has events queued: Close must not deadlock, must close the inner
// cursor exactly once, and must return its Close error.
func TestPrefetchCloseMidStream(t *testing.T) {
	events := make([]Event, 0, 4*prefetchBatchCap)
	for i := 0; i < cap(events); i++ {
		events = append(events, Event{Kind: AddNode, Day: int32(i / 100), U: int32(i)})
	}
	src := &faultSource{events: events, failAt: -1}
	cur, err := Prefetch(src).Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := cur.Next(); err != nil || !ok {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if src.closed != 1 {
		t.Fatalf("inner cursor closed %d times, want 1", src.closed)
	}
}
