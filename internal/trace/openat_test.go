package trace

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// drainCursor reads every remaining event off a cursor.
func drainCursor(t *testing.T, cur Cursor) []Event {
	t.Helper()
	var out []Event
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// suffixFrom returns the events with Day >= day.
func suffixFrom(events []Event, day int32) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Day >= day {
			out = append(out, ev)
		}
	}
	return out
}

func sameEvents(t *testing.T, label string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestFileSourceOpenAt asserts the day-addressable data plane on an
// indexed trace file: OpenAt(day) yields exactly the events from that day
// on, and — the acceptance criterion — it does so without decoding the
// prefix, held by bytes-read accounting against the file size.
func TestFileSourceOpenAt(t *testing.T) {
	tr := synthTrace(400)
	path := filepath.Join(t.TempDir(), "idx.trace")
	encodeToFile(t, tr, path)
	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Index() == nil {
		t.Fatal("Encoder-written file has no day index")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	lastDay := tr.Events[len(tr.Events)-1].Day
	for _, day := range []int32{0, 1, lastDay / 2, lastDay, lastDay + 5} {
		cur, err := fs.OpenAt(day)
		if err != nil {
			t.Fatal(err)
		}
		got := drainCursor(t, cur)
		want := suffixFrom(tr.Events, day)
		sameEvents(t, "OpenAt", got, want)
		read := cur.(*fileCursor).bytesRead()
		cur.Close()
		// The cursor may only read the tail segment (plus bufio slack);
		// a prefix decode would read nearly the whole file. Late opens
		// must therefore read a small fraction of it.
		if day >= lastDay && read > fi.Size()/4 {
			t.Errorf("OpenAt(%d) read %d of %d bytes; prefix was decoded", day, read, fi.Size())
		}
	}

	// Every index entry must point at a decodable event boundary.
	for _, e := range fs.Index() {
		cur, err := fs.OpenAt(e.Day)
		if err != nil {
			t.Fatal(err)
		}
		ev, ok, err := cur.Next()
		cur.Close()
		if err != nil || !ok || ev.Day != e.Day {
			t.Fatalf("index day %d: first event %+v ok=%v err=%v", e.Day, ev, ok, err)
		}
	}
}

// TestOpenAtIndexless covers the tolerated-if-absent contract: a file
// written by the one-shot Encode has no index footer, still decodes, and
// OpenAt falls back to decode-and-discard with identical results.
func TestOpenAtIndexless(t *testing.T) {
	tr := synthTrace(120)
	path := filepath.Join(t.TempDir(), "old.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Encode(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Index() != nil {
		t.Fatal("index-less file grew an index")
	}
	cur, err := fs.Open()
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, "full", drainCursor(t, cur), tr.Events)
	cur.Close()

	day := tr.Events[len(tr.Events)-1].Day / 2
	cur, err = fs.OpenAt(day)
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, "fallback", drainCursor(t, cur), suffixFrom(tr.Events, day))
	cur.Close()
}

// TestCorruptIndexReadsAsAbsent pins the footer's integrity contract: a
// damaged index must read as *absent* (falling back to prefix decode),
// never as a wrong seek target — OpenAt trusts an entry's event ordinal,
// so silent corruption would truncate a replay instead of failing it.
func TestCorruptIndexReadsAsAbsent(t *testing.T) {
	tr := synthTrace(200)
	path := filepath.Join(t.TempDir(), "c.trace")
	encodeToFile(t, tr, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint64(raw[len(raw)-indexTrailerLen : len(raw)-indexTrailerLen+8]))
	footerStart := len(raw) - indexTrailerLen - footerLen
	day := tr.Events[len(tr.Events)-1].Day / 2
	// Flip one byte at every position inside the footer block: each
	// corruption must be rejected by the checksum (or the structural
	// checks), and OpenAt must still serve the exact suffix via the
	// fallback path.
	for off := footerStart; off < footerStart+footerLen; off += 7 {
		mut := append([]byte{}, raw...)
		mut[off] ^= 0x41
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := openFileSource(path)
		if err != nil {
			t.Fatalf("offset %d: corrupt index broke open: %v", off, err)
		}
		if fs.Index() != nil {
			t.Fatalf("offset %d: corrupt index accepted", off)
		}
		cur, err := fs.OpenAt(day)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		sameEvents(t, "corrupt-index fallback", drainCursor(t, cur), suffixFrom(tr.Events, day))
		cur.Close()
	}
}

// TestEventsThrough covers the checkpoint plane's consistency probe.
func TestEventsThrough(t *testing.T) {
	tr := synthTrace(120)
	path := filepath.Join(t.TempDir(), "n.trace")
	encodeToFile(t, tr, path)
	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	lastDay := tr.Events[len(tr.Events)-1].Day
	for _, day := range []int32{0, 1, lastDay / 2, lastDay, lastDay + 9} {
		var want int64
		for _, ev := range tr.Events {
			if ev.Day <= day {
				want++
			}
		}
		for _, src := range []Source{fs, SliceSource(tr.Events), tr.Source()} {
			got, ok := EventsThrough(src, day)
			if !ok || got != want {
				t.Fatalf("EventsThrough(%T, %d) = %d,%v, want %d", src, day, got, ok, want)
			}
		}
	}
	if _, ok := EventsThrough(onlySource{SliceSource(tr.Events)}, 3); ok {
		t.Fatal("opaque source claimed a cheap event count")
	}
}

// TestSliceSourceOpenAt covers the in-memory DaySeeker.
func TestSliceSourceOpenAt(t *testing.T) {
	tr := synthTrace(60)
	src := SliceSource(tr.Events)
	for _, day := range []int32{0, 3, 10_000} {
		cur, err := OpenSourceAt(src, day)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, "slice", drainCursor(t, cur), suffixFrom(tr.Events, day))
		cur.Close()
	}
}

// onlySource hides every optional interface of a Source, forcing
// OpenSourceAt onto its generic skip path.
type onlySource struct{ src Source }

func (s onlySource) Open() (Cursor, error) { return s.src.Open() }

// TestOpenSourceAtFallback covers the generic decode-and-discard path for
// sources that are not DaySeekers.
func TestOpenSourceAtFallback(t *testing.T) {
	tr := synthTrace(60)
	day := tr.Events[len(tr.Events)-1].Day / 2
	cur, err := OpenSourceAt(onlySource{SliceSource(tr.Events)}, day)
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, "generic", drainCursor(t, cur), suffixFrom(tr.Events, day))
	cur.Close()
}

// TestReplayFromDay asserts the segmented-replay contract the checkpoint
// plane relies on: replaying [0, D] into a state and then resuming the
// same source from D+1 fires exactly the day boundaries and events of a
// single whole-trace replay.
func TestReplayFromDay(t *testing.T) {
	tr := synthTrace(200)
	src := SliceSource(tr.Events)
	type mark struct {
		day   int32
		event bool
	}
	record := func(marks *[]mark) Hooks {
		return Hooks{
			OnEvent:  func(_ *State, ev Event) { *marks = append(*marks, mark{ev.Day, true}) },
			OnDayEnd: func(_ *State, day int32) { *marks = append(*marks, mark{day, false}) },
		}
	}

	var whole []mark
	full, err := ReplaySource(src, record(&whole))
	if err != nil {
		t.Fatal(err)
	}

	lastDay := tr.Events[len(tr.Events)-1].Day
	for _, split := range []int32{0, 1, lastDay / 3, lastDay - 1, lastDay} {
		var seg []mark
		st := NewState(16, 16)
		// First segment: replay events with Day <= split, then fire the
		// boundary for split itself, exactly as a checkpointing engine
		// pass does before saving.
		k := NewSinkContext(nil, st, record(&seg))
		for _, ev := range tr.Events {
			if ev.Day > split {
				break
			}
			if err := k.Push(ev); err != nil {
				t.Fatal(err)
			}
		}
		for k.day <= split {
			if k.hooks.OnDayEnd != nil {
				k.hooks.OnDayEnd(k.st, k.day)
			}
			k.day++
		}
		// Second segment: resume from split+1.
		if err := ReplaySourceIntoFromContext(nil, st, src, record(&seg), split+1); err != nil {
			t.Fatal(err)
		}
		if len(seg) != len(whole) {
			t.Fatalf("split %d: %d marks, want %d", split, len(seg), len(whole))
		}
		for i := range seg {
			if seg[i] != whole[i] {
				t.Fatalf("split %d: mark %d = %+v, want %+v", split, i, seg[i], whole[i])
			}
		}
		if st.Day != full.Day || st.Graph.NumNodes() != full.Graph.NumNodes() || st.Graph.NumEdges() != full.Graph.NumEdges() {
			t.Fatalf("split %d: state diverged", split)
		}
	}
}
