package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// encodeSegToFile streams a trace through the SegEncoder into a file.
// flushEveryDay forces a frame cut at each day boundary, producing a
// multi-frame file from a small trace.
func encodeSegToFile(t *testing.T, tr *Trace, path string, flushEveryDay bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := NewSegEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)
	enc.SetMergeDay(tr.Meta.MergeDay)
	prev := int32(-1)
	for _, ev := range tr.Events {
		if flushEveryDay && prev >= 0 && ev.Day > prev {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
		prev = ev.Day
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// encodeSegBytes renders a trace as an in-memory segmented container.
func encodeSegBytes(t testing.TB, tr *Trace, flushEveryDay bool) []byte {
	t.Helper()
	var ws seekBuffer
	enc, err := NewSegEncoder(&ws)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)
	enc.SetMergeDay(tr.Meta.MergeDay)
	prev := int32(-1)
	for _, ev := range tr.Events {
		if flushEveryDay && prev >= 0 && ev.Day > prev {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
		prev = ev.Day
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return ws.buf
}

// TestSegRoundtripMatchesFlat is the tentpole's correctness bar at the
// event level: the segmented container must yield exactly the events and
// meta the flat container does.
func TestSegRoundtripMatchesFlat(t *testing.T) {
	tr := synthTrace(513)
	tr.Meta.MergeDay = 17
	dir := t.TempDir()
	flatPath := filepath.Join(dir, "flat.trace")
	segPath := filepath.Join(dir, "seg.trace")
	encodeToFile(t, tr, flatPath)
	encodeSegToFile(t, tr, segPath, true)

	flat, err := openFileSource(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := openFileSource(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Meta() != flat.Meta() {
		t.Fatalf("meta: seg %+v, flat %+v", seg.Meta(), flat.Meta())
	}
	if seg.Events() != uint64(len(tr.Events)) {
		t.Fatalf("Events() = %d, want %d", seg.Events(), len(tr.Events))
	}
	fe, se := drain(t, flat), drain(t, seg)
	if len(fe) != len(se) {
		t.Fatalf("event count: seg %d, flat %d", len(se), len(fe))
	}
	for i := range fe {
		if fe[i] != se[i] {
			t.Fatalf("event %d: seg %+v, flat %+v", i, se[i], fe[i])
		}
	}
	st, ok := seg.Stats()
	if !ok {
		t.Fatal("segmented source reports no segment stats")
	}
	if st.Segments < 2 {
		t.Fatalf("expected a multi-frame file, got %d segments", st.Segments)
	}
	if !st.Indexed || st.RawBytes == 0 || st.CompressedBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A second pass sees the same stream (Source contract).
	if se2 := drain(t, seg); len(se2) != len(se) {
		t.Fatalf("second pass: %d events, want %d", len(se2), len(se))
	}
}

// TestSegOpenAt verifies day addressing: the cursor yields exactly the
// events with Day >= day, and — the point of segmentation — the prefix
// segments are never even read, which the cursor's fetched-byte count
// observes.
func TestSegOpenAt(t *testing.T) {
	tr := synthTrace(513)
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, tr, path, true)
	s, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := full.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	fullBytes := full.(*fileCursor).bytesRead()
	full.Close()

	lastDay := tr.Meta.Days - 1
	for _, day := range []int32{0, 1, lastDay / 2, lastDay, lastDay + 1} {
		cur, err := s.OpenAt(day)
		if err != nil {
			t.Fatalf("OpenAt(%d): %v", day, err)
		}
		var got []Event
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				t.Fatalf("OpenAt(%d): %v", day, err)
			}
			if !ok {
				break
			}
			got = append(got, ev)
		}
		var want []Event
		for _, ev := range tr.Events {
			if ev.Day >= day {
				want = append(want, ev)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("OpenAt(%d): %d events, want %d", day, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("OpenAt(%d) event %d: %+v, want %+v", day, i, got[i], want[i])
			}
		}
		if sc, ok := cur.(*fileCursor); ok && day >= lastDay/2 && day <= lastDay {
			if n := sc.bytesRead(); n >= fullBytes {
				t.Fatalf("OpenAt(%d) fetched %d bytes, full pass fetched %d: prefix segments were read", day, n, fullBytes)
			}
		}
		cur.Close()
	}
}

// TestSegOpenAtMidFrameDay: a day straddling a frame boundary (Flush
// mid-day) must still seek correctly — the day index points into the
// middle of a frame and the reader discards within it.
func TestSegOpenAtMidFrameDay(t *testing.T) {
	var events []Event
	for i := 0; i < 64; i++ {
		events = append(events, Event{Kind: AddNode, Day: int32(i / 16), U: int32(i), Origin: OriginXiaonei})
	}
	tr := &Trace{Events: events}
	tr.Meta = Summarize(events)

	var ws seekBuffer
	enc, err := NewSegEncoder(&ws)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 { // cut frames mid-day
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := openSegBytes(ws.buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsOf(s)) < 4 {
		t.Fatalf("expected several frames, got %d", len(segsOf(s)))
	}
	for day := int32(0); day <= 4; day++ {
		cur, err := s.OpenAt(day)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, ev)
		}
		cur.Close()
		want := 0
		for _, ev := range events {
			if ev.Day >= day {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("OpenAt(%d): %d events, want %d", day, len(got), want)
		}
	}
}

// TestSegCorruptionTypedError: a flipped payload byte must surface as
// ErrSegmentCorrupt naming the exact segment and file offset, and the
// prefix before the damage must still replay.
func TestSegCorruptionTypedError(t *testing.T) {
	tr := synthTrace(257)
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, tr, path, true)
	s, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsOf(s)) < 3 {
		t.Fatalf("need >= 3 frames, got %d", len(segsOf(s)))
	}
	victim := segsOf(s)[2]

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[victim.fileOff+segFrameHdrLen+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := openFileSource(path) // header+footer untouched: opens
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var n uint64
	for {
		_, ok, err := cur.Next()
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("error = %v, want ErrSegmentCorrupt", err)
			}
			want := fmt.Sprintf("segment 2 at byte %d", victim.fileOff)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not pin %q", err, want)
			}
			break
		}
		if !ok {
			t.Fatal("corrupt frame decoded cleanly")
		}
		n++
	}
	// Everything before the damaged segment decoded.
	if n < victim.firstEvent {
		t.Fatalf("only %d events before failure, want at least %d", n, victim.firstEvent)
	}
	// Day-addressed reads that skip the damaged segment still work.
	lastSeg := segsOf(s2)[len(segsOf(s2))-1]
	cur2, err := s2.OpenAt(lastSeg.firstDay)
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	if _, ok, err := cur2.Next(); err != nil || !ok {
		t.Fatalf("post-damage OpenAt: ok=%v err=%v", ok, err)
	}
}

// TestSegFooterStrippedRebuild: with the footer gone (crash after the
// last frame, before Close's footer write — then a header restored by
// hand, or a future partial-recovery tool), the frame scan rebuilds the
// segment table; the day index is absent, so OpenAt degrades to
// decode-and-discard and EventsThrough says "cannot answer", exactly
// like a flat file with a damaged index.
func TestSegFooterStrippedRebuild(t *testing.T) {
	tr := synthTrace(129)
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, tr, path, true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the footer via the trailer and strip both.
	footLen := int64(uint64(data[len(data)-12]) | uint64(data[len(data)-11])<<8 | uint64(data[len(data)-10])<<16 | uint64(data[len(data)-9])<<24)
	stripped := data[:int64(len(data))-indexTrailerLen-footLen]
	if err := os.WriteFile(path, stripped, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := openFileSource(path)
	if err != nil {
		t.Fatalf("footer-less open: %v", err)
	}
	if s.Index() != nil {
		t.Fatal("index should be absent after footer loss")
	}
	if _, ok := EventsThrough(s, 3); ok {
		t.Fatal("EventsThrough should not answer without an index")
	}
	got := drain(t, s)
	if len(got) != len(tr.Events) {
		t.Fatalf("drained %d events, want %d", len(got), len(tr.Events))
	}
	cur, err := s.OpenAt(5)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ev, ok, err := cur.Next()
	if err != nil || !ok || ev.Day < 5 {
		t.Fatalf("fallback OpenAt(5) = %+v ok=%v err=%v", ev, ok, err)
	}
}

// TestSegNotFinalized: a file whose writer flushed frames but never
// closed must be rejected loudly with the typed error.
func TestSegNotFinalized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewSegEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range synthTrace(65).Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close() // no enc.Close: simulated crash
	if _, err := openFileSource(path); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("open = %v, want ErrNotFinalized", err)
	}
}

// TestSegEmptyTrace: zero events still produce a well-formed container.
func TestSegEmptyTrace(t *testing.T) {
	blob := encodeSegBytes(t, &Trace{Meta: Meta{MergeDay: -1}}, false)
	s, err := openSegBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events() != 0 || len(drain(t, s)) != 0 {
		t.Fatalf("empty container decoded %d events", s.Events())
	}
}

// TestSegBackend routes the same container through a storage backend:
// every read is a ranged Get, and day addressing works identically.
func TestSegBackend(t *testing.T) {
	tr := synthTrace(257)
	blob := encodeSegBytes(t, tr, true)
	b := storage.NewDirBackend(t.TempDir())
	if err := b.Put("traces/synth.seg", blob); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegBackend(b, "traces/synth.seg")
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s)
	if len(got) != len(tr.Events) {
		t.Fatalf("backend drain: %d events, want %d", len(got), len(tr.Events))
	}
	cur, err := s.OpenAt(7)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ev, ok, err := cur.Next()
	if err != nil || !ok || ev.Day < 7 {
		t.Fatalf("backend OpenAt(7) = %+v ok=%v err=%v", ev, ok, err)
	}
	if _, err := OpenSegBackend(b, "traces/missing.seg"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("missing object open = %v, want ErrNotExist", err)
	}
}

// TestOpenTraceSniffs: one open for both container formats.
func TestOpenTraceSniffs(t *testing.T) {
	tr := synthTrace(65)
	dir := t.TempDir()
	flatPath := filepath.Join(dir, "flat.trace")
	segPath := filepath.Join(dir, "seg.trace")
	encodeToFile(t, tr, flatPath)
	encodeSegToFile(t, tr, segPath, false)

	ff, err := OpenTrace(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	if fs, ok := ff.(*FileSource); !ok {
		t.Fatalf("flat OpenTrace = %T", ff)
	} else if _, seg := fs.Stats(); seg {
		t.Fatal("flat OpenTrace opened a segmented stream")
	}
	sf, err := OpenTrace(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if fs, ok := sf.(*FileSource); !ok {
		t.Fatalf("seg OpenTrace = %T", sf)
	} else if _, seg := fs.Stats(); !seg {
		t.Fatal("seg OpenTrace opened a flat stream")
	}
	if ff.Meta() != sf.Meta() {
		t.Fatalf("meta: flat %+v, seg %+v", ff.Meta(), sf.Meta())
	}
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrace(junk); err == nil {
		t.Fatal("junk opened")
	}
}

// TestSegAppendRejected: segmented containers are immutable; OpenAppend
// must refuse them with the typed error, not a confusing magic failure.
func TestSegAppendRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, synthTrace(33), path, false)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := OpenAppend(f); !errors.Is(err, ErrNotAppendable) {
		t.Fatalf("OpenAppend on segmented = %v, want ErrNotAppendable", err)
	}
}

// TestSegEventsThrough: the checkpoint plane's consistency probe must
// answer identically over both containers.
func TestSegEventsThrough(t *testing.T) {
	tr := synthTrace(257)
	blob := encodeSegBytes(t, tr, true)
	s, err := openSegBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	for day := int32(-1); day <= tr.Meta.Days+1; day++ {
		want, ok := EventsThrough(SliceSource(tr.Events), day)
		if !ok {
			t.Fatal("slice EventsThrough not ok")
		}
		got, ok := EventsThrough(s, day)
		if !ok {
			t.Fatalf("seg EventsThrough(%d) not ok", day)
		}
		if got != want {
			t.Fatalf("EventsThrough(%d) = %d, want %d", day, got, want)
		}
	}
}

// TestSegPrefetchWraps: the decode-ahead plane must treat the segmented
// source like any other file-backed source — decompression happens on
// the reader goroutine and the events come out identical.
func TestSegPrefetchWraps(t *testing.T) {
	tr := synthTrace(257)
	blob := encodeSegBytes(t, tr, true)
	s, err := openSegBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, Prefetch(s))
	if len(got) != len(tr.Events) {
		t.Fatalf("prefetch drain: %d events, want %d", len(got), len(tr.Events))
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], tr.Events[i])
		}
	}
}

// FuzzSegDecode hardens the segmented container against corrupt input:
// opening plus a full decode must never panic, hang, or over-allocate,
// and any stream it accepts must survive a re-encode round trip.
func FuzzSegDecode(f *testing.F) {
	f.Add(encodeSegBytes(f, &Trace{Meta: Meta{MergeDay: -1}}, false))
	f.Add(encodeSegBytes(f, synthTrace(41), false))
	f.Add(encodeSegBytes(f, synthTrace(129), true))
	// A footer-less (scan-rebuilt) container is valid input too.
	multi := encodeSegBytes(f, synthTrace(129), true)
	footLen := int64(uint64(multi[len(multi)-12]) | uint64(multi[len(multi)-11])<<8 | uint64(multi[len(multi)-10])<<16 | uint64(multi[len(multi)-9])<<24)
	f.Add(append([]byte{}, multi[:int64(len(multi))-indexTrailerLen-footLen]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := openSegBytes(data)
		if err != nil {
			return // rejected input is fine; panics and hangs are not
		}
		if s.Events() > 1<<18 {
			return // don't let a lying header make the fuzzer decode forever
		}
		cur, err := s.Open()
		if err != nil {
			return
		}
		defer cur.Close()
		var events []Event
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				return // corrupt payloads may fail mid-stream; that is the contract
			}
			if !ok {
				break
			}
			events = append(events, ev)
		}
		// Accepted streams round-trip.
		var ws seekBuffer
		enc, err := NewSegEncoder(&ws)
		if err != nil {
			t.Fatal(err)
		}
		meta := s.Meta()
		enc.SetSeed(meta.Seed)
		enc.SetMergeDay(meta.MergeDay)
		for i, ev := range events {
			if err := enc.Write(ev); err != nil {
				t.Fatalf("accepted event %d does not re-encode: %v", i, err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := openSegBytes(ws.buf)
		if err != nil {
			t.Fatalf("re-encoded container does not open: %v", err)
		}
		cur2, err := s2.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer cur2.Close()
		for i := 0; ; i++ {
			ev, ok, err := cur2.Next()
			if err != nil {
				t.Fatalf("re-encoded event %d: %v", i, err)
			}
			if !ok {
				if i != len(events) {
					t.Fatalf("re-encoded stream has %d events, want %d", i, len(events))
				}
				break
			}
			if ev != events[i] {
				t.Fatalf("event %d round trip: %+v -> %+v", i, events[i], ev)
			}
		}
	})
}
