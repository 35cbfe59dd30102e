package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// synthTrace builds a Validate()-clean trace of n nodes with a ring of
// edges, spread over one event-day per 8 events, for source/codec tests.
func synthTrace(n int) *Trace {
	events := make([]Event, 0, 2*n)
	day := int32(0)
	for i := 0; i < n; i++ {
		events = append(events, Event{Kind: AddNode, Day: day, U: int32(i), Origin: Origin(i % 3)})
		if i > 0 {
			events = append(events, Event{Kind: AddEdge, Day: day, U: int32(i - 1), V: int32(i)})
		}
		if i%4 == 3 {
			day++
		}
	}
	tr := &Trace{Events: events}
	tr.Meta = Summarize(events)
	tr.Meta.Seed = 99
	return tr
}

// encodeToFile streams a trace through the incremental Encoder.
func encodeToFile(t *testing.T, tr *Trace, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)
	enc.SetMergeDay(tr.Meta.MergeDay)
	for _, ev := range tr.Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// openFileSource opens a trace file of either format as its concrete
// source.
func openFileSource(path string) (*FileSource, error) {
	tf, err := OpenTrace(path)
	if err != nil {
		return nil, err
	}
	return tf.(*FileSource), nil
}

// segsOf returns an RRS1 source's segment table.
func segsOf(s *FileSource) []segEntry { return s.stream.(*segStream).segs }

// drain collects every event of one pass.
func drain(t *testing.T, src Source) []Event {
	t.Helper()
	cur, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
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

// TestSliceFileCursorEquivalence is the data-plane equivalence guarantee
// at the cursor level: a SliceSource over the in-memory events and a
// FileSource over the Encoder's stream yield the same events, and the
// FileSource is re-openable — a second pass sees the same stream.
func TestSliceFileCursorEquivalence(t *testing.T) {
	tr := synthTrace(257)
	tr.Meta.MergeDay = 11
	path := filepath.Join(t.TempDir(), "synth.trace")
	encodeToFile(t, tr, path)

	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Meta() != tr.Meta {
		t.Fatalf("file meta %+v != slice meta %+v", fs.Meta(), tr.Meta)
	}

	want := drain(t, SliceSource(tr.Events))
	if len(want) != len(tr.Events) {
		t.Fatalf("slice cursor yielded %d events, want %d", len(want), len(tr.Events))
	}
	for pass := 0; pass < 2; pass++ { // re-open semantics: every pass is full
		got := drain(t, fs)
		if len(got) != len(want) {
			t.Fatalf("pass %d: file cursor yielded %d events, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pass %d event %d: file %+v != slice %+v", pass, i, got[i], want[i])
			}
		}
	}

	// Replay equivalence through the generic source path.
	stSlice, err := ReplaySource(tr.Source(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	stFile, err := ReplaySource(fs, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if stSlice.Graph.NumNodes() != stFile.Graph.NumNodes() || stSlice.Graph.NumEdges() != stFile.Graph.NumEdges() {
		t.Fatalf("replayed states differ: %d/%d nodes, %d/%d edges",
			stSlice.Graph.NumNodes(), stFile.Graph.NumNodes(),
			stSlice.Graph.NumEdges(), stFile.Graph.NumEdges())
	}
}

// TestEncoderMatchesEncode: the incremental Encoder and the one-shot
// Encode produce streams that decode to the same trace.
func TestEncoderMatchesEncode(t *testing.T) {
	tr := synthTrace(64)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	fromEncode, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "enc.trace")
	encodeToFile(t, tr, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromEncoder, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	if fromEncode.Meta != fromEncoder.Meta {
		t.Fatalf("meta: %+v vs %+v", fromEncode.Meta, fromEncoder.Meta)
	}
	if len(fromEncode.Events) != len(fromEncoder.Events) {
		t.Fatalf("events: %d vs %d", len(fromEncode.Events), len(fromEncoder.Events))
	}
	for i := range fromEncode.Events {
		if fromEncode.Events[i] != fromEncoder.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, fromEncode.Events[i], fromEncoder.Events[i])
		}
	}
}

func TestEncoderMetaAccumulates(t *testing.T) {
	tr := synthTrace(32)
	path := filepath.Join(t.TempDir(), "meta.trace")
	encodeToFile(t, tr, path)
	fs, err := openFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.Meta(); got != tr.Meta {
		t.Fatalf("encoder-accumulated meta %+v != Summarize %+v", got, tr.Meta)
	}
}

func TestEncoderRejectsDayRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Kind: AddNode, Day: 5, U: 0}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Kind: AddNode, Day: 4, U: 1}); err == nil {
		t.Fatal("day regression not rejected")
	}
}

// TestEncoderUnclosedFileIsInvalid: a file whose Encoder never reached
// Close (writer crashed mid-stream) must not decode as a valid trace —
// the placeholder header's count slot is deliberately poisoned until the
// back-patch.
func TestEncoderUnclosedFileIsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range synthTrace(16).Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash. The events may or may not have been
	// flushed; either way the header must reject the file.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := openFileSource(path); err == nil {
		t.Fatal("unclosed encoder file opened as a valid trace")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("unclosed encoder file decoded as a valid trace")
	}
}

func TestFileSourceTruncated(t *testing.T) {
	tr := synthTrace(64)
	path := filepath.Join(t.TempDir(), "trunc.trace")
	encodeToFile(t, tr, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file ends with the day-index footer; find its length from the
	// trailer so the cut lands inside the event stream, not the index.
	footer := int(int64(len(raw)) - indexTrailerLen -
		int64(binary.LittleEndian.Uint64(raw[len(raw)-indexTrailerLen:])))
	cut := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(cut, raw[:footer-7], 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := openFileSource(cut) // header is intact
	if err != nil {
		t.Fatal(err)
	}
	if fs.Index() != nil {
		t.Fatal("truncated file kept a day index")
	}
	cur, err := fs.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for {
		_, ok, err := cur.Next()
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("err = %v, want ErrTruncated", err)
			}
			return
		}
		if !ok {
			t.Fatal("truncated stream drained cleanly")
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	// Each case hand-assembles a stream around a valid header.
	header := func(metaLen uint64) []byte {
		b := append([]byte{}, magic[:]...)
		var tmp [10]byte
		n := putUvarint(tmp[:], metaLen)
		return append(b, tmp[:n]...)
	}
	body := func(parts ...[]byte) []byte {
		out := header(2)
		out = append(out, '{', '}')
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	uv := func(x uint64) []byte {
		var tmp [10]byte
		n := putUvarint(tmp[:], x)
		return tmp[:n:n]
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"meta too large", header(maxMetaLen + 1), ErrMetaTooLarge},
		{"count too large", body(uv(maxEventCount + 1)), ErrCountTooLarge},
		{"bad kind", body(uv(1), []byte{7}, uv(0)), ErrBadKind},
		{"day overflow", body(uv(1), []byte{byte(AddNode)}, uv(uint64(1)<<32), uv(0), []byte{0}), ErrDayOverflow},
		{"id overflow", body(uv(1), []byte{byte(AddNode)}, uv(0), uv(uint64(1)<<40), []byte{0}), ErrIDOverflow},
		{"truncated event", body(uv(3), []byte{byte(AddNode)}, uv(0), uv(0), []byte{0}), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// putUvarint is a test-local canonical uvarint writer.
func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}
