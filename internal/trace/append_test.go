package trace

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// encodePrefixToFile streams events[:k] through the incremental Encoder
// with the given identity knobs and finalizes the file.
func encodePrefixToFile(t *testing.T, events []Event, seed int64, mergeDay int32, path string) {
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
	enc.SetSeed(seed)
	enc.SetMergeDay(mergeDay)
	for _, ev := range events {
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

// appendToFile reopens path for append and writes events through Close.
func appendToFile(t *testing.T, events []Event, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := OpenAppend(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
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

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenAppendByteIdentical pins the central append guarantee: encoding
// a prefix, finalizing, reopening with OpenAppend and writing the rest
// yields a file byte-identical to streaming the whole trace at once —
// regardless of whether the split falls on a day boundary or inside a
// day.
func TestOpenAppendByteIdentical(t *testing.T) {
	tr := synthTrace(400)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	encodeToFile(t, tr, full)
	want := readAll(t, full)

	// A split on a day boundary, two mid-day splits, and the extremes.
	boundary := 0
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Day != tr.Events[i-1].Day {
			boundary = i
		}
		if tr.Events[i].Day > 50 {
			break
		}
	}
	splits := []int{1, 123, boundary, len(tr.Events) - 1}
	for _, k := range splits {
		path := filepath.Join(dir, "split.trace")
		encodePrefixToFile(t, tr.Events[:k], tr.Meta.Seed, tr.Meta.MergeDay, path)
		appendToFile(t, tr.Events[k:], path)
		if got := readAll(t, path); !equalBytes(got, want) {
			t.Fatalf("split at %d: appended file differs from one-shot stream (%d vs %d bytes)", k, len(got), len(want))
		}
	}
}

func equalBytes(a, b []byte) bool {
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

// TestOpenAppendWithoutFooter exercises the index-rebuild path: the
// footer is stripped (and trailing garbage planted), yet OpenAppend
// still locates the stream's end, truncates the junk, and the extended
// file comes out byte-identical.
func TestOpenAppendWithoutFooter(t *testing.T) {
	tr := synthTrace(400)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	encodeToFile(t, tr, full)
	want := readAll(t, full)

	k := 301
	path := filepath.Join(dir, "nofoot.trace")
	encodePrefixToFile(t, tr.Events[:k], tr.Meta.Seed, tr.Meta.MergeDay, path)

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	_, _, footOff := readTrailer(f, fi.Size(), false)
	if footOff < 0 {
		t.Fatal("prefix file has no footer")
	}
	if err := f.Truncate(footOff); err != nil {
		t.Fatal(err)
	}
	// Trailing garbage past the declared events, as a crashed writer
	// might leave.
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe}, footOff); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	appendToFile(t, tr.Events[k:], path)
	if got := readAll(t, path); !equalBytes(got, want) {
		t.Fatalf("footerless append differs from one-shot stream (%d vs %d bytes)", len(got), len(want))
	}
}

// TestOpenAppendRefusals: one-shot Encode output (variable-width header)
// and a writer that never reached Close (poisoned count) are both
// rejected with ErrNotAppendable, untouched.
func TestOpenAppendRefusals(t *testing.T) {
	tr := synthTrace(40)
	dir := t.TempDir()

	oneShot := filepath.Join(dir, "oneshot.trace")
	f, err := os.Create(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if err := Encode(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	unclosed := filepath.Join(dir, "unclosed.trace")
	g, err := os.Create(unclosed)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil { // no enc.Close: header stays poisoned
		t.Fatal(err)
	}

	for _, path := range []string{oneShot, unclosed} {
		before := readAll(t, path)
		h, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, aerr := OpenAppend(h)
		h.Close()
		if !errors.Is(aerr, ErrNotAppendable) {
			t.Fatalf("%s: OpenAppend err = %v, want ErrNotAppendable", filepath.Base(path), aerr)
		}
		if after := readAll(t, path); !equalBytes(before, after) {
			t.Fatalf("%s: refused OpenAppend modified the file", filepath.Base(path))
		}
	}
}
