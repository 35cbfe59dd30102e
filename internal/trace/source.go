package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Cursor is one forward pass over a trace's events.
type Cursor interface {
	// Next returns the next event in trace order. ok=false signals a clean
	// end of the stream; a non-nil error means the pass failed (I/O error,
	// corrupt input) and the cursor is dead.
	Next() (Event, bool, error)
	// Close releases the pass's resources. It is safe to call after
	// exhaustion and must be called exactly once per cursor.
	Close() error
}

// Source is a re-openable stream of trace events — the data-plane
// abstraction every analysis layer consumes (see DESIGN.md §4). Open
// returns a fresh Cursor positioned at the first event; multi-pass
// consumers (the δ-sweep, RunBatch) call Open once per pass, and
// concurrent passes each own their cursor, so Open must be safe for
// concurrent use.
type Source interface {
	Open() (Cursor, error)
}

// MetaSource is a Source that knows its trace's Meta without a pass: a
// decoded file header, or a generated trace's summary. Pipeline drivers
// use it for capacity hints and the merge-day gate.
type MetaSource interface {
	Source
	Meta() Meta
}

// DaySeeker is a Source that can open a cursor positioned at the first
// event whose day is >= day without decoding the prefix — the
// day-addressable data plane that checkpoint resume and mid-trace reads
// are built on. Like Open, OpenAt must be safe for concurrent use.
type DaySeeker interface {
	OpenAt(day int32) (Cursor, error)
}

// OpenSourceAt opens a cursor positioned at the first event with
// Day >= day: through the source's own OpenAt when it is a DaySeeker
// (FileSource seeks via the trace file's day index, SliceSource binary-
// searches), and by decode-and-discard of the prefix otherwise. day <= 0
// is a plain Open.
func OpenSourceAt(src Source, day int32) (Cursor, error) {
	if ds, ok := src.(DaySeeker); ok && day > 0 {
		return ds.OpenAt(day)
	}
	return openSkipping(src, day)
}

// openSkipping opens src and discards every event before day, returning
// a cursor that yields the remainder (the boundary event is buffered).
func openSkipping(src Source, day int32) (Cursor, error) {
	cur, err := src.Open()
	if err != nil || day <= 0 {
		return cur, err
	}
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			cur.Close()
			return nil, err
		}
		if !ok {
			return cur, nil
		}
		if ev.Day >= day {
			return &pendingCursor{Cursor: cur, pending: ev, has: true}, nil
		}
	}
}

// EventsThrough returns how many events in the source have Day <= day,
// for sources that can answer without a replay pass: a day-indexed
// FileSource, sealed tails included (index lookup), or an in-memory slice
// (binary search). ok=false means the source cannot say cheaply. The checkpoint plane
// uses it as a consistency probe: a restored state must account for
// exactly this many events, or the trace is not the one the checkpoint
// was written against (e.g. regenerated with the same seed but different
// generator knobs).
func EventsThrough(src Source, day int32) (int64, bool) {
	switch s := src.(type) {
	case *FileSource:
		if s.index == nil {
			return 0, false
		}
		i := sort.Search(len(s.index), func(i int) bool { return s.index[i].Day > day })
		if i == len(s.index) {
			return int64(s.events), true
		}
		return int64(s.index[i].Event), true
	case SliceSource:
		return int64(sort.Search(len(s), func(i int) bool { return s[i].Day > day })), true
	case TraceSource:
		return EventsThrough(SliceSource(s.Trace.Events), day)
	}
	return 0, false
}

// pendingCursor replays one buffered event before resuming its inner
// cursor.
type pendingCursor struct {
	Cursor
	pending Event
	has     bool
}

func (c *pendingCursor) Next() (Event, bool, error) {
	if c.has {
		c.has = false
		return c.pending, true, nil
	}
	return c.Cursor.Next()
}

// SliceSource adapts an in-memory event slice to Source. It is the
// trivial data plane: Open costs nothing and cursors share the slice.
type SliceSource []Event

// Open implements Source.
func (s SliceSource) Open() (Cursor, error) { return &sliceCursor{events: s}, nil }

// OpenAt implements DaySeeker by binary search over the day-ordered
// events.
func (s SliceSource) OpenAt(day int32) (Cursor, error) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Day >= day })
	return &sliceCursor{events: s, i: i}, nil
}

type sliceCursor struct {
	events []Event
	i      int
}

func (c *sliceCursor) Next() (Event, bool, error) {
	if c.i >= len(c.events) {
		return Event{}, false, nil
	}
	ev := c.events[c.i]
	c.i++
	return ev, true, nil
}

func (c *sliceCursor) Close() error { return nil }

// TraceSource adapts a full in-memory Trace to a MetaSource.
type TraceSource struct{ Trace *Trace }

// Open implements Source.
func (s TraceSource) Open() (Cursor, error) { return SliceSource(s.Trace.Events).Open() }

// OpenAt implements DaySeeker.
func (s TraceSource) OpenAt(day int32) (Cursor, error) {
	return SliceSource(s.Trace.Events).OpenAt(day)
}

// Meta implements MetaSource.
func (s TraceSource) Meta() Meta { return s.Trace.Meta }

// Source returns the trace as a re-openable MetaSource.
func (tr *Trace) Source() MetaSource { return TraceSource{Trace: tr} }

// FileSource replays a trace file straight off disk, in either container
// format: every Open decodes the stream incrementally through a Decoder,
// so a pass holds O(1) memory regardless of event count — the out-of-core
// data plane. Cursors decode exactly the events the source was opened
// with, so a writer appending days in place (or atomically replacing the
// file with a prefix-stable extension) never changes what an open pass
// reads; a FileSource is therefore its own Frozen view.
//
// The two containers differ only in how the raw event stream is reached
// (see stream): a flat file is read in place, an RRS1 file inflates its
// frames as a cursor crosses them. Both address events in raw-stream
// coordinates (DESIGN.md §10), so when the file carries a day index
// OpenAt seeks straight to a day's first event; index-less files (the
// one-shot Encode's output, an RRS1 file with its footer stripped) fall
// back to decode-and-discard.
type FileSource struct {
	Path   string // "" when backend- or memory-backed
	meta   Meta
	events uint64          // events every Open decodes
	start  int64           // raw-stream offset of the first event
	index  []DayIndexEntry // raw-stream offsets; nil when the file has no (valid) index
	stream stream
}

// TraceFile is what a trace file on disk offers regardless of container
// format: the full data plane (Source, Meta, day-addressable OpenAt)
// plus a Frozen view for snapshot publication.
type TraceFile interface {
	MetaSource
	DaySeeker
	Frozen() MetaSource
}

// OpenTrace opens a trace file of either container format — "RRT1" flat
// or "RRS1" segmented, told apart by the header magic — validating its
// header and reading its day index, not its events. Only finalized RRS1
// files open (ErrNotFinalized otherwise). This is the open every consumer
// that accepts user-supplied paths should use.
func OpenTrace(path string) (TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s, err := openContainer(f, fi.Size(), fileSegBlob{path: path})
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	s.Path = path
	return s, nil
}

// openContainer builds the source for a finalized container of size
// bytes from its header and trailer, read off ra. The events are read
// later, through blob: an RRS1 file's frames from any blob, a flat file
// only from a local file.
func openContainer(ra io.ReaderAt, size int64, blob segBlob) (*FileSource, error) {
	c, err := readContainer(ra, size)
	if err != nil {
		return nil, err
	}
	s := &FileSource{meta: c.meta, events: c.count, start: c.start, index: c.index}
	if n := len(s.index); n > 0 && s.index[n-1].Event >= s.events {
		s.index = nil
	}
	if !c.seg {
		fb, ok := blob.(fileSegBlob)
		if !ok {
			return nil, errors.New("trace: flat traces open from a local file only")
		}
		s.stream = flatStream{path: fb.path}
		return s, nil
	}
	if !c.finalized {
		return nil, fmt.Errorf("%w: count slot not back-patched (writer in progress or crashed before Close)", ErrNotFinalized)
	}
	segs := c.segs
	if c.footOff < 0 {
		// Footer missing or damaged: rebuild the segment table from the
		// frame headers. The day index is gone, which costs seek
		// acceleration, never correctness.
		if segs, err = scanSegFrames(ra, size); err != nil {
			return nil, err
		}
	}
	var total uint64
	for _, e := range segs {
		if e.fileEnd() > size {
			return nil, fmt.Errorf("%w: segment table overruns the file", ErrSegmentCorrupt)
		}
		total += e.events
	}
	if total != c.count {
		return nil, fmt.Errorf("%w: frames hold %d events, header promises %d", ErrNotFinalized, total, c.count)
	}
	ss := &segStream{blob: blob, segs: segs}
	if fb, ok := blob.(fileSegBlob); ok {
		// Path plus size plus event count: stable across re-opens of the
		// same finalized container, distinct the moment the file grows or
		// is rewritten in place (live-ingest tails), so stale frames are
		// never served — they just age out of the LRU under a dead key.
		ss.cacheID = fmt.Sprintf("file:%s|%d|%d", fb.path, size, c.count)
	}
	s.stream = ss
	return s, nil
}

// container is what a trace file's header and trailer declare, read
// without touching a single event.
type container struct {
	seg       bool // RRS1; false for a flat file
	meta      Meta
	count     uint64          // the header's event count; 0 while unfinalized
	finalized bool            // the count slot is back-patched (always, for a decodable flat header)
	start     int64           // raw-stream offset of the first event
	footOff   int64           // file offset of a structurally valid footer; -1 when absent or damaged
	segs      []segEntry      // RRS1: the footer's segment table
	index     []DayIndexEntry // the footer's day index, raw-stream offsets
}

// readContainer reads the header and trailer of a size-byte container.
// A flat header comes in two layouts (the one-shot Encode's variable-width
// one too), so the stream decoder reads it; an RRS1 header is always the
// fixed layout, whose poisoned count slot reads as unfinalized rather
// than as an error.
func readContainer(ra io.ReaderAt, size int64) (container, error) {
	c := container{footOff: -1}
	cr := &countingReader{r: io.NewSectionReader(ra, 0, size)}
	br := bufio.NewReader(cr)
	if mag, _ := br.Peek(len(segMagic)); len(mag) == len(segMagic) && [4]byte(mag) == segMagic {
		hdr, _ := br.Peek(fixedHeaderLen)
		var err error
		if c.meta, c.count, c.finalized, err = parseFixedHeader(hdr, segMagic); err != nil {
			return c, err
		}
		c.seg = true
	} else {
		dec, err := NewDecoder(br)
		if err != nil {
			return c, err
		}
		c.meta, c.count, c.finalized = dec.Meta(), dec.Events(), true
		c.start = cr.n - int64(br.Buffered())
	}
	c.segs, c.index, c.footOff = readTrailer(ra, size, c.seg)
	return c, nil
}

// readTrailer locates a container's footer through the fixed trailer at
// the end of its size bytes and parses it: an RRS1 footer into its
// segment table and day index, a flat one into its day index. footOff is
// where the footer starts — the end of the event stream or of the last
// frame. Any failure (no trailer, a short file, a checksum mismatch, an
// index pointing past the stream) reads as absent, footOff -1: an index
// is an accelerator and a frame scan rebuilds a segment table, so a
// footer is never a correctness requirement.
func readTrailer(ra io.ReaderAt, size int64, seg bool) (segs []segEntry, idx []DayIndexEntry, footOff int64) {
	var trailer [indexTrailerLen]byte
	if size < int64(fixedHeaderLen)+indexTrailerLen {
		return nil, nil, -1
	}
	if _, err := ra.ReadAt(trailer[:], size-indexTrailerLen); err != nil || [4]byte(trailer[8:]) != indexEndMagic {
		return nil, nil, -1
	}
	n := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if n <= 0 || n > size-indexTrailerLen-int64(fixedHeaderLen) || n > maxIndexFooterBytes {
		return nil, nil, -1
	}
	footOff = size - indexTrailerLen - n
	buf := make([]byte, n)
	if _, err := ra.ReadAt(buf, footOff); err != nil {
		return nil, nil, -1
	}
	var err error
	if seg {
		segs, idx, err = parseSegFooter(buf)
	} else if idx, err = parseDayIndex(buf); err == nil && len(idx) > 0 && idx[len(idx)-1].Offset >= footOff {
		err = errors.New("trace: index beyond stream")
	}
	if err != nil {
		return nil, nil, -1
	}
	return segs, idx, footOff
}

// maxIndexFooterBytes bounds how large a footer readTrailer will load.
const maxIndexFooterBytes = 1 << 28

// Meta implements MetaSource with the header's metadata (for a sealed
// tail, the sealed prefix's).
func (s *FileSource) Meta() Meta { return s.meta }

// Events returns how many events every pass decodes.
func (s *FileSource) Events() uint64 { return s.events }

// Index returns the file's day index, nil when absent. Offsets are
// raw-stream offsets. The slice is shared and must not be modified.
func (s *FileSource) Index() []DayIndexEntry { return s.index }

// Frozen implements TraceFile: cursors are already count-bounded, so the
// source is its own frozen view.
func (s *FileSource) Frozen() MetaSource { return s }

// SegStats summarizes an RRS1 container for observability surfaces
// (rranalyze -info, the /statz storage section).
type SegStats struct {
	// Segments is the number of compressed frames.
	Segments int
	// RawBytes is the uncompressed event-stream size the frames decode
	// to (the flat format's event-stream size, headers excluded).
	RawBytes int64
	// CompressedBytes is the total compressed payload size.
	CompressedBytes int64
	// Events is the event count.
	Events uint64
	// Indexed reports whether the day index is present.
	Indexed bool
}

// Stats reports the container's compression accounting; ok is false for
// a flat file, which has none.
func (s *FileSource) Stats() (st SegStats, ok bool) {
	ss, ok := s.stream.(*segStream)
	if !ok {
		return st, false
	}
	st = SegStats{Segments: len(ss.segs), Events: s.events, Indexed: s.index != nil}
	for _, e := range ss.segs {
		st.RawBytes += e.rawLen
		st.CompressedBytes += e.compLen
	}
	return st, true
}

// Open implements Source: each pass opens its own handle and decoder, so
// concurrent passes (the δ-sweep fan-out) never share position state.
func (s *FileSource) Open() (Cursor, error) { return s.openFrom(s.start, 0, 0) }

// OpenAt implements DaySeeker. With a day index the cursor starts at the
// first event of the requested day and decodes nothing before it — an
// RRS1 cursor does not even read the frames before it; without one it
// decodes and discards the prefix.
func (s *FileSource) OpenAt(day int32) (Cursor, error) {
	if day <= 0 || s.index == nil {
		return openSkipping(s, day)
	}
	i := sort.Search(len(s.index), func(i int) bool { return s.index[i].Day >= day })
	if i == len(s.index) {
		// Past the last day with events: a cursor with nothing left.
		return s.openFrom(s.start, s.events, 0)
	}
	e := s.index[i]
	return s.openFrom(e.Offset, e.Event, e.PrevDay)
}

// openFrom opens a cursor at an event boundary: raw-stream offset off,
// with skipped events before it and day watermark prevDay in force.
func (s *FileSource) openFrom(off int64, skipped uint64, prevDay int32) (Cursor, error) {
	r, err := s.stream.open(off)
	if err != nil {
		return nil, err
	}
	return &fileCursor{r: r, dec: resumeDecoder(bufio.NewReader(r), s.meta, s.events-skipped, prevDay)}, nil
}

// stream is the one seam where the containers differ on the read path:
// it opens a reader over the raw event stream at a raw-stream offset. In
// a flat file the raw stream is the file itself; in an RRS1 file it is
// the frames' inflated payloads, concatenated.
type stream interface {
	open(off int64) (streamReader, error)
}

// streamReader is one pass's reader over the raw event stream.
type streamReader interface {
	io.ReadCloser
	// bytesRead reports how many bytes the pass has read off the file
	// (compressed bytes, for RRS1) — the observable that the OpenAt tests
	// hold prefix-skipping accountable with.
	bytesRead() int64
}

// flatStream reads a flat file in place: raw-stream offsets are file
// offsets.
type flatStream struct{ path string }

func (s flatStream) open(off int64) (streamReader, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &flatReader{countingReader: countingReader{r: f}, f: f}, nil
}

// flatReader is a flat pass's file handle.
type flatReader struct {
	countingReader
	f *os.File
}

func (r *flatReader) Close() error { return r.f.Close() }

func (r *flatReader) bytesRead() int64 { return r.n }

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type fileCursor struct {
	r   streamReader
	dec *Decoder
}

func (c *fileCursor) Next() (Event, bool, error) { return c.dec.Next() }

func (c *fileCursor) Close() error { return c.r.Close() }

// bytesRead reports how many bytes this cursor has read off the file.
func (c *fileCursor) bytesRead() int64 { return c.r.bytesRead() }
