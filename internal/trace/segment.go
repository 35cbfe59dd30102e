package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/storage"
)

// Segmented (compressed) trace format, magic "RRS1":
//
//	fixed header — identical layout to the flat streaming Encoder's
//	(magic, uvarint(encMetaPad), space-padded meta slot, padded-uvarint
//	count), so the same back-patch-on-Close discipline applies and a
//	crashed writer's file fails loudly instead of passing as empty.
//
//	then a run of frames, each:
//	  magic "RRSG" (4 bytes)
//	  uint32 LE compressed length, raw length, event count
//	  uint32 LE first day, last day, previous-day watermark
//	  uint32 LE CRC-32 (IEEE) of the compressed payload
//	  compressed payload: the frame's events in the columnar transposed
//	  layout (transposeFrame), flate-compressed. The *raw* form of a
//	  frame is still the exact appendEvent byte stream the flat format
//	  uses, with the day-delta watermark running *continuously across
//	  frames* — concatenating every frame's decoded raw bytes yields
//	  precisely the flat file's event stream, and all offsets in the
//	  frame header, footer and day index are raw-stream coordinates.
//
//	footer, magic "RRX2" (see appendSegFooter), then the same fixed
//	trailer the flat day-index footer uses (uint64 LE footer length +
//	"RRXE"), so one trailer-discovery routine serves both formats.
//
// Frames are cut at day boundaries once ~1 MiB of raw bytes is pending
// (or mid-day at a hard cap / on Flush), so a day-addressable read
// decompresses only the frames its days live in: the footer's segment
// table plus the embedded day index map a day to (segment, raw offset)
// without touching the prefix. Compression is stdlib flate at BestSpeed
// over the transposed columns: the container must not grow a dependency
// (DESIGN.md §10), and flate alone on the row-interleaved stream tops
// out near 68% of flat — grouping like fields into runs (kinds, day
// deltas, delta-coded ids) is what gets the container under the ≤60%
// acceptance bar while keeping decode cheap.
//
// Each completed frame is written with a single Write call, so a tail
// prober watching the file observes only whole frames (or a torn tail it
// can wait out) — that is what lets TailProbe seal days out of a live
// compressed writer without ever seeing a half-compressed block.

var (
	segMagic       = [4]byte{'R', 'R', 'S', '1'}
	segFrameMagic  = [4]byte{'R', 'R', 'S', 'G'}
	segFooterMagic = [4]byte{'R', 'R', 'X', '2'}
)

const (
	segFooterVersion = 1
	// segFrameHdrLen is the fixed frame header: magic + 7 uint32 fields.
	segFrameHdrLen = 4 + 7*4
	// segTargetRaw is the raw-byte threshold past which the encoder cuts
	// the pending frame at the next day boundary.
	segTargetRaw = 1 << 20
	// segMaxRaw force-cuts a frame mid-day, bounding encoder memory and
	// frame size when a single day exceeds the target many times over.
	segMaxRaw = 8 << 20
	// maxSegFrameLen bounds the lengths a frame or footer entry may
	// declare before any allocation trusts them.
	maxSegFrameLen = 1 << 30
)

var (
	// ErrSegmentCorrupt is returned when a segment frame fails its
	// checksum or its payload contradicts the frame header. The wrapped
	// message carries the segment ordinal and file byte offset.
	ErrSegmentCorrupt = errors.New("trace: segment corrupt")
	// ErrNotFinalized is returned when opening a segmented trace whose
	// writer never reached Close (poisoned count slot, or frames beyond
	// what the header accounts for).
	ErrNotFinalized = errors.New("trace: segmented trace is not finalized")
)

// segEntry is one frame's position in both address spaces: the file
// (where its compressed bytes live) and the raw event stream (what it
// decompresses to). The raw coordinates are what the day index points
// into.
type segEntry struct {
	fileOff    int64 // file offset of the frame header
	compLen    int64
	rawLen     int64
	rawStart   int64  // raw-stream offset of the frame's first byte
	events     uint64 // events encoded in this frame
	firstEvent uint64 // ordinal of the frame's first event
	firstDay   int32
	lastDay    int32
	prevDay    int32 // day-delta watermark before the frame's first event
}

func (s segEntry) fileEnd() int64 { return s.fileOff + segFrameHdrLen + s.compLen }
func (s segEntry) rawEnd() int64  { return s.rawStart + s.rawLen }

// SegEncoder is the segmented counterpart of Encoder: the same
// incremental Write/Flush/Close surface, producing the compressed
// container. The header is written lazily on the first frame so
// SetSeed/SetMergeDay calls made before any event (the generator's
// pattern) are visible to a concurrent TailProbe from the start.
type SegEncoder struct {
	ws      io.WriteSeeker
	meta    Meta
	count   uint64
	prevDay int32
	closed  bool
	started bool // header written

	raw             []byte // pending uncompressed frame
	rawStart        int64  // raw-stream offset of raw[0]
	frameFirstEvent uint64
	frameFirstDay   int32
	framePrevDay    int32

	fileOff int64 // file offset where the next frame goes
	segs    []segEntry
	index   []DayIndexEntry // Offset fields are raw-stream offsets
	comp    *flate.Writer
	compBuf bytes.Buffer
	scratch []byte
}

// NewSegEncoder returns a segmented-trace sink writing to ws. Like
// NewEncoder, the header's count slot stays poisoned until Close, and
// closing the underlying file is the caller's job.
func NewSegEncoder(ws io.WriteSeeker) (*SegEncoder, error) {
	cw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	e := &SegEncoder{ws: ws, comp: cw}
	e.meta.MergeDay = -1
	return e, nil
}

// SetSeed records the generator seed in the header meta.
func (e *SegEncoder) SetSeed(seed int64) { e.meta.Seed = seed }

// SetMergeDay records the merge day in the header meta (-1 for none).
func (e *SegEncoder) SetMergeDay(day int32) { e.meta.MergeDay = day }

// Meta returns the counters accumulated so far.
func (e *SegEncoder) Meta() Meta { return e.meta }

// Events returns how many events have been written.
func (e *SegEncoder) Events() uint64 { return e.count }

// ensureHeader writes the poisoned fixed header once, before the first
// frame (or the footer of an event-free trace).
func (e *SegEncoder) ensureHeader() error {
	if e.started {
		return nil
	}
	hdr, err := renderFixedHeader(segMagic, e.meta, 0, true)
	if err != nil {
		return err
	}
	if _, err := e.ws.Write(hdr); err != nil {
		return err
	}
	e.started = true
	e.fileOff = int64(len(hdr))
	return nil
}

// Write appends one event; events must arrive in non-decreasing day
// order, exactly as for the flat Encoder.
func (e *SegEncoder) Write(ev Event) error {
	if e.closed {
		return errors.New("trace: encoder is closed")
	}
	scratch, err := appendEvent(e.scratch[:0], ev, e.prevDay)
	if err != nil {
		return fmt.Errorf("trace: event %d: %w", e.count, err)
	}
	e.scratch = scratch
	if e.count == 0 || ev.Day > e.prevDay {
		// Day boundary: preferred frame cut point, and a day-index entry
		// (in raw-stream coordinates) either way.
		if int64(len(e.raw)) >= segTargetRaw {
			if err := e.cutFrame(); err != nil {
				return err
			}
		}
		e.index = append(e.index, DayIndexEntry{
			Day: ev.Day, Offset: e.rawStart + int64(len(e.raw)), Event: e.count, PrevDay: e.prevDay,
		})
	}
	if len(e.raw) == 0 {
		e.frameFirstEvent = e.count
		e.framePrevDay = e.prevDay
		e.frameFirstDay = ev.Day
	}
	e.raw = append(e.raw, scratch...)
	e.prevDay = ev.Day
	e.meta.Accumulate(ev)
	e.count++
	if int64(len(e.raw)) >= segMaxRaw {
		return e.cutFrame()
	}
	return nil
}

// transposeFrame re-encodes one frame's raw appendEvent byte run into
// the columnar layout that gets flate-compressed: a uvarint event
// count, then the per-event fields grouped into column runs —
//
//	kind bytes           (count bytes)
//	day-delta uvarints   (one per event, same values as the raw stream)
//	AddNode ids          (signed varint delta from the previous AddNode id)
//	origin bytes         (one per AddNode)
//	AddEdge U endpoints  (signed varint delta from the previous U)
//	AddEdge V endpoints  (uvarints, same encoding as the raw stream)
//
// Grouping like fields is what makes flate earn its keep: the kind and
// day columns collapse into near-constant runs and sequentially
// assigned node ids into runs of tiny deltas. The transform is exactly
// invertible because appendEvent is the canonical encoder —
// untransposeFrame re-renders the input byte-for-byte.
func transposeFrame(raw []byte) ([]byte, error) {
	var (
		count                uint64
		kinds, days, origins []byte
		ids, us, vs          []byte
		prevID, prevU        int64
	)
	b := raw
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	for len(b) > 0 {
		kind := b[0]
		b = b[1:]
		d, ok := uv()
		if !ok {
			return nil, ErrTruncated
		}
		switch Kind(kind) {
		case AddNode:
			id, ok := uv()
			if !ok || len(b) == 0 {
				return nil, ErrTruncated
			}
			ids = binary.AppendVarint(ids, int64(id)-prevID)
			prevID = int64(id)
			origins = append(origins, b[0])
			b = b[1:]
		case AddEdge:
			u, ok := uv()
			if !ok {
				return nil, ErrTruncated
			}
			v, ok := uv()
			if !ok {
				return nil, ErrTruncated
			}
			us = binary.AppendVarint(us, int64(u)-prevU)
			prevU = int64(u)
			vs = binary.AppendUvarint(vs, v)
		default:
			return nil, ErrBadKind
		}
		kinds = append(kinds, kind)
		days = binary.AppendUvarint(days, d)
		count++
	}
	out := make([]byte, 0, binary.MaxVarintLen64+len(kinds)+len(days)+len(ids)+len(origins)+len(us)+len(vs))
	out = binary.AppendUvarint(out, count)
	out = append(out, kinds...)
	out = append(out, days...)
	out = append(out, ids...)
	out = append(out, origins...)
	out = append(out, us...)
	out = append(out, vs...)
	return out, nil
}

// untransposeFrame inverts transposeFrame, re-rendering the exact raw
// appendEvent byte run via the canonical encoder. prevDay is the day
// watermark in force before the frame's first event; rawLen and events
// are the frame header's promises, and any malformed column, count
// mismatch, out-of-range value, or reconstructed length other than
// rawLen is an error the callers wrap as ErrSegmentCorrupt.
func untransposeFrame(tp []byte, prevDay int32, rawLen int64, events uint64) ([]byte, error) {
	b := tp
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, ErrTruncated
	}
	b = b[n:]
	if count != events {
		return nil, fmt.Errorf("column event count %d contradicts frame header %d", count, events)
	}
	if count > uint64(len(b)) {
		return nil, ErrTruncated
	}
	kinds := b[:count]
	b = b[count:]
	var nodes, edges int
	for _, k := range kinds {
		switch Kind(k) {
		case AddNode:
			nodes++
		case AddEdge:
			edges++
		default:
			return nil, ErrBadKind
		}
	}
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, ErrTruncated
		}
		b = b[n:]
		return v, nil
	}
	sv := func(prev int64) (int64, error) {
		d, n := binary.Varint(b)
		if n <= 0 {
			return 0, ErrTruncated
		}
		b = b[n:]
		v := prev + d
		if v < 0 || v > math.MaxInt32 {
			return 0, ErrIDOverflow
		}
		return v, nil
	}
	days := make([]uint64, count)
	for i := range days {
		d, err := uv()
		if err != nil {
			return nil, err
		}
		days[i] = d
	}
	ids := make([]int32, nodes)
	var prev int64
	for i := range ids {
		v, err := sv(prev)
		if err != nil {
			return nil, err
		}
		ids[i], prev = int32(v), v
	}
	if len(b) < nodes {
		return nil, ErrTruncated
	}
	origins := b[:nodes]
	b = b[nodes:]
	us := make([]int32, edges)
	prev = 0
	for i := range us {
		v, err := sv(prev)
		if err != nil {
			return nil, err
		}
		us[i], prev = int32(v), v
	}
	vs := make([]int32, edges)
	for i := range vs {
		v, err := uv()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, ErrIDOverflow
		}
		vs[i] = int32(v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after columns", len(b))
	}
	out := make([]byte, 0, rawLen)
	day := prevDay
	var ni, ei int
	for i, k := range kinds {
		d := days[i]
		if d > math.MaxInt32 || int64(day)+int64(d) > math.MaxInt32 {
			return nil, ErrDayOverflow
		}
		ev := Event{Kind: Kind(k), Day: day + int32(d)}
		switch ev.Kind {
		case AddNode:
			ev.U = ids[ni]
			ev.Origin = Origin(origins[ni])
			ni++
		case AddEdge:
			ev.U, ev.V = us[ei], vs[ei]
			ei++
		}
		var err error
		out, err = appendEvent(out, ev, day)
		if err != nil {
			return nil, err
		}
		day = ev.Day
	}
	if int64(len(out)) != rawLen {
		return nil, fmt.Errorf("columns decode to %d raw bytes, frame promises %d", len(out), rawLen)
	}
	return out, nil
}

// inflateFrame decompresses and un-transposes one checksum-verified
// frame payload into its raw appendEvent byte run. Errors carry no
// position; the callers wrap them with the segment ordinal and offset.
func inflateFrame(payload []byte, seg segEntry) ([]byte, error) {
	// A frame's transposed form is at most ~10 bytes per event larger
	// than its raw form (a signed varint can outgrow the unsigned byte
	// it replaces), so cap the inflate: a corrupt or hostile payload
	// that blows past the bound is rejected before untransposeFrame
	// sizes any allocation off it.
	limit := seg.rawLen + 10*int64(seg.events) + 16
	fr := flate.NewReader(bytes.NewReader(payload))
	defer fr.Close()
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(fr, limit+1))
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("transposed payload exceeds %d-byte plausibility bound", limit)
	}
	return untransposeFrame(buf.Bytes(), seg.prevDay, seg.rawLen, seg.events)
}

// cutFrame compresses and writes the pending raw bytes as one frame.
// The frame (header plus payload) goes down in a single Write so a
// concurrent tail prober never observes half a frame header.
func (e *SegEncoder) cutFrame() error {
	if len(e.raw) == 0 {
		return nil
	}
	if err := e.ensureHeader(); err != nil {
		return err
	}
	tp, err := transposeFrame(e.raw)
	if err != nil {
		// Unreachable in practice: e.raw is appendEvent's own output.
		return fmt.Errorf("trace: transposing frame: %w", err)
	}
	e.compBuf.Reset()
	e.compBuf.Grow(segFrameHdrLen + len(e.raw)/2)
	e.compBuf.Write(make([]byte, segFrameHdrLen)) // header slot, patched below
	e.comp.Reset(&e.compBuf)
	if _, err := e.comp.Write(tp); err != nil {
		return err
	}
	if err := e.comp.Close(); err != nil {
		return err
	}
	frame := e.compBuf.Bytes()
	payload := frame[segFrameHdrLen:]
	seg := segEntry{
		fileOff:    e.fileOff,
		compLen:    int64(len(payload)),
		rawLen:     int64(len(e.raw)),
		rawStart:   e.rawStart,
		events:     e.count - e.frameFirstEvent,
		firstEvent: e.frameFirstEvent,
		firstDay:   e.frameFirstDay,
		lastDay:    e.prevDay,
		prevDay:    e.framePrevDay,
	}
	copy(frame[:4], segFrameMagic[:])
	binary.LittleEndian.PutUint32(frame[4:], uint32(seg.compLen))
	binary.LittleEndian.PutUint32(frame[8:], uint32(seg.rawLen))
	binary.LittleEndian.PutUint32(frame[12:], uint32(seg.events))
	binary.LittleEndian.PutUint32(frame[16:], uint32(seg.firstDay))
	binary.LittleEndian.PutUint32(frame[20:], uint32(seg.lastDay))
	binary.LittleEndian.PutUint32(frame[24:], uint32(seg.prevDay))
	binary.LittleEndian.PutUint32(frame[28:], crc32.ChecksumIEEE(payload))
	if _, err := e.ws.Write(frame); err != nil {
		return err
	}
	e.segs = append(e.segs, seg)
	e.fileOff += int64(len(frame))
	e.rawStart += int64(len(e.raw))
	e.raw = e.raw[:0]
	return nil
}

// Flush seals the pending events into a frame (mid-day if necessary) and
// writes it, making them visible to tail probers — the segmented
// equivalent of the flat Encoder's day-boundary Flush.
func (e *SegEncoder) Flush() error {
	if e.closed {
		return errors.New("trace: encoder is closed")
	}
	return e.cutFrame()
}

// Close writes the last frame, appends the footer (segment table plus
// embedded day index), and back-patches the header with the final meta
// and count.
func (e *SegEncoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if err := e.cutFrame(); err != nil {
		return err
	}
	if err := e.ensureHeader(); err != nil {
		return err
	}
	footer := appendSegFooter(nil, e.segs, e.index)
	var trailer [indexTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(footer)))
	copy(trailer[8:], indexEndMagic[:])
	footer = append(footer, trailer[:]...)
	if _, err := e.ws.Write(footer); err != nil {
		return err
	}
	if _, err := e.ws.Seek(0, io.SeekStart); err != nil {
		return err
	}
	hdr, err := renderFixedHeader(segMagic, e.meta, e.count, false)
	if err != nil {
		return err
	}
	if _, err := e.ws.Write(hdr); err != nil {
		return err
	}
	_, err = e.ws.Seek(0, io.SeekEnd)
	return err
}

// Segment footer layout (magic through CRC; the caller appends the
// shared fixed trailer):
//
//	magic "RRX2"
//	uvarint footer version (1)
//	uvarint segment count
//	per segment: uvarint compressed length, raw length, event count,
//	             first day, last day, previous-day watermark
//	  (file offsets, raw offsets and first-event ordinals are not stored;
//	   they are cumulative sums a parser re-derives)
//	uvarint day-index length, then an RRX1 day-index block (appendDayIndex)
//	  whose entry Offsets are raw-stream offsets
//	uint32 LE CRC-32 (IEEE) of everything above
func appendSegFooter(dst []byte, segs []segEntry, idx []DayIndexEntry) []byte {
	start := len(dst)
	dst = append(dst, segFooterMagic[:]...)
	dst = binary.AppendUvarint(dst, segFooterVersion)
	dst = binary.AppendUvarint(dst, uint64(len(segs)))
	for _, s := range segs {
		dst = binary.AppendUvarint(dst, uint64(s.compLen))
		dst = binary.AppendUvarint(dst, uint64(s.rawLen))
		dst = binary.AppendUvarint(dst, s.events)
		dst = binary.AppendUvarint(dst, uint64(s.firstDay))
		dst = binary.AppendUvarint(dst, uint64(s.lastDay))
		dst = binary.AppendUvarint(dst, uint64(s.prevDay))
	}
	idxBytes := appendDayIndex(nil, idx)
	dst = binary.AppendUvarint(dst, uint64(len(idxBytes)))
	dst = append(dst, idxBytes...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, crc[:]...)
}

// parseSegFooter decodes an appendSegFooter rendering. Like the flat day
// index, any structural or checksum problem means the footer reads as
// absent — the frames are self-describing and a scan rebuilds the table.
func parseSegFooter(b []byte) ([]segEntry, []DayIndexEntry, error) {
	if len(b) < len(segFooterMagic)+4 || [4]byte(b[:4]) != segFooterMagic {
		return nil, nil, errors.New("trace: bad segment footer magic")
	}
	crc := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[:len(b)-4]) != crc {
		return nil, nil, errors.New("trace: segment footer checksum mismatch")
	}
	b = b[4 : len(b)-4]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, errors.New("trace: truncated segment footer")
		}
		b = b[n:]
		return v, nil
	}
	ver, err := next()
	if err != nil {
		return nil, nil, err
	}
	if ver != segFooterVersion {
		return nil, nil, fmt.Errorf("trace: segment footer version %d", ver)
	}
	count, err := next()
	if err != nil {
		return nil, nil, err
	}
	if count > maxIndexEntries {
		return nil, nil, fmt.Errorf("trace: footer declares %d segments", count)
	}
	segs := make([]segEntry, 0, min(count, 1<<16))
	fileOff, rawStart, firstEvent := int64(fixedHeaderLen), int64(0), uint64(0)
	prevLast := int32(0)
	for i := uint64(0); i < count; i++ {
		var vs [6]uint64
		for j := range vs {
			if vs[j], err = next(); err != nil {
				return nil, nil, err
			}
		}
		s := segEntry{
			fileOff:    fileOff,
			compLen:    int64(vs[0]),
			rawLen:     int64(vs[1]),
			rawStart:   rawStart,
			events:     vs[2],
			firstEvent: firstEvent,
			firstDay:   int32(vs[3]),
			lastDay:    int32(vs[4]),
			prevDay:    int32(vs[5]),
		}
		if vs[2] > vs[1] || max(vs[3], vs[4], vs[5]) > math.MaxInt32 || !s.plausible(prevLast) {
			return nil, nil, errors.New("trace: segment footer entry out of range")
		}
		prevLast = s.lastDay
		segs = append(segs, s)
		fileOff = s.fileEnd()
		rawStart = s.rawEnd()
		firstEvent += s.events
	}
	idxLen, err := next()
	if err != nil {
		return nil, nil, err
	}
	if idxLen > uint64(len(b)) {
		return nil, nil, errors.New("trace: truncated segment footer index")
	}
	var idx []DayIndexEntry
	if idxLen > 0 {
		if idx, err = parseDayIndex(b[:idxLen]); err != nil {
			return nil, nil, err
		}
	}
	if len(idx) > 0 {
		last := idx[len(idx)-1]
		if last.Event >= firstEvent || last.Offset >= rawStart {
			return nil, nil, errors.New("trace: segment footer index beyond stream")
		}
	}
	return segs, idx, nil
}

// segBlob abstracts where a segmented trace's bytes live: a local file,
// a storage backend object, or an in-memory buffer (tests, fuzzing).
type segBlob interface {
	open() (*segHandle, error)
	size() (int64, error)
}

// segHandle is one reader over a blob. It counts the bytes actually
// fetched — the observable that holds prefix-skipping accountable, the
// segmented analogue of countingReader.
type segHandle struct {
	ra io.ReaderAt
	c  io.Closer
	n  int64
}

func (h *segHandle) readAt(p []byte, off int64) error {
	n, err := h.ra.ReadAt(p, off)
	h.n += int64(n)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (h *segHandle) Close() error {
	if h.c != nil {
		return h.c.Close()
	}
	return nil
}

type fileSegBlob struct{ path string }

func (b fileSegBlob) open() (*segHandle, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	return &segHandle{ra: f, c: f}, nil
}

func (b fileSegBlob) size() (int64, error) {
	fi, err := os.Stat(b.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

type bytesSegBlob struct{ data []byte }

func (b bytesSegBlob) open() (*segHandle, error) {
	return &segHandle{ra: bytes.NewReader(b.data)}, nil
}

func (b bytesSegBlob) size() (int64, error) { return int64(len(b.data)), nil }

// backendSegBlob serves a segmented trace out of a storage backend: each
// frame is one ranged read, so replaying a day range from an object
// store fetches only that range's segments.
type backendSegBlob struct {
	b    storage.Backend
	name string
}

func (b backendSegBlob) open() (*segHandle, error) {
	return &segHandle{ra: backendReaderAt{b: b.b, name: b.name}}, nil
}

func (b backendSegBlob) size() (int64, error) {
	infos, err := b.b.List(b.name)
	if err != nil {
		return 0, err
	}
	for _, info := range infos {
		if info.Name == b.name {
			return info.Size, nil
		}
	}
	return 0, fmt.Errorf("trace: %s: %w", b.name, storage.ErrNotExist)
}

type backendReaderAt struct {
	b    storage.Backend
	name string
}

func (r backendReaderAt) ReadAt(p []byte, off int64) (int, error) {
	rc, err := r.b.OpenRange(r.name, off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	n, err := io.ReadFull(rc, p)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = io.EOF
	}
	return n, err
}

// OpenSegBackend opens a segmented trace stored as an object in a
// storage backend. Cursors fetch one ranged read per frame, so a replay
// from day D touches only the bytes of the segments holding days >= D.
// Backend frames bypass the inflated-frame cache.
func OpenSegBackend(b storage.Backend, name string) (*FileSource, error) {
	return openSegBlob(backendSegBlob{b: b, name: name}, name)
}

// openSegBytes opens a segmented trace held in memory (tests, fuzzing).
func openSegBytes(data []byte) (*FileSource, error) {
	return openSegBlob(bytesSegBlob{data: data}, "segmented bytes")
}

func openSegBlob(blob segBlob, label string) (*FileSource, error) {
	size, err := blob.size()
	if err != nil {
		return nil, err
	}
	h, err := blob.open()
	if err != nil {
		return nil, err
	}
	defer h.Close()
	s, err := openContainer(h.ra, size, blob)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", label, err)
	}
	return s, nil
}

// parseFrameHeader decodes the frame header in hdr as the frame at file
// offset off, returning its entry (the raw-stream fields are the
// caller's to place) and payload CRC. ok=false means hdr is not a frame
// header: the footer, or garbage.
func parseFrameHeader(hdr []byte, off int64) (s segEntry, crc uint32, ok bool) {
	if [4]byte(hdr[:4]) != segFrameMagic {
		return s, 0, false
	}
	le := binary.LittleEndian
	return segEntry{
		fileOff:  off,
		compLen:  int64(le.Uint32(hdr[4:])),
		rawLen:   int64(le.Uint32(hdr[8:])),
		events:   uint64(le.Uint32(hdr[12:])),
		firstDay: int32(le.Uint32(hdr[16:])),
		lastDay:  int32(le.Uint32(hdr[20:])),
		prevDay:  int32(le.Uint32(hdr[24:])),
	}, le.Uint32(hdr[28:]), true
}

// plausible reports whether a frame header can follow a frame whose last
// day was prevLast (0 before the first frame).
func (s segEntry) plausible(prevLast int32) bool {
	return s.compLen > 0 && s.compLen <= maxSegFrameLen && s.rawLen > 0 && s.rawLen <= maxSegFrameLen &&
		s.events > 0 && int64(s.events) <= s.rawLen &&
		s.prevDay == prevLast && s.firstDay >= s.prevDay && s.lastDay >= s.firstDay
}

// scanSegFrames rebuilds the segment table by walking the frame headers
// (32 bytes per ~1 MiB frame — payloads are not read; a cursor's CRC
// check still guards them). The walk stops at the first thing that is
// not a frame header: the footer, a torn tail, or garbage. The caller's
// event-count cross-check decides whether what was found is the whole
// stream.
func scanSegFrames(ra io.ReaderAt, size int64) ([]segEntry, error) {
	var segs []segEntry
	off, prev := int64(fixedHeaderLen), segEntry{}
	for off+segFrameHdrLen <= size {
		var hdr [segFrameHdrLen]byte
		if _, err := ra.ReadAt(hdr[:], off); err != nil {
			return nil, err
		}
		s, _, ok := parseFrameHeader(hdr[:], off)
		if !ok || !s.plausible(prev.lastDay) || s.fileEnd() > size {
			break
		}
		s.rawStart, s.firstEvent = prev.rawEnd(), prev.firstEvent+prev.events
		segs = append(segs, s)
		off, prev = s.fileEnd(), s
	}
	return segs, nil
}

// segStream reads an RRS1 file's frames as one raw event stream.
type segStream struct {
	blob    segBlob
	segs    []segEntry
	cacheID string // frame-cache identity; "" = uncached
}

// open maps a raw-stream offset to the frame holding it and discards the
// frame's bytes before it; the frames before it are never read.
func (s *segStream) open(off int64) (streamReader, error) {
	k := sort.Search(len(s.segs), func(k int) bool { return s.segs[k].rawEnd() > off })
	if k == len(s.segs) && off > 0 {
		return nil, fmt.Errorf("%w: day index points past the segment table", ErrSegmentCorrupt)
	}
	h, err := s.blob.open()
	if err != nil {
		return nil, err
	}
	sr := &segStreamReader{h: h, segs: s.segs, next: k, cacheID: s.cacheID}
	if k < len(s.segs) && off > s.segs[k].rawStart {
		if _, err := io.CopyN(io.Discard, sr, off-s.segs[k].rawStart); err != nil {
			h.Close()
			return nil, err
		}
	}
	return sr, nil
}

// segStreamReader presents a run of frames as one contiguous raw event
// stream: each frame is fetched whole, checksum-verified, inflated and
// un-transposed, then served from memory. Corruption surfaces as
// ErrSegmentCorrupt pinned to the segment ordinal and file byte offset.
type segStreamReader struct {
	h       *segHandle
	segs    []segEntry
	next    int    // next frame to load
	cacheID string // frame-cache identity; "" = uncached

	raw   *bytes.Reader // current frame's raw bytes, nil between frames
	frame []byte        // scratch: current frame's compressed payload
}

func (r *segStreamReader) Read(p []byte) (int, error) {
	for {
		if r.raw != nil {
			n, err := r.raw.Read(p)
			if err == io.EOF {
				r.raw = nil
				if n > 0 {
					return n, nil
				}
				continue
			}
			if n > 0 || err != nil {
				return n, err
			}
			continue
		}
		if r.next >= len(r.segs) {
			return 0, io.EOF
		}
		if err := r.loadFrame(); err != nil {
			return 0, err
		}
	}
}

// loadFrame fetches frame r.next whole, verifies its header against the
// segment table and its payload against the stored CRC, and decodes its
// raw bytes.
func (r *segStreamReader) loadFrame() error {
	seg := r.segs[r.next]
	key := frameCacheKey{blob: r.cacheID, off: seg.fileOff}
	if raw, ok := segFrameCache.get(key); ok {
		// Cache hit: the frame was fetched, CRC-verified, and inflated
		// by an earlier cursor; serve the shared read-only bytes without
		// touching the blob at all.
		r.raw = bytes.NewReader(raw)
		r.next++
		return nil
	}
	need := segFrameHdrLen + int(seg.compLen)
	if cap(r.frame) < need {
		r.frame = make([]byte, need)
	}
	r.frame = r.frame[:need]
	if err := r.h.readAt(r.frame, seg.fileOff); err != nil {
		return fmt.Errorf("%w: segment %d at byte %d: %v", ErrSegmentCorrupt, r.next, seg.fileOff, err)
	}
	got, crc, ok := parseFrameHeader(r.frame, seg.fileOff)
	if !ok || got.compLen != seg.compLen || got.rawLen != seg.rawLen {
		return fmt.Errorf("%w: segment %d at byte %d: frame header contradicts segment table", ErrSegmentCorrupt, r.next, seg.fileOff)
	}
	payload := r.frame[segFrameHdrLen:]
	if crc32.ChecksumIEEE(payload) != crc {
		return fmt.Errorf("%w: segment %d at byte %d: checksum mismatch", ErrSegmentCorrupt, r.next, seg.fileOff)
	}
	raw, err := inflateFrame(payload, seg)
	if err != nil {
		return fmt.Errorf("%w: segment %d at byte %d: %v", ErrSegmentCorrupt, r.next, seg.fileOff, err)
	}
	segFrameCache.countMiss(seg.rawLen)
	segFrameCache.put(key, raw)
	r.raw = bytes.NewReader(raw)
	r.next++
	return nil
}

func (r *segStreamReader) Close() error { return r.h.Close() }

// bytesRead reports the compressed bytes fetched off the blob, so
// prefix-skip accounting observes that skipped segments are not even
// read.
func (r *segStreamReader) bytesRead() int64 { return r.h.n }
