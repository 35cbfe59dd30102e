package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// TailProbe incrementally tracks a trace file that a writer may still be
// appending to (see DESIGN.md §9). Each Probe call re-examines the file
// and returns a TailSnapshot describing the *sealed prefix* — the events
// of every day that is provably complete — which is the only part of a
// growing trace an analysis may consume.
//
// The sealing rule: day D is sealed once an event of a later day has been
// observed (events are written in non-decreasing day order, so a day-D+1
// event proves day D gained its last event), or once the file is
// finalized (a valid index footer plus a back-patched header count mean
// the writer's Close ran and every day is complete). The trailing,
// still-growing day is therefore never sealed until the writer moves past
// it — that is what makes figures computed from a snapshot reproducible
// against a from-zero run over the eventually-finalized file.
//
// The probe tolerates everything a live writer does to the file:
//
//   - A stale header. An appender (OpenAppend) leaves the pre-append
//     header in place until its Close, so the header's count is treated
//     as a floor, never the stream's extent — the probe finds the extent
//     by decoding.
//   - A missing index footer. The appender truncates it away while it
//     holds the file; the probe builds its own day index as it decodes.
//   - A torn tail. A partially flushed final event decodes as a
//     truncation; the probe forgives it, keeps its frontier at the last
//     complete event, and re-reads the few partial bytes next time.
//
// Decode anomalies that a live writer cannot produce (a bad kind byte,
// id overflow) are reported on the snapshot's Anomaly field without
// advancing the frontier: the sealed prefix stays serveable while the
// operator investigates.
//
// Probes are incremental: each call decodes only the bytes appended
// since the previous call (the first probe of an already-finalized file
// trusts its header and footer outright, like OpenTrace). A
// TailProbe is not safe for concurrent use; callers serialize Probe.
type TailProbe struct {
	path string
	fi   os.FileInfo // identity of the file the state below describes

	start       int64 // raw-stream offset of the first event
	headerMeta  Meta
	headerCount uint64

	frontier

	seg *segProbe // non-nil while probing a segmented (RRS1) file
}

// segProbe is the extra frontier state a segmented file needs: the scan
// position in *file* coordinates (frames are fetched and checksummed
// whole), while the frontier's positions run in *raw-stream*
// coordinates — the address space the day index and any snapshot source
// operate in. Each complete frame is decompressed exactly once, when the
// scan first crosses it.
type segProbe struct {
	frameOff int64 // file offset of the next unscanned frame
	segs     []segEntry
}

// tailPos is one event boundary in the stream: a byte offset and how many
// events precede it.
type tailPos struct {
	off   int64
	count uint64
}

// frontier is a decode pass's position in the raw event stream, plus the
// day index and sealing state derived from the events it has passed.
type frontier struct {
	cur     tailPos // boundary after the last complete event
	curDay  int32   // day-delta watermark at cur
	curMeta Meta    // counters accumulated over [0, cur.count)

	sealed      tailPos // boundary before the trailing day's first event
	sealedMeta  Meta    // counters accumulated over [0, sealed.count)
	trailingDay int32   // day of the events past sealed; -1 before any event
	sealedValid bool    // false after a trusted-finalized load, until a new
	// day barrier (or a reset) re-derives the sealed state by decoding

	index []DayIndexEntry // first-event-of-day entries, entries never mutated
}

// newFrontier returns the frontier of a pass about to decode the first
// event, at raw-stream offset start.
func newFrontier(start int64) frontier {
	return frontier{
		cur:         tailPos{off: start},
		curMeta:     Meta{MergeDay: -1},
		sealedMeta:  Meta{MergeDay: -1},
		trailingDay: -1,
		sealedValid: true,
	}
}

// errRescan stops a scan at an event that continues a trusted-finalized
// file's last day: the sealed boundary then lies inside a prefix that was
// never decoded.
var errRescan = errors.New("trace: sealed boundary inside an undecoded prefix")

// scan decodes up to limit events from r — the raw stream from the
// frontier on — and folds each into the frontier. This is the one
// sealing rule: the first event of a later day seals every day before it
// and gets a day-index entry. scan returns the decoder's error, nil at a
// clean end of the limit; the frontier is left after the last complete
// event either way.
func (f *frontier) scan(r io.Reader, limit uint64) error {
	base := f.cur.off
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	dec := resumeDecoder(br, Meta{}, limit, f.curDay)
	for {
		ev, ok, err := dec.Next()
		if err != nil || !ok {
			return err
		}
		if !f.sealedValid && ev.Day <= f.curDay {
			return errRescan
		}
		if f.cur.count == 0 || ev.Day > f.curDay {
			f.sealed, f.sealedMeta, f.trailingDay, f.sealedValid = f.cur, f.curMeta, ev.Day, true
			f.index = append(f.index, DayIndexEntry{
				Day: ev.Day, Offset: f.cur.off, Event: f.cur.count, PrevDay: f.curDay,
			})
		}
		f.curMeta.Accumulate(ev)
		f.cur = tailPos{off: base + cr.n - int64(br.Buffered()), count: f.cur.count + 1}
		f.curDay = ev.Day
	}
}

// NewTailProbe returns a probe for the trace file at path. The file need
// not exist yet; Probe reports the open error until it does.
func NewTailProbe(path string) *TailProbe { return &TailProbe{path: path} }

// Probe re-examines the file and returns the current sealed-prefix
// snapshot. An error means the file could not be probed at all (missing,
// unreadable, or its header is not yet decodable — a from-scratch writer
// that has not finalized); the caller backs off and retries. Tail decode
// anomalies ride on the snapshot instead: the sealed prefix they leave
// behind is still valid.
func (p *TailProbe) Probe() (*TailSnapshot, error) {
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// The header is re-read every probe: an appender's Close back-patches
	// it in place (and a from-scratch flat writer's header stays poisoned
	// — undecodable — until its Close, which surfaces here as an error).
	// The footer bounds the stream when present. Its validity is
	// structural only: during the writer's Close there is a moment when
	// the new footer is on disk but the header is still old.
	c, err := readContainer(f, fi.Size())
	if err != nil {
		return nil, err
	}
	end := fi.Size()
	if c.footOff >= 0 {
		end = c.footOff
	}

	fresh := p.fi == nil || !os.SameFile(p.fi, fi) || (p.seg != nil) != c.seg || p.start != c.start || end < p.scanned()
	if fresh {
		p.start = c.start
		p.frontier = newFrontier(c.start)
		p.seg = nil
		if c.seg {
			p.seg = &segProbe{frameOff: int64(fixedHeaderLen)}
		}
	}
	p.fi = fi
	p.headerMeta, p.headerCount = c.meta, c.count
	if fresh && p.trust(c) {
		return p.snapshot(true, nil), nil
	}

	var anomaly error
	if c.seg {
		anomaly = p.scanFrames(f, end)
	} else if end > p.cur.off {
		err := p.scan(io.NewSectionReader(f, p.cur.off, end-p.cur.off), maxEventCount)
		if !errors.Is(err, ErrTruncated) {
			anomaly = err
		} else if c.footOff >= 0 && p.cur.off != end {
			// The stream ran out either exactly at our frontier (a clean
			// boundary) or inside an event (a torn tail write). Both are
			// normal under a live writer; a finalized stream ending
			// mid-event is not.
			anomaly = fmt.Errorf("trace: finalized stream ends mid-event: %w", err)
		}
	}
	if anomaly == errRescan {
		// Appended events continue the trusted file's final day: rescan
		// from scratch to re-derive the sealed boundary exactly.
		p.fi = nil
		return p.Probe()
	}
	finalized := anomaly == nil && c.finalized && c.footOff >= 0 &&
		p.scanned() == end && p.cur.count == c.count
	return p.snapshot(finalized, anomaly), nil
}

// scanned is the file offset the probe has examined up to.
func (p *TailProbe) scanned() int64 {
	if p.seg != nil {
		return p.seg.frameOff
	}
	return p.cur.off
}

// trust loads a finalized file on a clean slate straight from its header
// and footer, the way OpenTrace does, skipping the O(events) decode. The
// sealed state is deliberately left unset (sealedValid=false): if the
// file is later reopened for append, the first new day barrier re-derives
// it, cheaper than a full decode.
func (p *TailProbe) trust(c container) bool {
	idx := c.index
	var total uint64
	for _, s := range c.segs {
		total += s.events
	}
	if !c.finalized || c.footOff < 0 || idx == nil || (c.count == 0) != (len(idx) == 0) ||
		(len(idx) > 0 && idx[len(idx)-1].Event >= c.count) || (c.seg && total != c.count) {
		return false
	}
	p.cur = tailPos{off: c.footOff, count: c.count}
	if c.seg {
		p.cur.off = 0
		if n := len(c.segs); n > 0 {
			p.cur.off, p.seg.frameOff = c.segs[n-1].rawEnd(), c.segs[n-1].fileEnd()
		}
		p.seg.segs = c.segs
	}
	p.curMeta = c.meta
	if len(idx) > 0 {
		p.curDay = idx[len(idx)-1].Day
	}
	p.sealedValid = false
	p.index = idx
	return true
}

// scanFrames is the segmented container's chunking: only fully-flushed
// frames are consumed. A frame whose header or payload has not completely
// hit the disk is a torn tail to wait out; a frame that is complete but
// fails its checksum is an anomaly that never advances the frontier.
// Each complete frame is checksum-verified, decompressed once, and its
// events run through the frontier's sealing rule — so a day is sealed
// only when a later-day event has been observed in some fully-flushed
// frame (or the footer finalizes the file).
func (p *TailProbe) scanFrames(f *os.File, end int64) error {
	sp := p.seg
	for sp.frameOff+segFrameHdrLen <= end {
		var fh [segFrameHdrLen]byte
		if _, err := f.ReadAt(fh[:], sp.frameOff); err != nil {
			return err
		}
		seg, crc, ok := parseFrameHeader(fh[:], sp.frameOff)
		if !ok {
			return nil // the footer (or trailing garbage) starts here
		}
		seg.rawStart, seg.firstEvent = p.cur.off, p.cur.count
		corrupt := func(what any) error {
			return fmt.Errorf("%w: segment %d at byte %d: %v", ErrSegmentCorrupt, len(sp.segs), sp.frameOff, what)
		}
		if !seg.plausible(p.curDay) {
			return corrupt("implausible frame header")
		}
		if end < seg.fileEnd() {
			return nil // torn frame write: wait for the rest
		}
		payload := make([]byte, seg.compLen)
		if _, err := f.ReadAt(payload, sp.frameOff+segFrameHdrLen); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return corrupt("checksum mismatch")
		}
		raw, err := inflateFrame(payload, seg)
		if err != nil {
			return corrupt(err)
		}
		// Decode the whole frame before applying any of it, so a frame
		// that fails mid-decode leaves the frontier exactly where it was.
		next := p.frontier
		if err := next.scan(bytes.NewReader(raw), seg.events); err == errRescan {
			return err
		} else if err != nil {
			return corrupt(err)
		}
		if next.cur.count != p.cur.count+seg.events || next.cur.off != seg.rawEnd() {
			return corrupt("payload contradicts frame header")
		}
		p.frontier = next
		sp.segs = append(sp.segs, seg)
		sp.frameOff = seg.fileEnd()
	}
	return nil
}

// snapshot renders the probe's current state.
func (p *TailProbe) snapshot(finalized bool, anomaly error) *TailSnapshot {
	s := &TailSnapshot{
		Path:           p.path,
		Anomaly:        anomaly,
		FrontierDay:    p.curDay,
		FrontierEvents: int64(p.cur.count),
		FrontierOffset: p.cur.off,
		start:          p.start,
	}
	if p.seg != nil {
		s.segs = p.seg.segs[:len(p.seg.segs):len(p.seg.segs)]
	}
	if p.cur.count == 0 {
		s.FrontierDay = -1
	}
	switch {
	case finalized || !p.sealedValid:
		// A finalized file seals every day. So does a trusted-finalized
		// file reopened for append with no new day barrier yet: the
		// pre-append header still vouches for every event we have seen
		// (the frontier equals its count), so everything through its last
		// day stays sealed.
		s.Finalized = finalized
		s.Meta = p.headerMeta
		s.SealedDay = p.headerMeta.Days - 1
		s.Events = int64(p.cur.count)
		s.EndOffset = p.cur.off
		s.index = p.index[:len(p.index):len(p.index)]
	case p.trailingDay < 0:
		// No complete event yet: nothing is sealed.
		s.SealedDay = -1
		s.Meta = Meta{MergeDay: -1, Seed: p.headerMeta.Seed}
		s.EndOffset = p.start
	default:
		m := p.sealedMeta
		// Days is set from the barrier, not the counters: event-free days
		// between the last sealed event and the trailing day are complete
		// too.
		m.Days = p.trailingDay
		m.Seed = p.headerMeta.Seed
		m.MergeDay = -1
		if hd := p.headerMeta.MergeDay; hd >= 0 && hd < p.trailingDay {
			m.MergeDay = hd
		}
		s.Meta = m
		s.SealedDay = p.trailingDay - 1
		s.Events = int64(p.sealed.count)
		s.EndOffset = p.sealed.off
		// Exclude the trailing (unsealed) day's index entry.
		k := len(p.index)
		if k > 0 && p.index[k-1].Event >= p.sealed.count {
			k--
		}
		s.index = p.index[:k:k]
	}
	return s
}

// TailSnapshot is one probe's view of a growing trace: the sealed prefix
// (serveable) and the decode frontier (diagnostic). Snapshots are
// immutable; Source adapts the sealed prefix to the analysis data plane.
type TailSnapshot struct {
	// Path is the probed file.
	Path string
	// Meta describes the sealed prefix: Days = SealedDay+1, counters
	// accumulated over exactly the sealed events, Seed (and MergeDay,
	// once the merge day is sealed) from the file header. For a
	// Finalized file it is the header meta verbatim.
	Meta Meta
	// SealedDay is the last complete day, -1 when nothing is sealed yet.
	SealedDay int32
	// Events is the number of events in the sealed prefix.
	Events int64
	// EndOffset is the byte offset where the sealed prefix ends.
	EndOffset int64
	// Finalized reports that the writer's Close has run: header and
	// footer are consistent and every day — including the last — is
	// sealed.
	Finalized bool
	// FrontierDay/FrontierEvents/FrontierOffset locate the decode
	// frontier: the last complete event observed, sealed or not.
	// FrontierDay is -1 before any event.
	FrontierDay    int32
	FrontierEvents int64
	FrontierOffset int64
	// Anomaly is a tail decode failure that a live writer cannot
	// explain (corruption past the sealed prefix). The sealed prefix
	// itself is unaffected.
	Anomaly error

	start int64
	index []DayIndexEntry
	segs  []segEntry // non-nil for a segmented file; offsets above are raw-stream
}

// Source adapts the sealed prefix to a MetaSource: a FileSource whose
// meta, event count and day index are the snapshot's. Its cursors are
// count-bounded, so a writer appending past the sealed prefix — or
// finalizing the file — never perturbs an open pass, and frames or bytes
// past the seal are never read. Returns nil when the snapshot holds no
// sealed events.
func (s *TailSnapshot) Source() MetaSource {
	if s.Events <= 0 {
		return nil
	}
	src := &FileSource{
		Path:   s.Path,
		meta:   s.Meta,
		events: uint64(s.Events),
		start:  s.start,
		index:  s.index,
		stream: flatStream{path: s.Path},
	}
	if s.segs != nil {
		// Only the frames that start before the seal hold sealed events.
		// Tail sources bypass the frame cache: the file is still growing.
		k := sort.Search(len(s.segs), func(k int) bool { return s.segs[k].rawStart >= s.EndOffset })
		src.stream = &segStream{blob: fileSegBlob{path: s.Path}, segs: s.segs[:k]}
	}
	return src
}
