package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrNotAppendable is returned by OpenAppend for files that cannot be
// extended in place: one-shot Encode output (variable-width header, no
// room to back-patch) or files whose writer never reached Close (the
// poisoned count slot means the event stream's extent is unknown).
var ErrNotAppendable = errors.New("trace: file is not appendable")

// fixedHeaderLen is the streaming Encoder's header size: magic, the
// 2-byte uvarint of encMetaPad, the padded meta slot, the padded count.
const fixedHeaderLen = len(magic) + 2 + encMetaPad + encCountPad

// parseFixedHeader decodes the fixed-width header the streaming encoders
// write — flat and RRS1 share the layout; mag names the container. It
// rejects the one-shot Encode layout, whose meta length is the JSON's
// exact size, not encMetaPad. finalized=false with a nil error means the
// count slot is still poisoned: the writer has not reached Close.
func parseFixedHeader(hdr []byte, mag [4]byte) (meta Meta, count uint64, finalized bool, err error) {
	if len(hdr) < len(mag) {
		return meta, 0, false, io.ErrUnexpectedEOF
	}
	if [4]byte(hdr[:4]) != mag {
		return meta, 0, false, ErrBadMagic
	}
	if len(hdr) < fixedHeaderLen {
		return meta, 0, false, fmt.Errorf("trace: %d-byte file is shorter than a fixed header", len(hdr))
	}
	metaLen, n := binary.Uvarint(hdr[4:])
	if n <= 0 || metaLen != encMetaPad {
		return meta, 0, false, errors.New("trace: header meta slot is not the fixed-width encoder layout")
	}
	metaStart := 4 + n
	if err := json.Unmarshal(bytes.TrimRight(hdr[metaStart:metaStart+encMetaPad], " "), &meta); err != nil {
		return meta, 0, false, fmt.Errorf("trace: bad meta: %w", err)
	}
	count, err = binary.ReadUvarint(bytes.NewReader(hdr[metaStart+encMetaPad : fixedHeaderLen]))
	if err != nil {
		return meta, 0, false, nil
	}
	if count > maxEventCount {
		return meta, 0, false, fmt.Errorf("%w: %d events", ErrCountTooLarge, count)
	}
	return meta, count, true, nil
}

// OpenAppend reopens a finalized streaming-Encoder file for in-place
// extension and returns an Encoder positioned after its last event: the
// index footer is truncated away, the day index and meta counters are
// restored, and subsequent Write/Close calls behave exactly as if the
// original encoder had never closed — appending days D..D+k to a trace
// and generating the full trace from scratch produce byte-identical
// files.
//
// f must be open read-write. While an append is in progress the header
// on disk still holds the pre-append meta and count, so a concurrent
// reader sees the original (shorter) trace; the TailProbe sees further,
// up to the last sealed day. Close back-patches the header and re-appends
// the footer, finalizing the extended file.
//
// If the footer is missing or damaged the event stream is decoded once
// to rebuild the index and locate its end; any trailing garbage past the
// declared events is truncated.
func OpenAppend(f *os.File) (*Encoder, error) {
	hdr := make([]byte, fixedHeaderLen)
	if _, err := io.ReadAtLeast(f, hdr, fixedHeaderLen); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrNotAppendable, err)
	}
	if [4]byte(hdr[:4]) == segMagic {
		return nil, fmt.Errorf("%w: segmented (compressed) traces cannot be extended in place; regenerate, or write a fresh segmented trace and tail it", ErrNotAppendable)
	}
	meta, count, finalized, err := parseFixedHeader(hdr, magic)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotAppendable, err)
	}
	if !finalized {
		return nil, fmt.Errorf("%w: count slot is not finalized (writer crashed before Close?)", ErrNotAppendable)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}

	_, idx, eventsEnd := readTrailer(f, fi.Size(), false)
	prevDay := int32(0)
	if n := len(idx); n > 0 {
		// The index's last entry marks the first event of the final day;
		// every event after it shares that day.
		prevDay = idx[n-1].Day
	}
	if idx == nil || (len(idx) > 0 && idx[len(idx)-1].Event >= count) {
		// No (valid) footer: one decode pass rebuilds the index and finds
		// the stream's end.
		fr := newFrontier(int64(fixedHeaderLen))
		if err := fr.scan(io.NewSectionReader(f, fr.cur.off, fi.Size()-fr.cur.off), count); err != nil {
			return nil, fmt.Errorf("%w: rebuilding index: %v", ErrNotAppendable, err)
		}
		idx, eventsEnd, prevDay = fr.index, fr.cur.off, fr.curDay
	}

	if err := f.Truncate(eventsEnd); err != nil {
		return nil, err
	}
	if _, err := f.Seek(eventsEnd, io.SeekStart); err != nil {
		return nil, err
	}
	return &Encoder{
		ws:      f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		meta:    meta,
		count:   count,
		prevDay: prevDay,
		offset:  eventsEnd,
		index:   idx,
	}, nil
}
