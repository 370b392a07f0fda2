package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Pos is a physical position in the write-ahead log: a segment sequence
// number and a byte offset within that segment. Positions are totally
// ordered and survive restarts (unlike record LSNs, which count records
// per process lifetime), so replication resumes by Pos.
type Pos struct {
	Seg uint64
	Off int64
}

// Less reports whether p is strictly before q in the log.
func (p Pos) Less(q Pos) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

// IsZero reports whether p is the zero position ("from the beginning").
func (p Pos) IsZero() bool { return p.Seg == 0 && p.Off == 0 }

func (p Pos) String() string { return fmt.Sprintf("seg %d off %d", p.Seg, p.Off) }

// SegmentStart returns the position of the first record in segment seq
// (just past the segment header).
func SegmentStart(seq uint64) Pos { return Pos{Seg: seq, Off: segHeaderLen} }

// ErrSegmentGone reports that a segment the reader wanted no longer
// exists — a checkpoint pruned it. The replication shipper treats it as
// "this replica fell too far behind" and falls back to a snapshot resync.
var ErrSegmentGone = errors.New("wal: segment has been pruned")

// ReadSegmentRecords reads whole records from segment seq of dir, starting
// at byte offset from (which must be a record boundary at or past the
// segment header) and stopping at limit. limit < 0 means the current end of
// file, which is only safe for a segment nothing appends to: a sealed one,
// or any segment during recovery; for the active segment pass the durable
// offset so the read never races the appender. Each record's payload is
// handed to fn along with the offset just past it; the payload is only
// valid during the call.
//
// It returns the offset reached. Damage below the limit — a torn frame or
// CRC mismatch in bytes that were reported durable, or a file shorter than
// the limit — is returned as an *AmbiguousStateError naming where and why
// the read stopped; a missing segment file as ErrSegmentGone.
func ReadSegmentRecords(dir string, seq uint64, from, limit int64, fn func(payload []byte, next int64) error) (int64, error) {
	path := segmentPath(dir, seq)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return from, fmt.Errorf("%w (segment %d)", ErrSegmentGone, seq)
		}
		return from, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return from, err
	}
	ambiguous := func(off int64, reason string) error {
		return &AmbiguousStateError{Dir: dir, Segment: filepath.Base(path), Offset: off, Reason: reason}
	}
	// The file may legitimately be longer than the caller's limit (the
	// appender is ahead of the durable offset); it being shorter than the
	// limit means durable bytes are missing.
	if limit > st.Size() {
		return from, ambiguous(st.Size(), fmt.Sprintf("segment is %d bytes, expected at least %d", st.Size(), limit))
	}
	if limit < 0 {
		limit = st.Size()
	}
	if from < segHeaderLen {
		return from, fmt.Errorf("wal: read offset %d is inside the segment header", from)
	}
	if from > limit {
		return from, fmt.Errorf("wal: read offset %d past limit %d in segment %d", from, limit, seq)
	}
	if from == limit {
		return from, nil
	}
	off, stop, err := readFrames(f, from, limit, fn)
	if err == nil && stop != "" {
		err = ambiguous(off, stop)
	}
	return off, err
}

// readFrames is the one parser of the segment frame format (u32 payload
// length | u32 CRC-32 | payload). It reads r from byte offset from up to
// limit (the caller has checked segHeaderLen <= from <= limit <= size) and
// hands each whole, checksum-valid payload to fn with the offset just past
// it. It returns the record boundary it reached and, when the bytes between
// there and limit are not a whole record, why it stopped (stop != "");
// what a stop means is the caller's decision. It streams rather than
// slurps — a sealed segment can be large, and the shipper calls this per
// connected replica — and allocates at most one payload, never more than
// the bytes left below limit.
func readFrames(r io.ReaderAt, from, limit int64, fn func(payload []byte, next int64) error) (off int64, stop string, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, from, limit-from), 256<<10)
	off = from
	var hdr [frameHeader]byte
	var payload []byte
	for off < limit {
		remaining := limit - off
		if remaining < frameHeader {
			return off, fmt.Sprintf("%d trailing bytes, too short for a record header", remaining), nil
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, "", err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:]))
		want := binary.LittleEndian.Uint32(hdr[4:])
		if length > maxRecordLen {
			return off, fmt.Sprintf("implausible record length %d", length), nil
		}
		if remaining-frameHeader < length {
			return off, fmt.Sprintf("record length %d but only %d bytes remain", length, remaining-frameHeader), nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, "", err
		}
		if got := crc32.ChecksumIEEE(payload); got != want {
			return off, fmt.Sprintf("record checksum mismatch (stored %08x, computed %08x)", want, got), nil
		}
		off += frameHeader + length
		if err := fn(payload, off); err != nil {
			return off, "", err
		}
	}
	return off, "", nil
}

// RecordCRC returns the checksum the log frames a payload with; the
// replication stream carries it end to end so a replica can verify each
// record against the primary's framing before mirroring it.
func RecordCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }
