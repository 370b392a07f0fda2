package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/persist"
	"lambdadb/internal/telemetry"
)

// Log file layout: numbered segment files wal-<seq>.log in the data
// directory. Each segment starts with a header (magic + u64 sequence
// number) followed by records framed as
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// A checkpoint rotates to a fresh segment and, once the snapshot is
// durable, deletes the older ones; recovery replays all remaining segments
// in sequence order.
var segMagic = []byte("LWAL1\n")

const (
	segHeaderLen = 6 + 8   // magic + sequence number
	frameHeader  = 8       // length + CRC
	maxRecordLen = 1 << 30 // plausibility bound while scanning
	segPrefix    = "wal-"  // segment file name: wal-<08d>.log
	segSuffix    = ".log"
)

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// AmbiguousStateError reports an on-disk state recovery refuses to guess
// about: a damaged record before the tail of the log, a sequence gap
// between segments, or a log that contradicts the snapshot. Recovering
// past it could silently drop or invent acknowledged commits, so startup
// fails instead.
type AmbiguousStateError struct {
	Dir     string
	Segment string // file name, empty for directory-level problems
	Offset  int64
	Reason  string
}

func (e *AmbiguousStateError) Error() string {
	if e.Segment == "" {
		return fmt.Sprintf("ambiguous WAL state in %s: %s", e.Dir, e.Reason)
	}
	return fmt.Sprintf("ambiguous WAL state in %s: segment %s at byte %d: %s",
		e.Dir, e.Segment, e.Offset, e.Reason)
}

// log is the append side of the write-ahead log: an active segment file,
// an in-memory frame buffer, and the group-commit flusher goroutine.
//
// Appends (ordered by the caller's locks) only buffer the framed record
// and bump the append LSN; the flusher picks up whatever has accumulated,
// writes it with one write+fsync, and advances the durable LSN. Committers
// park in WaitDurable until their LSN is covered, so N concurrent
// committers share one fsync instead of paying one each.
type log struct {
	dir     string
	metrics *telemetry.Metrics

	mu         sync.Mutex
	f          *os.File
	seq        uint64
	buf        []byte // framed records not yet handed to the flusher
	appendLSN  uint64 // records appended (logical end of log)
	durableLSN uint64 // records confirmed on disk
	appendOff  int64  // byte offset appends have reached in the active segment
	durableOff int64  // byte offset confirmed on disk in the active segment
	err        error  // sticky: first write/fsync failure latches the log failed
	closed     bool
	writing    bool // flusher is in write+fsync outside mu

	work    *sync.Cond // signals the flusher: buffered bytes or close
	durable *sync.Cond // signals waiters: durable LSN advanced or failure

	// subs are durable-position subscribers (the replication shipper): each
	// gets a non-blocking wakeup whenever the durable position advances, and
	// is closed when the log closes or fails.
	subs map[chan struct{}]struct{}

	flusherDone chan struct{}
}

// openLog opens (or creates) the segment with the given sequence number
// for appending and starts the flusher. The caller has already scanned and
// truncated the segment, so the file is either empty or ends at a clean
// record boundary.
func openLog(dir string, seq uint64, metrics *telemetry.Metrics) (*log, error) {
	f, err := openSegmentFile(dir, seq)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &log{
		dir: dir, metrics: metrics, f: f, seq: seq,
		appendOff: st.Size(), durableOff: st.Size(),
		subs:        make(map[chan struct{}]struct{}),
		flusherDone: make(chan struct{}),
	}
	l.work = sync.NewCond(&l.mu)
	l.durable = sync.NewCond(&l.mu)
	go l.flushLoop()
	return l, nil
}

// openSegmentFile opens (or creates) the segment file for appending and
// writes its header only when the file does not already carry one. A file
// left behind by an earlier failed attempt (e.g. rotate dying in the
// directory sync after the header write) keeps its header; writing a second
// one would be parsed as a frame on recovery and read as a mid-segment
// tear. A partial header (shorter than segHeaderLen) can only come from a
// failed write and is safely rewritten from the start.
func openSegmentFile(dir string, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(segmentPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < segHeaderLen {
		if st.Size() != 0 {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, err
			}
		}
		if err := writeSegmentHeader(f, seq); err != nil {
			f.Close()
			return nil, err
		}
		if err := persist.SyncPath(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

func writeSegmentHeader(f *os.File, seq uint64) error {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[6:], seq)
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	return f.Sync()
}

// append frames the payload and buffers it, returning the record's LSN to
// wait on and the position (segment, byte offset) the active segment will
// end at once the record is flushed. Callers serialize appends through the
// store's locks, so the buffer order is the commit order.
func (l *log) append(payload []byte) (uint64, Pos, error) {
	if err := faultinject.Fire("wal.append"); err != nil {
		return 0, Pos{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, Pos{}, l.err
	}
	if l.closed {
		return 0, Pos{}, fmt.Errorf("wal: log is closed")
	}
	if len(payload) > maxRecordLen {
		// Recovery rejects any record longer than maxRecordLen as
		// implausible (and a length >= 4GiB would not even survive the u32
		// frame header). Refusing here turns an un-loggable commit into an
		// error instead of an acknowledged commit that replay drops.
		return 0, Pos{}, fmt.Errorf("wal: record payload is %d bytes, limit is %d", len(payload), maxRecordLen)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.appendLSN++
	l.appendOff += int64(frameHeader + len(payload))
	l.metrics.WalAppends.Add(1)
	l.work.Signal()
	return l.appendLSN, Pos{Seg: l.seq, Off: l.appendOff}, nil
}

// durablePos returns the position (segment, byte offset) confirmed on
// disk. Everything at or below it is immutable: flushed batches are never
// rewritten and rotation only ever opens higher segments.
func (l *log) durablePos() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Seg: l.seq, Off: l.durableOff}
}

// subscribe registers a durable-position wakeup channel; cancel removes
// it. The channel receives a (coalesced, non-blocking) signal whenever the
// durable position advances and is closed when the log closes or fails.
func (l *log) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	l.mu.Lock()
	if l.closed || l.err != nil {
		close(ch)
		l.mu.Unlock()
		return ch, func() {}
	}
	l.subs[ch] = struct{}{}
	l.mu.Unlock()
	return ch, func() {
		l.mu.Lock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
		l.mu.Unlock()
	}
}

// notifySubsLocked wakes every durable-position subscriber; kill closes
// the channels instead (log closed or failed).
func (l *log) notifySubsLocked(kill bool) {
	for ch := range l.subs {
		if kill {
			close(ch)
			delete(l.subs, ch)
			continue
		}
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// waitDurable blocks until the record at lsn is fsynced (group commit), or
// the log has failed or been closed with the record still pending.
func (l *log) waitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durableLSN < lsn && l.err == nil && !(l.closed && len(l.buf) == 0 && !l.writing) {
		l.durable.Wait()
	}
	if l.durableLSN >= lsn {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return fmt.Errorf("wal: log closed before record became durable")
}

// flushLoop is the group-commit flusher: it takes whatever frames have
// accumulated, writes them with a single write+fsync, and wakes every
// committer whose record the batch covered.
func (l *log) flushLoop() {
	l.mu.Lock()
	for {
		for !l.closed && len(l.buf) == 0 {
			l.work.Wait()
		}
		if l.err != nil {
			// The failure is latched: never write again. The failed batch
			// may be partially on disk, so writing later frames after it
			// would both let durableLSN advance over the failed records
			// (acknowledging commits whose bytes never made it) and leave a
			// mid-segment tear that recovery truncates — along with every
			// record behind it. Drop the buffer and fail all waiters.
			l.buf = nil
			l.durable.Broadcast()
			l.notifySubsLocked(true)
			if l.closed {
				break
			}
			continue
		}
		if len(l.buf) == 0 {
			break // closed and drained
		}
		buf, target, f := l.buf, l.appendLSN, l.f
		batchRecords := int64(target - l.durableLSN)
		l.buf = nil
		l.writing = true
		l.mu.Unlock()

		flushStart := time.Now()
		err := writeAndSync(f, buf)
		flushNs := time.Since(flushStart).Nanoseconds()

		l.mu.Lock()
		l.writing = false
		if err != nil {
			if l.err == nil {
				l.err = fmt.Errorf("wal: flush: %w", err)
			}
		} else {
			l.durableLSN = target
			l.durableOff += int64(len(buf))
			l.metrics.WalFsyncs.Add(1)
			l.metrics.WalBytes.Add(int64(len(buf)))
			l.metrics.WalDurableLsn.Store(int64(target))
			l.metrics.Hist().RecordWalFsync(flushNs, batchRecords)
			l.notifySubsLocked(false)
		}
		l.durable.Broadcast()
	}
	l.notifySubsLocked(true)
	l.mu.Unlock()
	close(l.flusherDone)
}

// writeAndSync writes one flush batch and makes it durable. The wal.torn
// fault hooks let the crash harness leave a genuinely torn record on disk:
// when armed, half the batch is written and synced, then a second hook
// gets the chance to SIGKILL the process; unarmed, both halves are written
// and the batch is whole.
func writeAndSync(f *os.File, buf []byte) error {
	if err := faultinject.Fire("wal.write"); err != nil {
		return err
	}
	if faultinject.Fire("wal.torn") != nil && len(buf) > 1 {
		half := len(buf) / 2
		if _, err := f.Write(buf[:half]); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		faultinject.Fire("wal.torn.kill")
		buf = buf[half:]
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	if err := faultinject.Fire("wal.fsync"); err != nil {
		return err
	}
	return f.Sync()
}

// rotate drains the pending buffer into the current segment, makes it
// durable, and switches appends to a fresh segment with the next sequence
// number. The caller holds the store's commit lock, so no commit record
// can straddle the rotation; DDL records may slip in during the drain and
// land on either side, which replay tolerates (DDL replay is idempotent).
func (l *log) rotate() error {
	if err := faultinject.Fire("wal.rotate"); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	for (len(l.buf) > 0 || l.writing) && l.err == nil {
		l.work.Signal()
		l.durable.Wait()
	}
	if l.err != nil {
		return l.err
	}
	next := l.seq + 1
	nf, err := openSegmentFile(l.dir, next)
	if err != nil {
		return err
	}
	st, err := nf.Stat()
	if err != nil {
		nf.Close()
		return err
	}
	old := l.f
	l.f, l.seq = nf, next
	// A leftover segment from an earlier failed rotate keeps its contents,
	// so the append position resumes at its current size.
	l.appendOff, l.durableOff = st.Size(), st.Size()
	l.notifySubsLocked(false)
	// The drain loop above already fsynced everything in the old segment.
	return old.Close()
}

// activeSeq returns the sequence number appends currently go to.
func (l *log) activeSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// close drains and fsyncs the log, stops the flusher, and closes the
// segment file. Appends after close fail cleanly.
func (l *log) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.work.Broadcast()
	l.durable.Broadcast()
	l.mu.Unlock()
	<-l.flusherDone
	if l.err != nil {
		l.f.Close()
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// segmentInfo names one on-disk segment.
type segmentInfo struct {
	seq  uint64
	path string
}

// listSegments returns the data directory's segments sorted by sequence
// number, verifying the numbering is contiguous (checkpoints delete a
// prefix; a hole inside the remaining run means a missing segment).
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) <= len(segPrefix)+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%d", &seq); err != nil {
			continue
		}
		segs = append(segs, segmentInfo{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].seq != segs[i-1].seq+1 {
			return nil, &AmbiguousStateError{
				Dir:    dir,
				Reason: fmt.Sprintf("segment sequence gap: %d followed by %d", segs[i-1].seq, segs[i].seq),
			}
		}
	}
	return segs, nil
}

// removeSegmentsBelow is the one prune loop: it unlinks every segment whose
// sequence number is below keep, oldest first with the directory fsynced
// after each unlink, so a crash mid-prune leaves a contiguous run. It
// returns how many segments it removed.
func removeSegmentsBelow(dir string, keep uint64) (int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, seg := range segs {
		if seg.seq >= keep {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			return removed, err
		}
		if err := persist.SyncPath(dir); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// scanSegment is recovery's use of the frame reader: it checks the segment
// header, then hands every whole, checksum-valid record to apply in order.
// It returns the end of the last whole record and, when the bytes past it
// are not one — short frame, implausible length, truncated payload, CRC
// mismatch — why (torn != ""). Open tolerates that at the tail of the final
// segment, since a crash mid-append legitimately tears it, and refuses it
// anywhere else, because rotated segments were fsynced whole. A wrong magic
// or sequence number is never a torn tail: the header is the first thing
// written and fsynced when a segment is created.
func scanSegment(dir string, seg segmentInfo, apply func(payload []byte, next int64) error) (good int64, torn string, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, "", err
	}
	if st.Size() < segHeaderLen {
		return 0, fmt.Sprintf("truncated segment header (%d bytes)", st.Size()), nil
	}
	var hdr [segHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, "", err
	}
	name := filepath.Base(seg.path)
	if string(hdr[:len(segMagic)]) != string(segMagic) {
		return 0, "", &AmbiguousStateError{Dir: dir, Segment: name, Reason: "bad segment magic"}
	}
	if got := binary.LittleEndian.Uint64(hdr[len(segMagic):]); got != seg.seq {
		return 0, "", &AmbiguousStateError{
			Dir: dir, Segment: name, Offset: int64(len(segMagic)),
			Reason: fmt.Sprintf("segment header claims sequence %d, file name says %d", got, seg.seq),
		}
	}
	return readFrames(f, segHeaderLen, st.Size(), apply)
}
