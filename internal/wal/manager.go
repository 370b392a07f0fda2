package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/persist"
	"lambdadb/internal/storage"
	"lambdadb/internal/telemetry"
)

// snapshotFile is the checkpoint image's name within the data directory.
const snapshotFile = "snapshot.db"

// Options configures Open.
type Options struct {
	// Metrics receives the durability counters (wal_appends, wal_fsyncs,
	// wal_bytes, checkpoints). A nil Metrics gets a private, unobserved set.
	Metrics *telemetry.Metrics
	// Logger, when set, receives a structured recovery summary at Open.
	Logger *slog.Logger
}

// RecoverySummary reports what Open found and did while recovering a data
// directory. The server and shell surface it at startup so an operator can
// see at a glance whether a crash was recovered from and how.
type RecoverySummary struct {
	SnapshotLoaded    bool   // a checkpoint image was loaded
	SnapshotClock     uint64 // the image's commit-clock cut (0 when fresh)
	Segments          int    // log segments scanned
	CommitsReplayed   int    // commit records re-applied
	DDLReplayed       int    // CREATE/DROP TABLE and CREATE/DROP INDEX records re-applied
	RecordsSkipped    int    // records already covered by the snapshot or a dead incarnation
	TornTailTruncated bool   // the final segment ended in a torn record and was truncated
	TornSegment       string // segment file name of the torn tail
	TornOffset        int64  // byte offset the segment was truncated to
	TornReason        string // why the tail record was rejected
	Epoch             uint64 // highest cluster epoch seen in the log (0 when never fenced)
}

// String renders the summary as one human-readable line.
func (s RecoverySummary) String() string {
	if !s.SnapshotLoaded && s.Segments == 0 {
		return "fresh data directory (no snapshot, no log)"
	}
	out := fmt.Sprintf("recovered: snapshot clock %d, %d segment(s), %d commit(s) and %d DDL replayed, %d record(s) skipped",
		s.SnapshotClock, s.Segments, s.CommitsReplayed, s.DDLReplayed, s.RecordsSkipped)
	if s.TornTailTruncated {
		out += fmt.Sprintf("; torn tail in %s truncated to byte %d (%s)", s.TornSegment, s.TornOffset, s.TornReason)
	}
	return out
}

// CheckpointStats reports one completed checkpoint.
type CheckpointStats struct {
	Clock           uint64 // the commit clock the image captures
	SegmentsRemoved int    // old log segments pruned
}

// Manager owns a data directory: the active redo log, the checkpoint
// image, and the recovery summary. It implements storage.CommitLogger, so
// installing it on a store makes every commit and schema change durable.
type Manager struct {
	dir     string
	store   *storage.Store
	metrics *telemetry.Metrics
	summary RecoverySummary

	// epoch is the cluster fencing epoch: the highest epoch record durable
	// in this log. It only moves forward (see SetEpoch / AdoptEpoch).
	epoch atomic.Uint64

	// commitWaiter, when set, is called after a record is locally durable
	// with the position its frame ends at; it blocks the commit ack until
	// the record is replicated (semi-synchronous replication).
	commitWaiter atomic.Pointer[CommitWaiter]

	mu     sync.Mutex // serializes Checkpoint, resync, and Close
	closed bool

	// retainer, when set, holds sealed segments back from checkpoint
	// pruning while a replica still needs them (see SetSegmentRetainer).
	retainer SegmentRetainer

	// logMu guards the log pointer, which a replica's snapshot resync
	// (ResetForResync) swaps while other goroutines read positions.
	logMu sync.RWMutex
	log   *log
}

// activeLog returns the current log under the pointer lock.
func (m *Manager) activeLog() *log {
	m.logMu.RLock()
	defer m.logMu.RUnlock()
	return m.log
}

// Open recovers the data directory and returns the recovered store with a
// Manager installed as its commit logger:
//
//  1. load the checkpoint image, if any (a missing image is a fresh start;
//     an unreadable or corrupt one is a hard error — never silently
//     reinitialized over),
//  2. replay the log segments in sequence order, skipping records the
//     image already covers and enforcing commit-timestamp contiguity,
//  3. truncate a torn final record (a crash mid-append is expected;
//     damage anywhere else is an *AmbiguousStateError),
//  4. reopen the last segment for appending.
func Open(dir string, opts Options) (*storage.Store, *Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = &telemetry.Metrics{}
	}

	var summary RecoverySummary
	store, err := persist.LoadFile(filepath.Join(dir, snapshotFile))
	switch {
	case err == nil:
		summary.SnapshotLoaded = true
		summary.SnapshotClock = store.Snapshot()
	case errors.Is(err, fs.ErrNotExist):
		store = storage.NewStore()
	default:
		return nil, nil, fmt.Errorf("wal: load checkpoint image: %w", err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	summary.Segments = len(segs)

	for i, seg := range segs {
		good, torn, err := scanSegment(dir, seg, func(payload []byte, _ int64) error {
			return replayRecord(dir, filepath.Base(seg.path), store, summary.SnapshotClock, &summary, payload)
		})
		if err != nil {
			return nil, nil, err
		}
		if torn == "" {
			continue
		}
		name := filepath.Base(seg.path)
		if i < len(segs)-1 {
			return nil, nil, &AmbiguousStateError{Dir: dir, Segment: name, Offset: good, Reason: torn}
		}
		// A crash mid-append legitimately tears the tail of the last
		// segment: drop the torn record and make the truncation durable
		// before any new append can land after it.
		if err := truncateSegment(dir, seg.path, good); err != nil {
			return nil, nil, err
		}
		summary.TornTailTruncated, summary.TornSegment = true, name
		summary.TornOffset, summary.TornReason = good, torn
	}

	activeSeq := uint64(1)
	if len(segs) > 0 {
		activeSeq = segs[len(segs)-1].seq
	}
	l, err := openLog(dir, activeSeq, metrics)
	if err != nil {
		return nil, nil, err
	}

	m := &Manager{dir: dir, store: store, metrics: metrics, summary: summary, log: l}
	m.epoch.Store(summary.Epoch)
	store.SetCommitLogger(m)
	if opts.Logger != nil {
		opts.Logger.Info("recovery complete",
			"dir", dir,
			"snapshot_loaded", summary.SnapshotLoaded,
			"snapshot_clock", summary.SnapshotClock,
			"segments", summary.Segments,
			"commits_replayed", summary.CommitsReplayed,
			"ddl_replayed", summary.DDLReplayed,
			"records_skipped", summary.RecordsSkipped,
			"torn_tail_truncated", summary.TornTailTruncated)
	}
	return store, m, nil
}

// replayRecord decodes one log record and applies it through Store.Replay
// above floor — the idempotency rules live there — counting the outcome in
// summary. An epoch record, the one kind only the log knows, raises
// summary.Epoch instead: epochs only move forward, so an older one (possible
// after a demoted primary's segments are replayed behind a newer bump) is
// inert.
func replayRecord(dir, segName string, store *storage.Store, floor uint64, summary *RecoverySummary, payload []byte) error {
	if err := faultinject.Fire("wal.replay.record"); err != nil {
		return err
	}
	c, err := decodeRecord(payload)
	if err != nil {
		// The payload passed its CRC, so this is a format disagreement, not
		// disk damage — refusing is the only safe move.
		return fmt.Errorf("wal: segment %s: undecodable record: %w", segName, err)
	}
	if c.Kind == recEpoch {
		summary.Epoch = max(summary.Epoch, c.TS)
		return nil
	}
	applied, err := store.Replay(c, floor)
	switch {
	case err != nil:
		return &AmbiguousStateError{Dir: dir, Segment: segName, Reason: err.Error()}
	case !applied:
		summary.RecordsSkipped++
	case c.Kind == storage.ChangeCommit:
		summary.CommitsReplayed++
	default:
		summary.DDLReplayed++
	}
	return nil
}

// truncateSegment cuts a segment back to off and makes the cut durable.
func truncateSegment(dir, path string, off int64) error {
	if err := os.Truncate(path, off); err != nil {
		return err
	}
	if err := persist.SyncPath(path); err != nil {
		return err
	}
	return persist.SyncPath(dir)
}

// Summary returns what recovery found and did.
func (m *Manager) Summary() RecoverySummary { return m.summary }

// CommitWaiter blocks until the record ending at pos is replicated (or the
// replication guarantee is otherwise satisfied). Installed by the semi-sync
// layer via SetCommitWaiter; called after the record is locally durable.
type CommitWaiter func(pos Pos) error

// SetCommitWaiter installs (or, with nil, removes) the post-durability
// replication wait applied to every logged record before its commit is
// acknowledged.
func (m *Manager) SetCommitWaiter(w CommitWaiter) {
	if w == nil {
		m.commitWaiter.Store(nil)
		return
	}
	m.commitWaiter.Store(&w)
}

// waitReplicated applies the installed commit waiter, if any.
func (m *Manager) waitReplicated(pos Pos) error {
	if w := m.commitWaiter.Load(); w != nil {
		return (*w)(pos)
	}
	return nil
}

// Log implements storage.CommitLogger: it appends the change's record
// (called under the store lock that orders the change, so append order is
// apply order) and returns the wait for group-commit durability, then for
// semi-sync replication. The time a committer parks in the durability wait
// feeds the commit_wait stage histogram — the durability share of
// end-to-end DML latency.
func (m *Manager) Log(c *storage.Change) (func() error, error) {
	lsn, end, err := m.activeLog().append(encodeRecord(c))
	if err != nil {
		return nil, err
	}
	commit := c.Kind == storage.ChangeCommit
	return func() error {
		waitStart := time.Now()
		err := m.activeLog().waitDurable(lsn)
		if commit {
			m.metrics.Hist().RecordCommitWait(time.Since(waitStart).Nanoseconds())
		}
		if err != nil {
			return err
		}
		return m.waitReplicated(end)
	}, nil
}

// Epoch returns the cluster fencing epoch: the highest epoch record known
// durable in this log (0 when the node has never been fenced).
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// SetEpoch bumps the fencing epoch: it appends an epoch record, waits for
// it to be durable, and only then exposes the new value. Promotion calls it
// before accepting the first write, so a node that claims an epoch and then
// crashes still claims it after recovery. The epoch is strictly monotonic.
func (m *Manager) SetEpoch(e uint64) error {
	if cur := m.epoch.Load(); e <= cur {
		return fmt.Errorf("wal: epoch %d does not advance the current epoch %d", e, cur)
	}
	lsn, _, err := m.activeLog().append(encodeRecord(&storage.Change{Kind: recEpoch, TS: e}))
	if err != nil {
		return err
	}
	if err := m.activeLog().waitDurable(lsn); err != nil {
		return err
	}
	m.epoch.Store(e)
	return nil
}

// AdoptEpoch raises the in-memory epoch to e when higher, without logging a
// record. The replica apply loop uses it for streamed epoch records (the
// record is already in the mirror log) and resync uses it for the epoch
// carried by the shipped snapshot's stream position.
func (m *Manager) AdoptEpoch(e uint64) {
	for {
		cur := m.epoch.Load()
		if e <= cur || m.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Checkpoint writes a durable physical snapshot and prunes the log behind
// it: cut an image at commit clock C (see cutImage), then remove the sealed
// segments below the retention floor (see removeSegmentsBelow).
//
// A crash between any two steps recovers: the image and the log overlap
// rather than gap, and replay skips records the image already covers.
func (m *Manager) Checkpoint() (CheckpointStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return CheckpointStats{}, fmt.Errorf("wal: manager is closed")
	}
	if err := faultinject.Fire("wal.checkpoint"); err != nil {
		return CheckpointStats{}, err
	}
	clock, err := m.cutImage("wal.checkpoint.snapshot")
	if err != nil {
		return CheckpointStats{}, err
	}
	if err := faultinject.Fire("wal.checkpoint.prune"); err != nil {
		return CheckpointStats{}, err
	}
	// A connected replica may still need sealed segments the image now
	// covers: prune only below the retention floor, never the active one.
	return m.pruneBelow(m.pruneFloor(m.activeLog().activeSeq()), clock)
}

// cutImage is the one checkpoint cut, shared by Checkpoint and ShipState
// (the caller holds m.mu):
//
//  1. rotate the log under the store's commit lock, capturing the commit
//     clock C — every record with a timestamp at or below C now sits in a
//     sealed segment, every later record in the new one,
//  2. re-announce the fencing epoch at the head of the fresh segment and
//     wait for it to be durable: a prune may remove the only segment
//     carrying it, a resyncing replica mirrors from the fresh segment, and
//     the image does not record epochs,
//  3. write the physical image as of C (atomic tmp+fsync+rename, so the
//     previous image survives any failure).
//
// imageFault names the fault point fired between 2 and 3; ShipState has
// none and passes "", which no test can arm.
func (m *Manager) cutImage(imageFault string) (clock uint64, err error) {
	var epochLSN uint64
	m.store.WithCommitLock(func(c uint64) {
		clock = c
		if err = m.activeLog().rotate(); err != nil {
			return
		}
		if e := m.epoch.Load(); e > 0 {
			epochLSN, _, err = m.activeLog().append(encodeRecord(&storage.Change{Kind: recEpoch, TS: e}))
		}
	})
	if err != nil {
		return 0, fmt.Errorf("wal: rotate log: %w", err)
	}
	if epochLSN != 0 {
		if err := m.activeLog().waitDurable(epochLSN); err != nil {
			return 0, err
		}
	}
	if err := faultinject.Fire(imageFault); err != nil {
		return 0, err
	}
	if err := persist.SavePhysicalFile(m.store, filepath.Join(m.dir, snapshotFile), clock); err != nil {
		return 0, fmt.Errorf("wal: write checkpoint image: %w", err)
	}
	return clock, nil
}

// pruneBelow finishes a checkpoint whose image at clock is durable: it
// removes the segments below keep and counts the checkpoint.
func (m *Manager) pruneBelow(keep, clock uint64) (CheckpointStats, error) {
	removed, err := removeSegmentsBelow(m.dir, keep)
	if err != nil {
		return CheckpointStats{}, err
	}
	m.metrics.Checkpoints.Add(1)
	return CheckpointStats{Clock: clock, SegmentsRemoved: removed}, nil
}

// Close drains and fsyncs the log and stops the flusher. The manager stays
// installed as the store's commit logger, so a commit attempted after
// Close fails cleanly instead of silently skipping durability.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.activeLog().close()
}
