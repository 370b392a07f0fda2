package wal

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"lambdadb/internal/persist"
)

// This file is the replica-side surface: a replica keeps a byte-identical
// mirror of the primary's log (same segment sequences, same offsets) so
// that crash recovery, positional resume, and checkpointing all reuse the
// ordinary single-node machinery. The replication stream (internal/repl)
// drives it record by record.

// ErrDiverged reports that the local log no longer mirrors the primary's —
// a record landed at an unexpected offset or a rotation produced the wrong
// sequence number. The only safe continuation is a full snapshot resync.
var ErrDiverged = errors.New("wal: local log diverged from the primary's")

// ReplicaMode detaches the manager from the store's commit hooks. On a
// replica the log is a mirror of the primary's, written by AppendMirror;
// locally-applied records (ApplyStreamed calling into the store) must not
// be logged a second time, or the mirror would diverge.
func (m *Manager) ReplicaMode() { m.store.SetCommitLogger(nil) }

// PrimaryMode reinstalls the manager as the store's commit logger,
// reversing ReplicaMode. Promotion calls it once the replication stream is
// stopped and before the first local write.
func (m *Manager) PrimaryMode() { m.store.SetCommitLogger(m) }

// AppendMirror appends one record shipped by the primary, verifying it
// against the primary's framing: the CRC must match the payload and the
// record must end exactly at wantEnd in the active segment. It returns the
// group-commit durability wait (acks to the primary must not be sent
// before it succeeds). A position mismatch returns ErrDiverged — the
// record is then already mis-placed locally, so the caller must resync.
func (m *Manager) AppendMirror(payload []byte, wantEnd int64, wantCRC uint32) (func() error, error) {
	if got := RecordCRC(payload); got != wantCRC {
		return nil, fmt.Errorf("wal: shipped record checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	lsn, end, err := m.activeLog().append(payload)
	if err != nil {
		return nil, err
	}
	if end.Off != wantEnd {
		return nil, fmt.Errorf("%w: record ends at offset %d locally, %d on the primary", ErrDiverged, end.Off, wantEnd)
	}
	return func() error { return m.activeLog().waitDurable(lsn) }, nil
}

// SealMirror rotates the mirror to segment next, mirroring a rotation on
// the primary. Rotation always advances the sequence by one, so any other
// next means the stream and the local log disagree.
func (m *Manager) SealMirror(next uint64) error {
	if got := m.activeLog().activeSeq() + 1; got != next {
		return fmt.Errorf("%w: primary sealed to segment %d, local log would seal to %d", ErrDiverged, next, got)
	}
	return m.activeLog().rotate()
}

// ApplyStreamed decodes one shipped record and applies it to the store
// through Store.Replay, reporting whether it had an effect. The replay
// floor is the live clock: a commit at or below it is skipped, not an
// error, because the stream legitimately overlaps what local recovery
// already replayed; catalog changes whose effect is present are skipped by
// Replay's own rules.
func (m *Manager) ApplyStreamed(payload []byte) (applied bool, err error) {
	var scratch RecoverySummary
	if err := replayRecord(m.dir, "replication-stream", m.store, m.store.Snapshot(), &scratch, payload); err != nil {
		return false, err
	}
	// A streamed epoch record fences this replica forward; the record is
	// already in the mirror log via AppendMirror, so only the in-memory
	// value needs raising.
	if scratch.Epoch > 0 {
		m.AdoptEpoch(scratch.Epoch)
	}
	return scratch.RecordsSkipped == 0, nil
}

// SnapshotPrune is the replica's checkpoint: it writes a durable image at
// the applied clock and prunes sealed segments behind the active one,
// without rotating — rotation is driven by the stream (SealMirror) so the
// mirror stays aligned with the primary. The apply loop calls it at seal
// boundaries, when everything in the sealed segments is already applied.
func (m *Manager) SnapshotPrune() (CheckpointStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return CheckpointStats{}, fmt.Errorf("wal: manager is closed")
	}
	var clock uint64
	m.store.WithCommitLock(func(c uint64) { clock = c })
	if err := persist.SavePhysicalFile(m.store, filepath.Join(m.dir, snapshotFile), clock); err != nil {
		return CheckpointStats{}, fmt.Errorf("wal: write checkpoint image: %w", err)
	}
	return m.pruneBelow(m.activeLog().activeSeq(), clock)
}

// ResetForResync discards the replica's entire local state and replaces it
// with a snapshot shipped by the primary: the log is closed, every segment
// is removed, the shipped image atomically replaces the old one and is
// loaded, the store's contents are swapped in place (sessions holding the
// store see the new state; in-flight scans finish against the tables they
// already resolved), and a fresh mirror log is opened at startSeg.
func (m *Manager) ResetForResync(snapshot io.Reader, startSeg uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("wal: manager is closed")
	}
	// A flush failure latched in the old log no longer matters — its
	// contents are about to be deleted.
	m.activeLog().close()

	if _, err := removeSegmentsBelow(m.dir, math.MaxUint64); err != nil {
		return err
	}

	// The atomic write means a crash mid-resync leaves either no image
	// (fresh replica, full resync restarts) or a whole one — never a torn
	// image next to an empty log.
	path := filepath.Join(m.dir, snapshotFile)
	err := persist.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.Copy(w, snapshot)
		return err
	})
	if err != nil {
		return err
	}

	fresh, err := persist.LoadFile(path)
	if err != nil {
		return fmt.Errorf("wal: load resync image: %w", err)
	}
	m.store.AdoptState(fresh)
	m.summary = RecoverySummary{SnapshotLoaded: true, SnapshotClock: m.store.Snapshot()}

	l, err := openLog(m.dir, startSeg, m.metrics)
	if err != nil {
		return err
	}
	m.logMu.Lock()
	m.log = l
	m.logMu.Unlock()
	return nil
}
