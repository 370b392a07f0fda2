package wal

import (
	"fmt"
	"path/filepath"
)

// This file is the primary-side surface the replication shipper
// (internal/repl) builds on: positional reads of durable log bytes,
// wakeups when the durable position advances, checkpoint/prune
// coordination with replica positions, and snapshot shipping for a
// replica that fell behind the retained log.

// Dir returns the data directory the manager owns.
func (m *Manager) Dir() string { return m.dir }

// DurablePos returns the position confirmed on disk. Bytes at or below it
// are immutable (flushed batches are never rewritten, rotation only opens
// higher segments), so a shipper may read them from the segment files
// without racing the appender.
func (m *Manager) DurablePos() Pos { return m.activeLog().durablePos() }

// SubscribeDurable registers a wakeup channel that receives a coalesced,
// non-blocking signal whenever the durable position advances (including
// across a rotation) and is closed when the log closes or fails. The
// returned cancel is idempotent.
func (m *Manager) SubscribeDurable() (<-chan struct{}, func()) { return m.activeLog().subscribe() }

// SegmentRetainer lets the replication layer hold sealed segments back
// from checkpoint pruning while a connected replica still needs them.
type SegmentRetainer interface {
	// MinSegment returns the lowest segment sequence that must survive a
	// prune, given the active segment. Returning active (or anything
	// higher) releases every sealed segment.
	MinSegment(active uint64) uint64
}

// SetSegmentRetainer installs the prune hook consulted by Checkpoint.
func (m *Manager) SetSegmentRetainer(r SegmentRetainer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retainer = r
}

// pruneFloor returns the lowest segment Checkpoint must keep.
func (m *Manager) pruneFloor(active uint64) uint64 {
	if m.retainer == nil {
		return active
	}
	if keep := m.retainer.MinSegment(active); keep < active {
		return keep
	}
	return active
}

// ShipState cuts a fresh checkpoint and hands it to fn for shipping to a
// replica that is too far behind the retained log: it cuts an image at a
// clock boundary (see cutImage) and calls fn with the image path, its clock,
// and the segment the replica must mirror from (every record past the
// image sits in that segment or a later one). The manager lock is held
// throughout — Checkpoint and other resyncs wait, commits do not — so the
// image cannot be overwritten and the start segment cannot be pruned while
// fn streams it; fn should record the replica's new position before
// returning.
func (m *Manager) ShipState(fn func(snapshotPath string, clock, startSeg uint64) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("wal: manager is closed")
	}
	clock, err := m.cutImage("")
	if err != nil {
		return err
	}
	return fn(filepath.Join(m.dir, snapshotFile), clock, m.activeLog().activeSeq())
}
