package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/storage"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

var errBoom = errors.New("boom")

func intSchema() types.Schema {
	return types.Schema{{Name: "id", Type: types.Int64}}
}

func mustOpen(t *testing.T, dir string) (*storage.Store, *Manager) {
	t.Helper()
	store, mgr, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return store, mgr
}

func intBatch(vals ...int64) *types.Batch {
	b := types.NewBatch(intSchema())
	for _, v := range vals {
		b.AppendRow([]types.Value{types.NewInt(v)})
	}
	return b
}

func commitInsert(t *testing.T, store *storage.Store, name string, vals ...int64) {
	t.Helper()
	tbl, err := store.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	tx := store.Begin()
	if err := tx.Insert(tbl, intBatch(vals...)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func commitDelete(t *testing.T, store *storage.Store, name string, row int) {
	t.Helper()
	tbl, err := store.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	tx := store.Begin()
	if err := tx.Delete(tbl, row); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// rowSet returns the visible id values of a table ({} when it is missing).
func rowSet(t *testing.T, store *storage.Store, name string) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	tbl, err := store.Table(name)
	if err != nil {
		return out
	}
	if err := tbl.Scan(store.Snapshot(), func(b *types.Batch) error {
		for i := 0; i < b.Len(); i++ {
			out[b.Cols[0].Ints[i]] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func wantRows(t *testing.T, store *storage.Store, name string, want ...int64) {
	t.Helper()
	got := rowSet(t, store, name)
	wantSet := map[int64]bool{}
	for _, v := range want {
		wantSet[v] = true
	}
	if len(got) != len(wantSet) {
		t.Fatalf("table %s: got rows %v, want %v", name, got, wantSet)
	}
	for v := range wantSet {
		if !got[v] {
			t.Fatalf("table %s: missing row %d (got %v)", name, v, got)
		}
	}
}

func TestDurableCycle(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1, 2, 3)
	commitDelete(t, store, "t", 0) // physical row 0 = value 1
	commitInsert(t, store, "t", 4)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	s := mgr2.Summary()
	if s.SnapshotLoaded {
		t.Error("no checkpoint was taken, but a snapshot was loaded")
	}
	if s.CommitsReplayed != 3 || s.DDLReplayed != 1 {
		t.Errorf("summary = %+v, want 3 commits and 1 DDL replayed", s)
	}
	if s.TornTailTruncated {
		t.Errorf("clean shutdown reported a torn tail: %+v", s)
	}
	wantRows(t, store2, "t", 2, 3, 4)
	if got, want := store2.Snapshot(), store.Snapshot(); got != want {
		t.Errorf("recovered clock %d, want %d", got, want)
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("t")
	tx := store.Begin()
	if err := tx.Insert(tbl, intBatch(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after Close succeeded; it must fail (log is closed)")
	}
	if got := store.Snapshot(); got != 1 {
		t.Errorf("failed commit advanced the clock to %d", got)
	}
}

func TestCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1, 2)
	commitDelete(t, store, "t", 0)
	stats, err := mgr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clock != store.Snapshot() {
		t.Errorf("checkpoint clock %d, want %d", stats.Clock, store.Snapshot())
	}
	if stats.SegmentsRemoved != 1 {
		t.Errorf("SegmentsRemoved = %d, want 1", stats.SegmentsRemoved)
	}
	commitInsert(t, store, "t", 3)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	s := mgr2.Summary()
	if !s.SnapshotLoaded || s.SnapshotClock != stats.Clock {
		t.Errorf("summary = %+v, want snapshot at clock %d", s, stats.Clock)
	}
	if s.CommitsReplayed != 1 {
		t.Errorf("CommitsReplayed = %d, want 1 (only the post-checkpoint insert)", s.CommitsReplayed)
	}
	wantRows(t, store2, "t", 2, 3)

	// The delete of physical row 0 happened before the checkpoint; a new
	// delete of physical row 1 (value 2) must resolve against the restored
	// physical layout.
	commitDelete(t, store2, "t", 1)
	wantRows(t, store2, "t", 3)
}

// TestRecoverWithoutClose reopens a directory whose previous manager was
// never closed — the in-process stand-in for a crash: every acknowledged
// commit was fsynced before Commit returned, so all of them must survive.
func TestRecoverWithoutClose(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir) // leaked deliberately
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 10, 20)
	commitInsert(t, store, "t", 30)

	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	wantRows(t, store2, "t", 10, 20, 30)
}

func TestDropCreateIncarnations(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1)
	if err := store.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 2)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	// Only the second incarnation's rows exist; the insert of 1 targeted the
	// dropped incarnation and must not leak into the new table.
	wantRows(t, store2, "t", 2)
}

// TestDropCreateAroundCheckpoint checkpoints between the two incarnations,
// so the image holds the new incarnation while the log still carries the
// old one's records; the incarnation IDs keep them apart.
func TestDropCreateAroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1)
	if _, err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 2)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	wantRows(t, store2, "t", 2)
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	defer mgr.Close()
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("t")

	const workers = 16
	const each = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := store.Begin()
				if err := tx.Insert(tbl, intBatch(int64(w*each+i))); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := rowSet(t, store, "t"); len(got) != workers*each {
		t.Fatalf("got %d rows, want %d", len(got), workers*each)
	}
	appends := mgr.metrics.WalAppends.Load()
	fsyncs := mgr.metrics.WalFsyncs.Load()
	if appends != workers*each+1 { // +1 for the CREATE TABLE record
		t.Errorf("WalAppends = %d, want %d", appends, workers*each+1)
	}
	if fsyncs < 1 || fsyncs > appends {
		t.Errorf("WalFsyncs = %d, out of range [1, %d]", fsyncs, appends)
	}
	t.Logf("group commit: %d appends, %d fsyncs (%.2f appends/fsync)",
		appends, fsyncs, float64(appends)/float64(fsyncs))

	// Everything survives recovery.
	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	if got := rowSet(t, store2, "t"); len(got) != workers*each {
		t.Fatalf("recovered %d rows, want %d", len(got), workers*each)
	}
}

func TestAppendFaultFailsCommitCleanly(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	defer mgr.Close()
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1)

	faultinject.FailOnce("wal.append", errBoom)
	tbl, _ := store.Table("t")
	tx := store.Begin()
	if err := tx.Insert(tbl, intBatch(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, errBoom) {
		t.Fatalf("commit error = %v, want errBoom", err)
	}
	// Nothing was applied or logged; the next commit works and recovery
	// agrees.
	wantRows(t, store, "t", 1)
	commitInsert(t, store, "t", 3)
	mgr.Close()
	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	wantRows(t, store2, "t", 1, 3)
}

func TestFsyncFaultLatchesLogFailed(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1)

	faultinject.Set("wal.fsync", func() error { return errBoom })
	tbl, _ := store.Table("t")
	tx := store.Begin()
	if err := tx.Insert(tbl, intBatch(2)); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
	if err == nil || !strings.Contains(err.Error(), "not confirmed durable") {
		t.Fatalf("commit error = %v, want a not-confirmed-durable failure", err)
	}
	// The failure is sticky: no later commit can be acknowledged past the
	// gap, even after the fault clears.
	faultinject.Reset()
	tx2 := store.Begin()
	if err := tx2.Insert(tbl, intBatch(3)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit after a durability failure succeeded; the log must stay failed")
	}
	mgr.Close()
}

// TestFlusherNeverWritesPastLatchedFailure pins the group-commit flusher's
// failure contract: once a write/fsync fails, records buffered behind the
// failed batch must never reach disk. If the flusher wrote them anyway,
// durableLSN would advance over the failed batch's LSNs (acknowledging
// commits whose bytes never made it) and the segment would carry frames
// behind a gap, which recovery reads as a mid-segment tear.
func TestFlusherNeverWritesPastLatchedFailure(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := openLog(dir, 1, &telemetry.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	faultinject.Set("wal.write", func() error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			return errBoom
		}
		return nil
	})

	lsnA, _, err := l.append([]byte("record-A"))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the flusher holds batch A and is about to fail its write

	// B is buffered before the failure latches; it must be dropped, never
	// written behind the failed batch.
	lsnB, _, err := l.append([]byte("record-B"))
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	if err := l.waitDurable(lsnA); !errors.Is(err, errBoom) {
		t.Errorf("waitDurable(A) = %v, want errBoom", err)
	}
	if err := l.waitDurable(lsnB); !errors.Is(err, errBoom) {
		t.Errorf("waitDurable(B) = %v, want errBoom (B must not be acknowledged past the failed batch)", err)
	}
	if _, _, err := l.append([]byte("record-C")); !errors.Is(err, errBoom) {
		t.Errorf("append after failure = %v, want errBoom", err)
	}
	if err := l.close(); !errors.Is(err, errBoom) {
		t.Errorf("close = %v, want the latched errBoom", err)
	}

	// Nothing after the segment header may be on disk: the failed batch was
	// rejected before writing, and the flusher must not have written B.
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != segHeaderLen {
		t.Errorf("segment holds %d bytes, want the bare header (%d): the flusher wrote past a latched failure", len(data), segHeaderLen)
	}
}

// TestAppendRejectsOversizedPayload: a payload recovery would reject as
// implausible must fail at append time instead of being acknowledged
// durable and then dropped by replay.
func TestAppendRejectsOversizedPayload(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, &telemetry.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.append(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("append accepted a payload larger than maxRecordLen")
	}
	// The rejection is a per-record error, not a log failure: the log keeps
	// accepting ordinary appends.
	lsn, _, err := l.append([]byte("small"))
	if err != nil {
		t.Fatalf("append after oversize rejection: %v", err)
	}
	if err := l.waitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// TestRotateToleratesLeftoverNextSegment simulates a rotate/checkpoint that
// died after creating the next segment file (empty, a partial header, or a
// complete header — e.g. failing in syncDir): the retried rotate must reuse
// the file without appending a second header, which recovery would parse as
// a torn frame and use to truncate acknowledged records behind it.
func TestRotateToleratesLeftoverNextSegment(t *testing.T) {
	cases := []struct {
		name    string
		content func(t *testing.T, path string)
	}{
		{"empty-file", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"partial-header", func(t *testing.T, path string) {
			if err := os.WriteFile(path, segMagic[:3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"full-header", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := writeSegmentHeader(f, 2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			store, mgr := mustOpen(t, dir)
			if _, err := store.CreateTable("t", intSchema()); err != nil {
				t.Fatal(err)
			}
			commitInsert(t, store, "t", 1)

			c.content(t, segmentPath(dir, 2))
			if _, err := mgr.Checkpoint(); err != nil { // rotates into segment 2
				t.Fatal(err)
			}
			commitInsert(t, store, "t", 2)
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}

			store2, mgr2 := mustOpen(t, dir)
			defer mgr2.Close()
			if s := mgr2.Summary(); s.TornTailTruncated {
				t.Errorf("leftover segment file read as torn after rotate: %+v", s)
			}
			wantRows(t, store2, "t", 1, 2)
		})
	}
}

// segments with several committed records, used by the torn-tail tests.
func buildTornFixture(t *testing.T) (dir string, boundaries []int64, segPath string) {
	t.Helper()
	dir = t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	for j := int64(0); j < 5; j++ {
		commitInsert(t, store, "t", 100+j)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	segPath = segmentPath(dir, 1)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	boundaries = []int64{segHeaderLen}
	off := int64(segHeaderLen)
	for off < int64(len(data)) {
		l := int64(binary.LittleEndian.Uint32(data[off:]))
		off += frameHeader + l
		boundaries = append(boundaries, off)
	}
	if len(boundaries) != 7 { // header + 1 DDL + 5 commits
		t.Fatalf("fixture has %d record boundaries, want 7", len(boundaries))
	}
	return dir, boundaries, segPath
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// expectPrefix asserts that a recovered store reflects exactly the first
// whole records of the fixture: record 0 is the CREATE TABLE, records 1..k
// insert 100..100+k-1.
func expectPrefix(t *testing.T, store *storage.Store, records int) {
	t.Helper()
	if records == 0 {
		if names := store.TableNames(); len(names) != 0 {
			t.Fatalf("no records survived, but tables exist: %v", names)
		}
		return
	}
	vals := make([]int64, 0, records-1)
	for j := 0; j < records-1; j++ {
		vals = append(vals, 100+int64(j))
	}
	wantRows(t, store, "t", vals...)
}

// TestTornTail exercises every interesting corruption of the final
// segment: truncation at each record boundary (clean), truncation inside
// each record's frame header and payload (torn, truncated back to the
// record's start), and a bit flip inside each record (CRC mismatch, same
// truncation). Recovery must keep exactly the whole-record prefix.
func TestTornTail(t *testing.T) {
	src, boundaries, _ := buildTornFixture(t)
	nRecords := len(boundaries) - 1

	type tc struct {
		name        string
		mutate      func(t *testing.T, path string)
		wantRecords int
		wantTorn    bool
	}
	var cases []tc
	for i := 0; i < nRecords; i++ {
		i := i
		start, end := boundaries[i], boundaries[i+1]
		cases = append(cases,
			tc{
				name:        fmt.Sprintf("truncate-at-boundary-%d", i),
				mutate:      func(t *testing.T, p string) { truncate(t, p, start) },
				wantRecords: i,
				wantTorn:    false,
			},
			tc{
				name:        fmt.Sprintf("truncate-mid-header-%d", i),
				mutate:      func(t *testing.T, p string) { truncate(t, p, start+frameHeader-2) },
				wantRecords: i,
				wantTorn:    true,
			},
			tc{
				name:        fmt.Sprintf("truncate-mid-payload-%d", i),
				mutate:      func(t *testing.T, p string) { truncate(t, p, end-1) },
				wantRecords: i,
				wantTorn:    true,
			},
			tc{
				name:        fmt.Sprintf("bitflip-payload-%d", i),
				mutate:      func(t *testing.T, p string) { flipByte(t, p, start+frameHeader) },
				wantRecords: i,
				wantTorn:    true,
			},
			tc{
				name:        fmt.Sprintf("bitflip-length-%d", i),
				mutate:      func(t *testing.T, p string) { flipByte(t, p, start+2) },
				wantRecords: i,
				wantTorn:    true,
			},
		)
	}
	// Whole file intact: all records.
	cases = append(cases, tc{
		name:        "intact",
		mutate:      func(*testing.T, string) {},
		wantRecords: nRecords,
		wantTorn:    false,
	})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := copyDir(t, src)
			c.mutate(t, segmentPath(dir, 1))
			store, mgr, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer mgr.Close()
			s := mgr.Summary()
			if s.TornTailTruncated != c.wantTorn {
				t.Errorf("TornTailTruncated = %v, want %v (summary %+v)", s.TornTailTruncated, c.wantTorn, s)
			}
			if c.wantTorn && (s.TornSegment != filepath.Base(segmentPath(dir, 1)) ||
				s.TornOffset != boundaries[c.wantRecords] || s.TornReason == "") {
				t.Errorf("torn tail reported as %+v, want segment 1 cut at byte %d with a reason", s, boundaries[c.wantRecords])
			}
			expectPrefix(t, store, c.wantRecords)

			// The directory must be clean after recovery: a second open sees
			// no torn tail and the same state.
			mgr.Close()
			store2, mgr2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("second Open: %v", err)
			}
			defer mgr2.Close()
			if s2 := mgr2.Summary(); s2.TornTailTruncated {
				t.Errorf("second open still sees a torn tail: %+v", s2)
			}
			expectPrefix(t, store2, c.wantRecords)
		})
	}
}

func truncate(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= int64(len(data)) {
		t.Fatalf("flip offset %d beyond file size %d", off, len(data))
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedEarlierSegmentIsAmbiguous builds two segments (a checkpoint
// whose snapshot write fails leaves the rotated segment behind), corrupts
// the sealed one, and requires recovery to refuse with an
// *AmbiguousStateError instead of truncating away acknowledged commits.
func TestDamagedEarlierSegmentIsAmbiguous(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1)
	faultinject.FailOnce("wal.checkpoint.snapshot", errBoom)
	if _, err := mgr.Checkpoint(); !errors.Is(err, errBoom) {
		t.Fatalf("checkpoint error = %v, want errBoom", err)
	}
	faultinject.Reset()
	commitInsert(t, store, "t", 2) // lands in segment 2
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Sanity: an undamaged two-segment directory recovers fine.
	store2, mgr2 := mustOpen(t, copyDirHelper(t, dir))
	if s := mgr2.Summary(); s.Segments != 2 {
		t.Errorf("Segments = %d, want 2", s.Segments)
	}
	wantRows(t, store2, "t", 1, 2)
	mgr2.Close()

	// Damage inside the sealed first segment: hard refusal.
	flipByte(t, segmentPath(dir, 1), segHeaderLen+frameHeader+2)
	_, _, err := Open(dir, Options{})
	var amb *AmbiguousStateError
	if !errors.As(err, &amb) {
		t.Fatalf("Open = %v, want *AmbiguousStateError", err)
	}
	if amb.Segment != filepath.Base(segmentPath(dir, 1)) || amb.Offset != segHeaderLen || amb.Reason == "" {
		t.Errorf("ambiguous state = %+v, want the first segment at its first record with a reason", amb)
	}
}

func copyDirHelper(t *testing.T, src string) string { return copyDir(t, src) }

// TestCrashBetweenSnapshotAndPrune simulates a crash after the checkpoint
// image is durable but before the old segments were pruned: replay must
// skip the records the image already covers.
func TestCrashBetweenSnapshotAndPrune(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1, 2)
	faultinject.FailOnce("wal.checkpoint.prune", errBoom)
	if _, err := mgr.Checkpoint(); !errors.Is(err, errBoom) {
		t.Fatalf("checkpoint error = %v, want errBoom", err)
	}
	faultinject.Reset()
	commitInsert(t, store, "t", 3)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	s := mgr2.Summary()
	if !s.SnapshotLoaded {
		t.Fatalf("snapshot not loaded: %+v", s)
	}
	if s.RecordsSkipped == 0 {
		t.Errorf("RecordsSkipped = 0, want > 0 (old segments overlap the image); summary %+v", s)
	}
	wantRows(t, store2, "t", 1, 2, 3)
}

// TestDuplicateCommitRecordIsAmbiguous: a commit record that appears twice
// above the image clock is a log recovery must not trust — the replay floor
// only skips commits the image already holds, it cannot hide a duplicate.
func TestDuplicateCommitRecordIsAmbiguous(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1)
	if _, err := mgr.Checkpoint(); err != nil { // image at clock 1, log now in segment 2
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 2)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	for off := int64(segHeaderLen); off < int64(len(data)); {
		end := off + frameHeader + int64(binary.LittleEndian.Uint32(data[off:]))
		last, off = data[off:end], end
	}
	if err := os.WriteFile(path, append(data, last...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	var amb *AmbiguousStateError
	if !errors.As(err, &amb) || !strings.Contains(amb.Reason, "duplicated") {
		t.Fatalf("Open = %v, want an *AmbiguousStateError for the duplicated commit", err)
	}
}

// TestDeleteOfDeadRowRecovers: deleting a row that was already dead at the
// transaction's snapshot is a no-op commit, and recovery agrees — the
// record must not carry a delete that replay would find already stamped.
func TestDeleteOfDeadRowRecovers(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	commitInsert(t, store, "t", 1, 2)
	commitDelete(t, store, "t", 0)
	commitDelete(t, store, "t", 0)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	wantRows(t, store2, "t", 2)
	if got, want := store2.Snapshot(), store.Snapshot(); got != want {
		t.Errorf("recovered clock %d, want %d", got, want)
	}
}

func TestSegmentGapIsAmbiguous(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{1, 3} {
		if err := os.WriteFile(segmentPath(dir, seq), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := Open(dir, Options{})
	var amb *AmbiguousStateError
	if !errors.As(err, &amb) {
		t.Fatalf("Open = %v, want *AmbiguousStateError for the sequence gap", err)
	}
	if !strings.Contains(amb.Reason, "gap") {
		t.Errorf("reason = %q, want a sequence-gap explanation", amb.Reason)
	}
}

// TestRotateKeepsRecordsOrdered hammers commits while checkpoints rotate
// the log concurrently, then recovers and checks nothing was lost. Run
// with -race this also exercises the rotation/flusher locking.
func TestRotateKeepsRecordsOrdered(t *testing.T) {
	dir := t.TempDir()
	store, mgr := mustOpen(t, dir)
	if _, err := store.CreateTable("t", intSchema()); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("t")

	const committers = 4
	const each = 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent checkpointer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := mgr.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	var cwg sync.WaitGroup
	for w := 0; w < committers; w++ {
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			for i := 0; i < each; i++ {
				tx := store.Begin()
				if err := tx.Insert(tbl, intBatch(int64(w*each+i))); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2, mgr2 := mustOpen(t, dir)
	defer mgr2.Close()
	if got := rowSet(t, store2, "t"); len(got) != committers*each {
		t.Fatalf("recovered %d rows, want %d", len(got), committers*each)
	}
}
