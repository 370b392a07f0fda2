package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// seedSegment runs a TestDurableCycle-style workload — DDL, inserts with
// NULLs and strings, a delete, index DDL, an epoch bump — and returns the
// bytes of the one segment it wrote.
func seedSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	store, mgr, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	schema := types.Schema{
		{Name: "id", Type: types.Int64}, {Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String}, {Name: "b", Type: types.Bool},
	}
	tbl, err := store.CreateTable("t", schema)
	if err != nil {
		tb.Fatal(err)
	}
	steps := []func(tx *storage.Txn) error{
		func(tx *storage.Txn) error {
			b := types.NewBatch(schema)
			b.AppendRow([]types.Value{types.NewInt(1), types.NewFloat(1.5), types.NewString("one"), types.NewBool(true)})
			b.AppendRow([]types.Value{types.NewInt(2), types.NewNull(types.Float64), types.NewString(""), types.NewBool(false)})
			return tx.Insert(tbl, b)
		},
		func(tx *storage.Txn) error { return tx.Delete(tbl, 0) },
	}
	for _, step := range steps {
		tx := store.Begin()
		if err := step(tx); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := store.CreateIndex(storage.IndexDef{Name: "t_id", Table: "t", Column: "id", Kind: storage.HashIndex}); err != nil {
		tb.Fatal(err)
	}
	if err := store.DropIndex("t_id"); err != nil {
		tb.Fatal(err)
	}
	if err := mgr.SetEpoch(3); err != nil {
		tb.Fatal(err)
	}
	if err := store.DropTable("t"); err != nil {
		tb.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzSegmentFrames drives the one frame reader over arbitrary bytes behind
// a valid segment header with arbitrary bounds. It must never panic, never
// hand fn a payload that is not exactly a checksum-valid frame of the file,
// advance only over contiguous frames, and end either at the limit or at a
// frame boundary below it with an *AmbiguousStateError naming that offset.
func FuzzSegmentFrames(f *testing.F) {
	seed := seedSegment(f)
	body := seed[segHeaderLen:]
	f.Add(body, int64(segHeaderLen), int64(-1))
	f.Add(body, int64(segHeaderLen), int64(len(seed)))
	f.Add(body[:len(body)-3], int64(segHeaderLen), int64(-1)) // torn payload
	f.Add(body[:frameHeader-2], int64(segHeaderLen), int64(-1))
	f.Add(body, int64(3), int64(-1))
	f.Add(body, int64(len(seed)), int64(segHeaderLen))
	f.Add(body, int64(segHeaderLen), int64(len(seed)+100))
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped, int64(segHeaderLen), int64(-1))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte, from, limit int64) {
		data := append(append([]byte(nil), seed[:segHeaderLen]...), body...)
		if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		size := int64(len(data))
		eff := limit
		if limit < 0 {
			eff = size
		}
		valid := segHeaderLen <= from && from <= eff && eff <= size

		prev, calls := from, 0
		got, err := ReadSegmentRecords(dir, 1, from, limit, func(p []byte, next int64) error {
			calls++
			start := next - frameHeader - int64(len(p))
			if start != prev || next > eff {
				t.Fatalf("frame [%d,%d) after boundary %d, limit %d", start, next, prev, eff)
			}
			if len(p) > maxRecordLen || int64(binary.LittleEndian.Uint32(data[start:])) != int64(len(p)) ||
				!bytes.Equal(p, data[start+frameHeader:next]) {
				t.Fatalf("payload at %d is not the frame stored there", start)
			}
			if stored := binary.LittleEndian.Uint32(data[start+4:]); stored != crc32.ChecksumIEEE(p) {
				t.Fatalf("payload at %d handed over with a mismatching checksum", start)
			}
			prev = next
			return nil
		})
		if got != prev {
			t.Fatalf("returned offset %d, last frame boundary %d", got, prev)
		}
		var amb *AmbiguousStateError
		switch {
		case !valid:
			if err == nil || calls != 0 {
				t.Fatalf("from %d limit %d size %d: err %v after %d records, want a refusal", from, limit, size, err, calls)
			}
		case err == nil:
			if got != eff {
				t.Fatalf("stopped at %d short of limit %d without an error", got, eff)
			}
		case !errors.As(err, &amb) || amb.Offset != got || got >= eff || amb.Reason == "":
			t.Fatalf("stop at %d of %d: %v, want an *AmbiguousStateError naming the offset and a reason", got, eff, err)
		}
	})
}

// FuzzDecodeRecord: decodeRecord either refuses a payload or returns a
// record that re-encodes to exactly the bytes it came from — never a panic,
// never a second spelling of the same record.
func FuzzDecodeRecord(f *testing.F) {
	seed := seedSegment(f)
	_, _, err := readFrames(bytes.NewReader(seed), segHeaderLen, int64(len(seed)), func(p []byte, _ int64) error {
		f.Add(append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if got := encodeRecord(rec); !bytes.Equal(got, payload) {
			t.Fatalf("decoded record re-encodes to\n%x\nwant\n%x", got, payload)
		}
	})
}

// TestHostileLengthsAllocateNothing: a frame or record that declares a
// length it does not have is refused before anything of that length is
// allocated, and a delete of a row index no int can hold is refused.
func TestHostileLengthsAllocateNothing(t *testing.T) {
	allocatedBy := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const bound = 512 << 10 // the reader's one 256 KiB buffer, with room

	// DROP TABLE whose name claims 1<<30 - 1 bytes: five bytes in all.
	hostile := []byte{byte(storage.ChangeDropTable), 0xff, 0xff, 0xff, 0x3f}
	if got := allocatedBy(func() {
		if _, err := decodeRecord(hostile); err == nil {
			t.Error("decodeRecord accepted a string longer than the record")
		}
	}); got > bound {
		t.Errorf("decodeRecord allocated %d bytes for a 5-byte record", got)
	}

	// The same five bytes behind a frame header that claims maxRecordLen.
	var frame [frameHeader]byte
	binary.LittleEndian.PutUint32(frame[:], maxRecordLen)
	data := append(frame[:], hostile...)
	if got := allocatedBy(func() {
		off, stop, err := readFrames(bytes.NewReader(data), 0, int64(len(data)), func([]byte, int64) error {
			t.Error("a frame longer than its file was handed over")
			return nil
		})
		if off != 0 || stop == "" || err != nil {
			t.Errorf("readFrames = %d, %q, %v; want a stop at 0", off, stop, err)
		}
	}); got > bound {
		t.Errorf("readFrames allocated %d bytes for a %d-byte input", got, len(data))
	}

	c := &storage.Change{Kind: storage.ChangeCommit, TS: 1, Deletes: []storage.CommitDelete{{Table: "t", TableID: 1, Row: -1}}}
	if _, err := decodeRecord(encodeRecord(c)); err == nil {
		t.Error("decodeRecord accepted a delete whose row index does not fit a non-negative int")
	}
}
