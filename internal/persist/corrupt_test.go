package persist

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// image serializes the test store to a logical image in memory.
func image(t *testing.T, s *storage.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(s, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsBitFlips flips one byte at a spread of positions across
// the image — magic, header, table metadata, row payload, CRC trailer —
// and requires every mutation to surface as a *CorruptImageError. The CRC
// covers the whole image, so no single-byte flip may load.
func TestLoadRejectsBitFlips(t *testing.T) {
	data := image(t, buildStore(t))
	// A spread of offsets: every region of a ~100KB image without running
	// 100k subtests.
	offsets := []int{0, 3, 6, 7, 10, 15, 20, 40, 80, len(data) / 2, len(data) - 20, len(data) - 5, len(data) - 1}
	for _, off := range offsets {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x01
		_, err := Load(bytes.NewReader(mutated))
		if err == nil {
			t.Errorf("flip at %d: image loaded successfully", off)
			continue
		}
		var ce *CorruptImageError
		if !errors.As(err, &ce) {
			t.Errorf("flip at %d: error %v, want *CorruptImageError", off, err)
		}
	}
}

// TestLoadRejectsTruncation truncates the image at a spread of lengths;
// every prefix must fail with a *CorruptImageError naming an offset within
// the data.
func TestLoadRejectsTruncation(t *testing.T) {
	data := image(t, buildStore(t))
	for _, n := range []int{0, 1, 5, 6, 7, 14, 18, 30, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1} {
		_, err := Load(bytes.NewReader(data[:n]))
		if err == nil {
			t.Errorf("truncation to %d bytes: image loaded successfully", n)
			continue
		}
		var ce *CorruptImageError
		if !errors.As(err, &ce) {
			t.Errorf("truncation to %d: error %v, want *CorruptImageError", n, err)
			continue
		}
		if ce.Offset < 0 || ce.Offset > int64(len(data)) {
			t.Errorf("truncation to %d: error offset %d out of range", n, ce.Offset)
		}
	}
}

func TestLoadFileDistinguishesMissingFromCorrupt(t *testing.T) {
	dir := t.TempDir()

	// Missing file: fs.ErrNotExist (fresh start), not a corruption error.
	_, err := LoadFile(filepath.Join(dir, "nope.db"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: error %v, want fs.ErrNotExist", err)
	}
	var ce *CorruptImageError
	if errors.As(err, &ce) {
		t.Fatalf("missing file misreported as corrupt: %v", err)
	}

	// Damaged file: a typed *CorruptImageError naming the path, never
	// fs.ErrNotExist.
	path := filepath.Join(dir, "bad.db")
	data := image(t, buildStore(t))
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(path)
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt file: error %v, want *CorruptImageError", err)
	}
	if ce.Path != path {
		t.Errorf("CorruptImageError.Path = %q, want %q", ce.Path, path)
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Error("corrupt file misreported as not-exist")
	}
}

// TestPhysicalRoundTrip checks the checkpoint image kind: physical row
// positions, version stamps (including dead rows), the commit clock, and
// table incarnation IDs all survive a save/load cycle.
func TestPhysicalRoundTrip(t *testing.T) {
	s := storage.NewStore()
	tbl, err := s.CreateTable("t", types.Schema{{Name: "x", Type: types.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(vals ...int64) {
		t.Helper()
		tx := s.Begin()
		b := types.NewBatch(tbl.Schema())
		for _, v := range vals {
			b.AppendRow([]types.Value{types.NewInt(v)})
		}
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	insert(10, 20, 30) // ts 1
	tx := s.Begin()
	if err := tx.Delete(tbl, 1); err != nil { // kill value 20
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil { // ts 2
		t.Fatal(err)
	}
	insert(40) // ts 3

	var buf bytes.Buffer
	if err := SavePhysical(s, &buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Snapshot(), s.Snapshot(); got != want {
		t.Errorf("restored clock %d, want %d", got, want)
	}
	tbl2, err := s2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.ID() != tbl.ID() {
		t.Errorf("restored incarnation ID %d, want %d", tbl2.ID(), tbl.ID())
	}
	// Dead rows keep their physical slots: 4 physical, 3 visible now, and
	// the pre-delete snapshot still sees the deleted row.
	if got := tbl2.PhysicalRows(); got != 4 {
		t.Errorf("physical rows = %d, want 4", got)
	}
	if got := tbl2.NumRows(s2.Snapshot()); got != 3 {
		t.Errorf("visible rows = %d, want 3", got)
	}
	if got := tbl2.NumRows(1); got != 3 { // at ts 1: rows 10,20,30 all live
		t.Errorf("rows visible at ts 1 = %d, want 3", got)
	}
	if got := tbl2.NumRows(2); got != 2 { // after the delete, before insert 40
		t.Errorf("rows visible at ts 2 = %d, want 2", got)
	}

	// A physical image cut at an earlier clock excludes later rows.
	var buf2 bytes.Buffer
	if err := SavePhysical(s, &buf2, 2); err != nil {
		t.Fatal(err)
	}
	s3, err := Load(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	tbl3, err := s3.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl3.PhysicalRows(); got != 3 {
		t.Errorf("clock-2 image physical rows = %d, want 3 (row 40 is newer)", got)
	}
	if got := s3.Snapshot(); got != 2 {
		t.Errorf("clock-2 image clock = %d, want 2", got)
	}
}

// allocatedBy returns the bytes fn allocates (freed or not).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersValidateBeforeAllocating feeds the decoders a few hostile
// bytes that declare a huge string and a huge null vector: each must be
// rejected against the bytes actually left, before anything of the declared
// size is allocated.
func TestDecodersValidateBeforeAllocating(t *testing.T) {
	const bound = 64 << 10
	hugeString := []byte{0xff, 0xff, 0xff, 0x3f, 'x'} // length 1<<30 - 1, one byte follows
	if got := allocatedBy(func() {
		if _, err := ReadString(bytes.NewReader(hugeString)); err == nil {
			t.Error("ReadString accepted a length larger than the remaining bytes")
		}
	}); got > bound {
		t.Errorf("ReadString allocated %d bytes for a 5-byte input", got)
	}

	schema := types.Schema{{Name: "a", Type: types.Bool}}
	hugeBatch := []byte{0x00, 0x00, 0x00, 0x01, 1, 0, 0, 0, 0} // 1<<24 rows, null vector present
	if got := allocatedBy(func() {
		if _, err := ReadBatch(bytes.NewReader(hugeBatch), schema); err == nil {
			t.Error("ReadBatch accepted a row count larger than the remaining bytes")
		}
	}); got > bound {
		t.Errorf("ReadBatch allocated %d bytes for a 9-byte input", got)
	}
}

// TestBatchRoundTripEdgeCases pins the two places the batch decoder used to
// be laxer than the encoder: an empty batch is the bare row count, and a
// boolean byte is 0 or 1.
func TestBatchRoundTripEdgeCases(t *testing.T) {
	schema := types.Schema{{Name: "a", Type: types.Bool}, {Name: "b", Type: types.Int64}}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, types.NewBatch(schema)); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	if b, err := ReadBatch(r, schema); err != nil || b.Len() != 0 || r.Len() != 0 {
		t.Fatalf("empty batch: %v, %d bytes unread", err, r.Len())
	}
	if _, err := ReadBatch(bytes.NewReader([]byte{1, 0, 0, 0, 0, 2}), schema[:1]); err == nil {
		t.Error("a boolean byte of 2 was accepted")
	}
}
