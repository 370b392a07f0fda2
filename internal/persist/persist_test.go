package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// buildStore creates a store with two tables including NULLs and all types.
func buildStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	tbl, err := s.CreateTable("mixed", types.Schema{
		{Name: "i", Type: types.Int64},
		{Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String},
		{Name: "b", Type: types.Bool},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	b := types.NewBatch(tbl.Schema())
	b.AppendRow([]types.Value{types.NewInt(-7), types.NewFloat(2.5), types.NewString("hello"), types.NewBool(true)})
	b.AppendRow([]types.Value{types.NewNull(types.Int64), types.NewFloat(-0.125), types.NewString(""), types.NewBool(false)})
	b.AppendRow([]types.Value{types.NewInt(42), types.NewNull(types.Float64), types.NewNull(types.String), types.NewNull(types.Bool)})
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	big, err := s.CreateTable("big", types.Schema{{Name: "x", Type: types.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	bb := types.NewBatch(big.Schema())
	for i := int64(0); i < 5000; i++ {
		bb.AppendRow([]types.Value{types.NewInt(i)})
	}
	if err := tx.Insert(big, bb); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func allRows(t *testing.T, s *storage.Store, table string) [][]types.Value {
	t.Helper()
	tbl, err := s.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	err = tbl.Scan(s.Snapshot(), func(b *types.Batch) error {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := buildStore(t)
	var buf bytes.Buffer
	if err := Save(src, &buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"mixed", "big"} {
		want := allRows(t, src, table)
		got := allRows(t, dst, table)
		if len(want) != len(got) {
			t.Fatalf("%s: %d rows, want %d", table, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				a, b := want[i][j], got[i][j]
				if a.Null != b.Null || (!a.Null && !a.Equal(b)) {
					t.Fatalf("%s row %d col %d: %v vs %v", table, i, j, a, b)
				}
			}
		}
	}
	// Schemas survive too.
	srcTbl, _ := src.Table("mixed")
	dstTbl, _ := dst.Table("mixed")
	if !srcTbl.Schema().Equal(dstTbl.Schema()) {
		t.Errorf("schema mismatch: %v vs %v", srcTbl.Schema(), dstTbl.Schema())
	}
}

func TestSaveCompactsDeletedRows(t *testing.T) {
	s := buildStore(t)
	tbl, _ := s.Table("big")
	tx := s.Begin()
	for i := 0; i < 100; i++ {
		if err := tx.Delete(tbl, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(s, &buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dstTbl, _ := dst.Table("big")
	if got := dstTbl.PhysicalRows(); got != 4900 {
		t.Errorf("restored physical rows = %d, want 4900 (compacted)", got)
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := buildStore(t)
	path := filepath.Join(t.TempDir(), "db.img")
	if err := SaveFile(s, path); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(allRows(t, dst, "mixed")) != 3 {
		t.Error("file round trip lost rows")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a database image at all")); err == nil {
		t.Error("garbage input should fail")
	}
	if _, err := Load(strings.NewReader("LMDB3\n")); err == nil {
		t.Error("truncated input should fail")
	}
	// Images older than v3 are refused by name, not as garbage.
	for _, old := range []string{"LMDB1", "LMDB2"} {
		_, err := Load(strings.NewReader(old + "\n\x01\x00\x00\x00"))
		var ce *CorruptImageError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, old) || !strings.Contains(ce.Reason, "reads LMDB3") {
			t.Errorf("%s image: got %v, want a *CorruptImageError naming %s and LMDB3", old, err, old)
		}
	}
	// Valid magic and checksum, corrupt body.
	var buf bytes.Buffer
	buf.WriteString("LMDB3\n")
	buf.WriteByte(kindLogical)
	buf.Write(make([]byte, 8))            // clock
	buf.Write([]byte{1, 0, 0, 0})         // one table
	buf.Write([]byte{255, 255, 255, 255}) // absurd name length
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(buf.Bytes())))
	if _, err := Load(&buf); err == nil {
		t.Error("corrupt name length should fail")
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(storage.NewStore(), &buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst.TableNames()) != 0 {
		t.Errorf("tables = %v", dst.TableNames())
	}
}

func TestEmptyTableRoundTrip(t *testing.T) {
	s := storage.NewStore()
	if _, err := s.CreateTable("empty", types.Schema{{Name: "x", Type: types.Float64}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(s, &buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := dst.Table("empty")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows(dst.Snapshot()) != 0 {
		t.Error("empty table gained rows")
	}
}
