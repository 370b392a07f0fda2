package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// seedImages returns the logical and physical images of a store with
// indexes, NULLs of every type and dead rows: a physical image at the
// current clock, one cut below the last delete, and the logical image.
// Each is checked to write back byte for byte.
func seedImages(tb testing.TB) [][]byte {
	tb.Helper()
	s := storage.NewStore()
	schema := types.Schema{
		{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String}, {Name: "b", Type: types.Bool},
	}
	tbl, err := s.CreateTable("mixed", schema)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.CreateTable("empty", types.Schema{{Name: "x", Type: types.Float64}}); err != nil {
		tb.Fatal(err)
	}
	for _, def := range []storage.IndexDef{
		{Name: "mixed_i", Table: "mixed", Column: "i", Kind: storage.HashIndex},
		{Name: "mixed_s", Table: "mixed", Column: "s", Kind: storage.OrderedIndex},
		{Name: "empty_x", Table: "empty", Column: "x", Kind: storage.OrderedIndex},
	} {
		if err := s.CreateIndex(def); err != nil {
			tb.Fatal(err)
		}
	}
	commit := func(fn func(tx *storage.Txn) error) {
		tx := s.Begin()
		if err := fn(tx); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	commit(func(tx *storage.Txn) error {
		b := types.NewBatch(schema)
		b.AppendRow([]types.Value{types.NewInt(-7), types.NewFloat(2.5), types.NewString("hello"), types.NewBool(true)})
		b.AppendRow([]types.Value{types.NewNull(types.Int64), types.NewFloat(math.NaN()), types.NewString(""), types.NewBool(false)})
		b.AppendRow([]types.Value{types.NewInt(42), types.NewNull(types.Float64), types.NewNull(types.String), types.NewNull(types.Bool)})
		b.AppendRow([]types.Value{types.NewInt(3), types.NewFloat(-0.125), types.NewString("three"), types.NewBool(true)})
		return tx.Insert(tbl, b)
	})
	commit(func(tx *storage.Txn) error { return tx.Delete(tbl, 0) })
	cut := s.Snapshot()
	commit(func(tx *storage.Txn) error { return tx.Delete(tbl, 3) })

	var images [][]byte
	for _, save := range []func(*bytes.Buffer) error{
		func(w *bytes.Buffer) error { return SavePhysical(s, w, s.Snapshot()) },
		func(w *bytes.Buffer) error { return SavePhysical(s, w, cut) },
		func(w *bytes.Buffer) error { return Save(s, w) },
	} {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			tb.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			tb.Fatal(err)
		}
		if got := resave(tb, loaded, buf.Bytes()); !bytes.Equal(got, buf.Bytes()) {
			tb.Fatalf("a written image does not write back byte for byte:\n%x\nwant\n%x", got, buf.Bytes())
		}
		images = append(images, buf.Bytes())
	}
	return images
}

// resave writes s back as the kind of image img is: a physical image at the
// loaded clock, or a logical one.
func resave(tb testing.TB, s *storage.Store, img []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	var err error
	if img[len(magicV3)] == kindPhysical {
		err = SavePhysical(s, &buf, s.Snapshot())
	} else {
		err = Save(s, &buf)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// contents renders what an image says about s — tables in name order with
// incarnation IDs, schemas, index definitions and rows, plus the clock and
// each row's version stamps for a physical image — so two stores compare
// equal however their images ordered tables and cut batches.
func contents(s *storage.Store, physical bool) string {
	var sb strings.Builder
	if physical {
		fmt.Fprintf(&sb, "clock %d\n", s.Snapshot())
	}
	names := s.TableNames()
	sort.Strings(names)
	for _, name := range names {
		tbl, _ := s.Table(name)
		fmt.Fprintf(&sb, "%q %d %v %v\n", name, tbl.ID(), tbl.Schema(), tbl.IndexDefs())
		_ = tbl.ScanPhysical(math.MaxUint64, func(b *types.Batch, created, deleted []uint64) error {
			for i := 0; i < b.Len(); i++ {
				for _, v := range b.Row(i) {
					if v.T == types.Float64 && !v.Null {
						fmt.Fprintf(&sb, "%x ", math.Float64bits(v.F))
					} else {
						fmt.Fprintf(&sb, "%#v ", v)
					}
				}
				if physical {
					fmt.Fprintf(&sb, "@%d-%d", created[i], deleted[i])
				}
				sb.WriteByte('\n')
			}
			return nil
		})
	}
	return sb.String()
}

// FuzzLoadImage: Load never panics; it allocates at most a constant factor
// of its input per structure it builds (the table, plus one per index it
// rebuilds); and it either refuses an image with a *CorruptImageError or
// yields a store that writes the image back — byte for byte when the image
// cuts batches, orders tables and marks NULL vectors the way the writer does
// (every seed does), and otherwise as the same contents, in a canonical
// image that itself writes back byte for byte.
func FuzzLoadImage(f *testing.F) {
	for _, img := range seedImages(f) {
		f.Add(img)
		f.Add(img[:len(img)-4]) // the harness re-seals it below
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each input is tried as is and with a valid checksum trailer, so
		// mutations reach the structure behind the CRC.
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.ChecksumIEEE(data))
		for _, img := range [][]byte{data, sealed} {
			var s *storage.Store
			var err error
			grew := allocatedBy(func() { s, err = Load(bytes.NewReader(img)) })
			if err != nil {
				var ce *CorruptImageError
				if !errors.As(err, &ce) {
					t.Fatalf("Load error %v is not a *CorruptImageError", err)
				}
				if grew > uint64(256*len(img)+64<<10) {
					t.Fatalf("refusing a %d-byte image allocated %d bytes", len(img), grew)
				}
				continue
			}
			structures := 1
			for _, name := range s.TableNames() {
				tbl, _ := s.Table(name)
				structures += len(tbl.IndexDefs())
			}
			if grew > uint64(structures*256*len(img)+64<<10) {
				t.Fatalf("loading a %d-byte image with %d indexes allocated %d bytes", len(img), structures-1, grew)
			}
			out := resave(t, s, img)
			if bytes.Equal(out, img) {
				continue
			}
			again, err := Load(bytes.NewReader(out))
			if err != nil {
				t.Fatalf("the written-back image does not load: %v", err)
			}
			physical := img[len(magicV3)] == kindPhysical
			if got, want := contents(again, physical), contents(s, physical); got != want {
				t.Fatalf("written back as\n%s\nloaded as\n%s", got, want)
			}
			if got := resave(t, again, out); !bytes.Equal(got, out) {
				t.Fatalf("the written-back image does not write back byte for byte")
			}
		}
	})
}
