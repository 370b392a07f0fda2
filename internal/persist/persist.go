// Package persist implements database snapshots: serializing all tables
// visible at a point in time to a binary image and restoring them. The
// paper's introduction counts "recovery procedures" among the DBMS
// features that make the one-system approach attractive; this package is
// the corresponding substrate (snapshot-based recovery in the HyPer
// tradition — binary images paired with the redo log in internal/wal).
//
// Two image kinds share one container format:
//
//   - logical images (Save/SaveFile) hold the rows visible at the current
//     snapshot, with deleted row versions compacted away. They are the
//     user-facing \save / -db images; loading one replays it as a single
//     commit into a fresh store.
//   - physical images (SavePhysical/SavePhysicalFile) hold the physical
//     row prefix as of an explicit commit-clock cut, including dead rows
//     and their per-row version stamps plus table incarnation IDs. They
//     are checkpoint images: redo-log records reference physical row
//     indexes, so recovery needs the exact pre-crash layout.
//
// Container format v3 (little endian):
//
//	magic "LMDB3\n"
//	u8  kind (1 = logical, 2 = physical)
//	u64 clock (physical: the image's commit-clock cut; logical: 0)
//	u32 table count
//	per table:
//	  string name
//	  u64 incarnation ID
//	  u32 column count, per column: string name, u8 type
//	  u32 index count, per index: string name, string column, u8 kind
//	  batches: u32 row count (0 terminates), then per column:
//	    u8 hasNulls (+ rowCount null bytes), then the typed payload;
//	    physical images append rowCount createdAt + rowCount deletedAt u64s
//	u32 CRC-32 (IEEE) of every preceding byte
//
// Only index definitions are persisted; index contents are rebuilt from the
// restored rows at load time (index state is a pure function of the
// physical rows, see internal/storage).
//
// v3 is the only version read or written (every writer since indexes were
// introduced emits it; an "LMDB1\n"/"LMDB2\n" header is rejected by name).
// Any decode failure — bad magic, unsupported version, truncation, checksum
// mismatch, invalid structure — surfaces as a *CorruptImageError naming the
// byte offset, never as a raw decode error, so callers can reliably
// distinguish "damaged image" from "no image" (see LoadFile).
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

var magicV3 = []byte("LMDB3\n")

const (
	kindLogical  byte = 1
	kindPhysical byte = 2
)

// CorruptImageError reports a snapshot image that could not be decoded:
// truncated, checksum-mismatched, or structurally invalid. Offset is the
// byte position at which decoding failed.
type CorruptImageError struct {
	Path   string // empty when loading from a stream
	Offset int64
	Reason string
}

func (e *CorruptImageError) Error() string {
	where := "image"
	if e.Path != "" {
		where = e.Path
	}
	return fmt.Sprintf("corrupt database image %s at byte %d: %s", where, e.Offset, e.Reason)
}

// Writer is the byte-oriented sink the image and redo-record encoders
// write to. *bufio.Writer and *bytes.Buffer both satisfy it.
type Writer interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// Reader is the byte-oriented source the decoders read from: an in-memory
// record or image (*bytes.Reader satisfies it). Len is the unread byte
// count; the decoders reject a declared length larger than it before they
// allocate anything of that length.
type Reader interface {
	io.Reader
	io.ByteReader
	Len() int
}

// Save writes a logical snapshot of every table (rows visible at the
// current snapshot, deleted versions compacted away) to w.
func Save(store *storage.Store, w io.Writer) error {
	return saveImage(store, w, kindLogical, store.Snapshot())
}

// SavePhysical writes a physical snapshot of every table as of the given
// commit clock: the physical row prefix created at or before clock, with
// per-row version stamps and table incarnation IDs. Recovery loads it with
// the exact pre-crash row layout so redo-log records resolve correctly.
func SavePhysical(store *storage.Store, w io.Writer, clock uint64) error {
	return saveImage(store, w, kindPhysical, clock)
}

func saveImage(store *storage.Store, w io.Writer, kind byte, clock uint64) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(magicV3); err != nil {
		return err
	}
	if err := bw.WriteByte(kind); err != nil {
		return err
	}
	hdrClock := uint64(0)
	if kind == kindPhysical {
		hdrClock = clock
	}
	if err := WriteU64(bw, hdrClock); err != nil {
		return err
	}
	names := store.TableNames()
	sort.Strings(names)
	if err := WriteU32(bw, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		tbl, err := store.Table(name)
		if err != nil {
			return err
		}
		if err := saveTable(bw, tbl, kind, clock); err != nil {
			return fmt.Errorf("table %q: %w", name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The CRC trailer covers everything flushed so far and is written
	// straight to w, outside the hashed stream.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// SaveFile writes a logical snapshot to a file, crash-safely (see
// WriteFileAtomic).
func SaveFile(store *storage.Store, path string) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return Save(store, w) })
}

// SavePhysicalFile is SaveFile for a physical snapshot as of clock.
func SavePhysicalFile(store *storage.Store, path string, clock uint64) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return SavePhysical(store, w, clock) })
}

// WriteFileAtomic is the one crash-safe file write: write streams the
// content into path+".tmp", which is fsynced, renamed over path, and made
// durable by fsyncing the parent directory. A failure at any point leaves
// the previous file at path untouched and removes the temp file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := faultinject.Fire("persist.save.write"); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := faultinject.Fire("persist.save.rename"); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncPath(filepath.Dir(path))
}

// SyncPath fsyncs the file or directory at path: a directory so that a
// rename, create or unlink inside it survives a crash, a file so that a
// truncation does.
func SyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func saveTable(w *bufio.Writer, tbl *storage.Table, kind byte, clock uint64) error {
	if err := WriteString(w, tbl.Name()); err != nil {
		return err
	}
	if err := WriteU64(w, tbl.ID()); err != nil {
		return err
	}
	if err := WriteSchema(w, tbl.Schema()); err != nil {
		return err
	}
	defs := tbl.IndexDefs()
	if err := WriteU32(w, uint32(len(defs))); err != nil {
		return err
	}
	for _, def := range defs {
		if err := WriteString(w, def.Name); err != nil {
			return err
		}
		if err := WriteString(w, def.Column); err != nil {
			return err
		}
		if err := w.WriteByte(byte(def.Kind)); err != nil {
			return err
		}
	}
	var err error
	if kind == kindPhysical {
		err = tbl.ScanPhysical(clock, func(b *types.Batch, createdAt, deletedAt []uint64) error {
			if b.Len() == 0 {
				return nil
			}
			if err := WriteBatch(w, b); err != nil {
				return err
			}
			for _, ts := range createdAt {
				if err := WriteU64(w, ts); err != nil {
					return err
				}
			}
			for _, ts := range deletedAt {
				if err := WriteU64(w, ts); err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		err = tbl.Scan(clock, func(b *types.Batch) error {
			if b.Len() == 0 {
				return nil
			}
			return WriteBatch(w, b)
		})
	}
	if err != nil {
		return err
	}
	return WriteU32(w, 0) // batch terminator
}

// WriteSchema writes a column-count-prefixed schema (names and types).
func WriteSchema(w Writer, schema types.Schema) error {
	if err := WriteU32(w, uint32(len(schema))); err != nil {
		return err
	}
	for _, c := range schema {
		if err := WriteString(w, c.Name); err != nil {
			return err
		}
		if err := w.WriteByte(byte(c.Type)); err != nil {
			return err
		}
	}
	return nil
}

// ReadSchema reads a schema written by WriteSchema.
func ReadSchema(r Reader) (types.Schema, error) {
	ncols, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	if ncols > maxColumns || int64(ncols) > int64(r.Len()) {
		return nil, fmt.Errorf("schema with %d columns, %d bytes remain", ncols, r.Len())
	}
	schema := make(types.Schema, ncols)
	for i := range schema {
		cname, err := ReadString(r)
		if err != nil {
			return nil, err
		}
		ct, err := ReadType(r)
		if err != nil {
			return nil, err
		}
		schema[i] = types.ColumnInfo{Name: cname, Type: ct}
	}
	return schema, nil
}

// ReadType reads a column type byte, refusing one that names no type. It
// is the one column-type check of the image and redo-record decoders.
func ReadType(r Reader) (types.Type, error) {
	tb, err := r.ReadByte()
	if err != nil {
		return 0, err
	}
	switch t := types.Type(tb); t {
	case types.Int64, types.Float64, types.String, types.Bool:
		return t, nil
	}
	return 0, fmt.Errorf("bad column type %d", tb)
}

// ReadIndexKind reads an index kind byte, refusing one that names no kind.
// It is the one index-kind check of the image and redo-record decoders.
func ReadIndexKind(r Reader) (storage.IndexKind, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return 0, err
	}
	switch k := storage.IndexKind(kb); k {
	case storage.HashIndex, storage.OrderedIndex:
		return k, nil
	}
	return 0, fmt.Errorf("bad index kind %d", kb)
}

// WriteBatch writes a row-count-prefixed batch (columns only, no schema).
// The redo log shares this encoding for insert payloads.
func WriteBatch(w Writer, b *types.Batch) error {
	n := b.Len()
	if err := WriteU32(w, uint32(n)); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	for _, c := range b.Cols {
		if err := writeColumn(w, c, n); err != nil {
			return err
		}
	}
	return nil
}

// ReadBatch reads a batch written by WriteBatch into columns of the given
// schema (only the column types matter for decoding).
func ReadBatch(r Reader, schema types.Schema) (*types.Batch, error) {
	n, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	return readBatchRows(r, schema, n)
}

func readBatchRows(r Reader, schema types.Schema, n uint32) (*types.Batch, error) {
	if n > maxBatchRows || (n > 0 && len(schema) == 0) {
		return nil, fmt.Errorf("batch with %d rows in %d columns", n, len(schema))
	}
	b := types.NewBatch(schema)
	if n == 0 {
		return b, nil // WriteBatch writes no columns for an empty batch
	}
	for j := range schema {
		if err := readColumn(r, b.Cols[j], int(n)); err != nil {
			return nil, fmt.Errorf("column %q: %w", schema[j].Name, err)
		}
	}
	return b, nil
}

func writeColumn(w Writer, c *types.Column, n int) error {
	if c.Nulls != nil {
		if err := w.WriteByte(1); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			bit := byte(0)
			if c.Nulls[i] {
				bit = 1
			}
			if err := w.WriteByte(bit); err != nil {
				return err
			}
		}
	} else if err := w.WriteByte(0); err != nil {
		return err
	}
	switch c.T {
	case types.Int64:
		for _, v := range c.Ints[:n] {
			if err := WriteU64(w, uint64(v)); err != nil {
				return err
			}
		}
	case types.Float64:
		for _, v := range c.Floats[:n] {
			if err := WriteU64(w, math.Float64bits(v)); err != nil {
				return err
			}
		}
	case types.String:
		for _, v := range c.Strs[:n] {
			if err := WriteString(w, v); err != nil {
				return err
			}
		}
	case types.Bool:
		for _, v := range c.Bools[:n] {
			bit := byte(0)
			if v {
				bit = 1
			}
			if err := w.WriteByte(bit); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("cannot persist column of type %s", c.T)
	}
	return nil
}

// Load reads a snapshot image (logical or physical) into a fresh store;
// decode failures are *CorruptImageError.
func Load(r io.Reader) (*storage.Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return loadImage(data, "")
}

// LoadFile reads a snapshot image from a file. A missing file is reported
// as the os.Open error (errors.Is(err, fs.ErrNotExist)), so callers can
// treat "no image yet" as a fresh start; any other failure — unreadable
// file, bad magic, truncation, checksum mismatch — is a hard error (a
// *CorruptImageError for decode failures), so startup can never silently
// reinitialize over a damaged image.
func LoadFile(path string) (*storage.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return loadImage(data, path)
}

func loadImage(data []byte, path string) (*storage.Store, error) {
	corrupt := func(off int64, format string, args ...any) error {
		return &CorruptImageError{Path: path, Offset: off, Reason: fmt.Sprintf(format, args...)}
	}
	if len(data) < len(magicV3) {
		return nil, corrupt(int64(len(data)), "truncated before magic (%d bytes)", len(data))
	}
	switch head := string(data[:len(magicV3)]); head {
	case string(magicV3):
	case "LMDB1\n", "LMDB2\n":
		return nil, corrupt(0, "image format %s is no longer supported; this build reads LMDB3", head[:5])
	default:
		return nil, corrupt(0, "not a database image (bad magic)")
	}
	// Verify the CRC trailer before trusting any structure.
	if len(data) < len(magicV3)+1+8+4+4 {
		return nil, corrupt(int64(len(data)), "truncated header")
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, corrupt(int64(len(payload)),
			"checksum mismatch (stored %08x, computed %08x; truncated or corrupted image)", want, got)
	}
	body := payload[len(magicV3):]
	kind := body[0]
	if kind != kindLogical && kind != kindPhysical {
		return nil, corrupt(int64(len(magicV3)), "unknown image kind %d", kind)
	}
	clock := binary.LittleEndian.Uint64(body[1:9])
	if kind == kindLogical && clock != 0 {
		return nil, corrupt(int64(len(magicV3))+1, "logical image with clock %d", clock)
	}
	body = body[9:]

	r := bytes.NewReader(body)
	offset := func() int64 { return int64(len(payload) - r.Len()) }
	store := storage.NewStore()
	count, err := ReadU32(r)
	if err != nil {
		return nil, corrupt(offset(), "table count: %v", err)
	}
	var tables []*storage.Table
	var defs [][]storage.IndexDef
	for t := uint32(0); t < count; t++ {
		tbl, d, err := loadTable(r, store, kind, clock)
		if err != nil {
			return nil, corrupt(offset(), "table %d/%d: %v", t+1, count, err)
		}
		tables, defs = append(tables, tbl), append(defs, d)
	}
	if r.Len() != 0 {
		return nil, corrupt(offset(), "%d trailing bytes after last table", r.Len())
	}
	// Index contents are never persisted: index state is a pure function of
	// the physical rows, so rebuild-at-load always converges with the
	// pre-crash state. They are built once the whole image has decoded, so a
	// damaged image costs no index build.
	for i, tbl := range tables {
		for _, def := range defs[i] {
			if err := tbl.AddIndex(def); err != nil {
				return nil, corrupt(offset(), "table %q: rebuild index %q: %v", tbl.Name(), def.Name, err)
			}
		}
	}
	if kind == kindPhysical {
		store.RestoreClock(clock)
	}
	return store, nil
}

// loadTable reads one table of an image into store and returns it with its
// index definitions, which the caller builds.
func loadTable(r Reader, store *storage.Store, kind byte, clock uint64) (*storage.Table, []storage.IndexDef, error) {
	name, err := ReadString(r)
	if err != nil {
		return nil, nil, err
	}
	id, err := ReadU64(r)
	if err != nil {
		return nil, nil, err
	}
	schema, err := ReadSchema(r)
	if err != nil {
		return nil, nil, fmt.Errorf("table %q: %w", name, err)
	}
	defs, err := readIndexDefs(r, name)
	if err != nil {
		return nil, nil, err
	}
	// The table keeps its incarnation ID, so redo-log records written
	// against it still resolve.
	create := &storage.Change{Kind: storage.ChangeCreateTable, Table: name, TableID: id, Schema: schema}
	if applied, err := store.Replay(create, 0); err != nil {
		return nil, nil, err
	} else if !applied {
		return nil, nil, fmt.Errorf("table %q listed twice", name)
	}
	tbl, err := store.Table(name)
	if err != nil {
		return nil, nil, err
	}
	// A logical image's rows replay as one ordinary commit; a physical
	// image's keep their positions and version stamps.
	tx := store.Begin()
	defer tx.Rollback()
	var prev uint64
	for {
		n, err := ReadU32(r)
		if err != nil {
			return nil, nil, err
		}
		if n == 0 {
			break
		}
		b, err := readBatchRows(r, schema, n)
		if err != nil {
			return nil, nil, fmt.Errorf("table %q: %w", name, err)
		}
		if kind == kindLogical {
			if err := tx.Insert(tbl, b); err != nil {
				return nil, nil, err
			}
			continue
		}
		if int64(n)*16 > int64(r.Len()) {
			return nil, nil, fmt.Errorf("table %q: version stamps for %d rows, %d bytes remain", name, n, r.Len())
		}
		stamps := make([]uint64, 2*n)
		for i := range stamps {
			if stamps[i], err = ReadU64(r); err != nil {
				return nil, nil, err
			}
		}
		createdAt, deletedAt := stamps[:n], stamps[n:]
		// Checkpoints write the prefix created at or before the clock, in
		// commit order; anything else could not be written back out.
		for i, c := range createdAt {
			if c < prev || c > clock || deletedAt[i] > clock {
				return nil, nil, fmt.Errorf("table %q: row stamps %d/%d out of order or past the image clock %d",
					name, c, deletedAt[i], clock)
			}
			prev = c
		}
		if err := tbl.RestoreRows(b, createdAt, deletedAt); err != nil {
			return nil, nil, err
		}
	}
	return tbl, defs, tx.Commit()
}

// maxIndexes bounds the per-table index count during decode.
const maxIndexes = 1 << 12

// readIndexDefs reads a table's index-definition block.
func readIndexDefs(r Reader, table string) ([]storage.IndexDef, error) {
	n, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxIndexes || int64(n) > int64(r.Len()) {
		return nil, fmt.Errorf("table %q: %d indexes, %d bytes remain", table, n, r.Len())
	}
	defs := make([]storage.IndexDef, 0, n)
	for i := uint32(0); i < n; i++ {
		var def storage.IndexDef
		def.Table = table
		if def.Name, err = ReadString(r); err != nil {
			return nil, err
		}
		if def.Column, err = ReadString(r); err != nil {
			return nil, err
		}
		if def.Kind, err = ReadIndexKind(r); err != nil {
			return nil, fmt.Errorf("table %q index %q: %w", table, def.Name, err)
		}
		defs = append(defs, def)
	}
	return defs, nil
}

func readColumn(r Reader, c *types.Column, n int) error {
	hasNulls, err := r.ReadByte()
	if err != nil {
		return err
	}
	// Every row costs at least one byte in every column, so a row count the
	// remaining bytes cannot hold is rejected before the vectors are sized.
	if n > r.Len() {
		return fmt.Errorf("%d rows but only %d bytes remain", n, r.Len())
	}
	var nulls []bool
	switch hasNulls {
	case 0:
	case 1:
		nulls = make([]bool, n)
		for i := range nulls {
			if nulls[i], err = readFlag(r); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("bad null marker %d", hasNulls)
	}
	for i := 0; i < n; i++ {
		switch c.T {
		case types.Int64:
			v, err := ReadU64(r)
			if err != nil {
				return err
			}
			c.AppendInt(int64(v))
		case types.Float64:
			v, err := ReadU64(r)
			if err != nil {
				return err
			}
			c.AppendFloat(math.Float64frombits(v))
		case types.String:
			s, err := ReadString(r)
			if err != nil {
				return err
			}
			c.AppendString(s)
		case types.Bool:
			v, err := readFlag(r)
			if err != nil {
				return err
			}
			c.AppendBool(v)
		}
	}
	if nulls != nil {
		c.Nulls = nulls
	}
	return nil
}

// readFlag reads a boolean byte; the writers only ever emit 0 or 1.
func readFlag(r Reader) (bool, error) {
	b, err := r.ReadByte()
	if err == nil && b > 1 {
		err = fmt.Errorf("bad boolean byte %d", b)
	}
	return b == 1, err
}

// ---- primitive encoding ----

const (
	maxStringLen = 1 << 30
	maxColumns   = 1 << 16
	maxBatchRows = 1 << 24
)

// WriteU32 writes a little-endian uint32.
func WriteU32(w Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

// WriteU64 writes a little-endian uint64.
func WriteU64(w Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

// WriteString writes a length-prefixed string.
func WriteString(w Writer, s string) error {
	if err := WriteU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// ReadU32 reads a little-endian uint32.
func ReadU32(r Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// ReadU64 reads a little-endian uint64.
func ReadU64(r Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// ReadString reads a length-prefixed string.
func ReadString(r Reader) (string, error) {
	n, err := ReadU32(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen || int64(n) > int64(r.Len()) {
		return "", fmt.Errorf("string length %d, %d bytes remain", n, r.Len())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
