// Package wal implements the durability layer: a per-commit redo log with
// group commit, physical checkpoints, and crash recovery.
//
// The paper's host system, HyPer, keeps a main-memory database ACID by
// pairing in-memory execution with redo logging and snapshots; this
// package is the corresponding substrate. Every committing transaction
// appends one length-prefixed, CRC-32-checksummed record to the active log
// segment before it is applied (write-ahead, ordered by the commit lock),
// and is acknowledged only once a shared group-commit flusher has fsynced
// its record — concurrent committers park on the flusher and share one
// disk sync per batch. Recovery loads the latest physical snapshot,
// replays the log tail with a strict commit-timestamp contiguity check,
// tolerates a torn final record (truncated, not fatal), and refuses
// anything ambiguous with a typed *AmbiguousStateError.
package wal

import (
	"bytes"
	"fmt"
	"math"

	"lambdadb/internal/persist"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// A record is one storage.Change; its payload starts with the change's
// kind byte. recEpoch is the one kind only the log knows: a cluster-epoch
// bump, carried in the Change's TS field. It rides the ordinary log stream
// so the fencing epoch survives crashes, checkpoints (the active segment
// re-announces it after every rotation), and replication (it mirrors
// byte-identically to replicas).
const recEpoch storage.ChangeKind = 6

// encodeRecord is the one record encoder:
//
//	commit:       u8 kind, u64 ts,
//	              u32 insert count, per insert: string table, u64 id,
//	                u32 column count + u8 column types, batch (persist encoding),
//	              u32 delete count, per delete: string table, u64 id, u64 physical row
//	create table: u8 kind, string name, u64 id, schema
//	drop table:   u8 kind, string name, u64 id
//	create index: u8 kind, string index, string table, string column, u8 index kind, u64 table id
//	drop index:   u8 kind, string index, string table, u64 table id
//	epoch:        u8 kind, u64 epoch
//
// Insert batches carry their column types so a record can be decoded even
// when its table no longer exists at replay time (dropped later in the
// log) — the reader must always be able to find the next record.
func encodeRecord(c *storage.Change) []byte {
	var b bytes.Buffer
	b.WriteByte(byte(c.Kind))
	switch c.Kind {
	case storage.ChangeCommit:
		persist.WriteU64(&b, c.TS)
		persist.WriteU32(&b, uint32(len(c.Inserts)))
		for _, in := range c.Inserts {
			persist.WriteString(&b, in.Table)
			persist.WriteU64(&b, in.TableID)
			persist.WriteU32(&b, uint32(len(in.Batch.Cols)))
			for _, col := range in.Batch.Cols {
				b.WriteByte(byte(col.T))
			}
			persist.WriteBatch(&b, in.Batch)
		}
		persist.WriteU32(&b, uint32(len(c.Deletes)))
		for _, d := range c.Deletes {
			persist.WriteString(&b, d.Table)
			persist.WriteU64(&b, d.TableID)
			persist.WriteU64(&b, uint64(d.Row))
		}
	case storage.ChangeCreateTable:
		persist.WriteString(&b, c.Table)
		persist.WriteU64(&b, c.TableID)
		persist.WriteSchema(&b, c.Schema)
	case storage.ChangeDropTable:
		persist.WriteString(&b, c.Table)
		persist.WriteU64(&b, c.TableID)
	case storage.ChangeCreateIndex:
		persist.WriteString(&b, c.Index.Name)
		persist.WriteString(&b, c.Table)
		persist.WriteString(&b, c.Index.Column)
		b.WriteByte(byte(c.Index.Kind))
		persist.WriteU64(&b, c.TableID)
	case storage.ChangeDropIndex:
		persist.WriteString(&b, c.Index.Name)
		persist.WriteString(&b, c.Table)
		persist.WriteU64(&b, c.TableID)
	case recEpoch:
		persist.WriteU64(&b, c.TS)
	}
	return b.Bytes()
}

// fields reads a record's fields in order, keeping the first error; after
// it every read returns the zero value.
type fields struct {
	r   *bytes.Reader
	err error
}

func (f *fields) u32() (v uint32) {
	if f.err == nil {
		v, f.err = persist.ReadU32(f.r)
	}
	return v
}

func (f *fields) u64() (v uint64) {
	if f.err == nil {
		v, f.err = persist.ReadU64(f.r)
	}
	return v
}

func (f *fields) str() (s string) {
	if f.err == nil {
		s, f.err = persist.ReadString(f.r)
	}
	return s
}

// decodeRecord parses one record payload, the inverse of encodeRecord. The
// payload has already passed its CRC check, so a decode failure here means
// the log and the code disagree about the format — a hard error, never a
// torn tail.
func decodeRecord(payload []byte) (*storage.Change, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty record payload")
	}
	f := &fields{r: bytes.NewReader(payload[1:])}
	c := &storage.Change{Kind: storage.ChangeKind(payload[0])}
	switch c.Kind {
	case storage.ChangeCommit:
		c.TS = f.u64()
		decodeCommit(f, c)
	case storage.ChangeCreateTable:
		c.Table, c.TableID = f.str(), f.u64()
		if f.err == nil {
			c.Schema, f.err = persist.ReadSchema(f.r)
		}
	case storage.ChangeDropTable:
		c.Table, c.TableID = f.str(), f.u64()
	case storage.ChangeCreateIndex:
		c.Index.Name, c.Table, c.Index.Column = f.str(), f.str(), f.str()
		if f.err == nil {
			c.Index.Kind, f.err = persist.ReadIndexKind(f.r)
		}
		c.Index.Table, c.TableID = c.Table, f.u64()
	case storage.ChangeDropIndex:
		c.Index.Name, c.Table, c.TableID = f.str(), f.str(), f.u64()
	case recEpoch:
		c.TS = f.u64()
	default:
		return nil, fmt.Errorf("unknown record kind %d", payload[0])
	}
	if f.err != nil {
		return nil, fmt.Errorf("record kind %d: %w", payload[0], f.err)
	}
	if f.r.Len() != 0 {
		return nil, fmt.Errorf("record kind %d: %d trailing bytes", payload[0], f.r.Len())
	}
	return c, nil
}

// decodeCommit reads a commit record's inserts and deletes into c.
func decodeCommit(f *fields, c *storage.Change) {
	for n := f.u32(); n > 0 && f.err == nil; n-- {
		in := storage.CommitInsert{Table: f.str(), TableID: f.u64()}
		ncols := f.u32()
		if f.err == nil && (ncols > 1<<16 || int64(ncols) > int64(f.r.Len())) {
			f.err = fmt.Errorf("insert with %d columns, %d bytes remain", ncols, f.r.Len())
		}
		if f.err != nil {
			return
		}
		schema := make(types.Schema, ncols)
		for j := range schema {
			if f.err == nil {
				schema[j].Type, f.err = persist.ReadType(f.r)
			}
		}
		if f.err == nil {
			in.Batch, f.err = persist.ReadBatch(f.r, schema)
		}
		c.Inserts = append(c.Inserts, in)
	}
	for n := f.u32(); n > 0 && f.err == nil; n-- {
		d := storage.CommitDelete{Table: f.str(), TableID: f.u64()}
		row := f.u64()
		if row > math.MaxInt {
			f.err = fmt.Errorf("delete of physical row %d does not fit an int", row)
		}
		d.Row = int(row)
		c.Deletes = append(c.Deletes, d)
	}
}
