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

// Record kinds. A record's payload starts with its kind byte.
const (
	recCommit      byte = 1
	recCreateTable byte = 2
	recDropTable   byte = 3
	recCreateIndex byte = 4
	recDropIndex   byte = 5
	recEpoch       byte = 6
)

// record is the decoded form of one log record.
type record struct {
	kind   byte
	commit *storage.CommitData // recCommit
	name   string              // table name (DDL records)
	id     uint64              // table incarnation ID
	schema types.Schema        // recCreateTable
	index  string              // index name (recCreateIndex / recDropIndex)
	column string              // indexed column (recCreateIndex)
	ikind  storage.IndexKind   // index structure (recCreateIndex)
	epoch  uint64              // recEpoch
}

// encodeCommit serializes a committing transaction:
//
//	u8 kind, u64 ts,
//	u32 insert count, per insert: string table, u64 id,
//	  u32 column count + u8 column types, batch (persist encoding),
//	u32 delete count, per delete: string table, u64 id, u64 physical row
//
// Insert batches carry their column types so a record can be decoded even
// when its table no longer exists at replay time (dropped later in the
// log) — the reader must always be able to find the next record.
func encodeCommit(c *storage.CommitData) []byte {
	var b bytes.Buffer
	b.WriteByte(recCommit)
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
	return b.Bytes()
}

// encodeCreateTable serializes a CREATE TABLE: u8 kind, string name,
// u64 id, schema.
func encodeCreateTable(name string, schema types.Schema, id uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(recCreateTable)
	persist.WriteString(&b, name)
	persist.WriteU64(&b, id)
	persist.WriteSchema(&b, schema)
	return b.Bytes()
}

// encodeDropTable serializes a DROP TABLE: u8 kind, string name, u64 id.
func encodeDropTable(name string, id uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(recDropTable)
	persist.WriteString(&b, name)
	persist.WriteU64(&b, id)
	return b.Bytes()
}

// encodeCreateIndex serializes a CREATE INDEX: u8 kind, string index name,
// string table name, string column, u8 index kind, u64 table id.
func encodeCreateIndex(def storage.IndexDef, tableID uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(recCreateIndex)
	persist.WriteString(&b, def.Name)
	persist.WriteString(&b, def.Table)
	persist.WriteString(&b, def.Column)
	b.WriteByte(byte(def.Kind))
	persist.WriteU64(&b, tableID)
	return b.Bytes()
}

// encodeDropIndex serializes a DROP INDEX: u8 kind, string index name,
// string table name, u64 table id.
func encodeDropIndex(index, table string, tableID uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(recDropIndex)
	persist.WriteString(&b, index)
	persist.WriteString(&b, table)
	persist.WriteU64(&b, tableID)
	return b.Bytes()
}

// encodeEpoch serializes a cluster-epoch bump: u8 kind, u64 epoch. The
// record rides the ordinary log stream so the fencing epoch survives
// crashes, checkpoints (the active segment re-announces it after every
// rotation), and replication (it mirrors byte-identically to replicas).
func encodeEpoch(epoch uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(recEpoch)
	persist.WriteU64(&b, epoch)
	return b.Bytes()
}

// decodeRecord parses one record payload. The payload has already passed
// its CRC check, so a decode failure here means the log and the code
// disagree about the format — a hard error, never a torn tail.
func decodeRecord(payload []byte) (*record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty record payload")
	}
	r := bytes.NewReader(payload[1:])
	rec := &record{kind: payload[0]}
	var err error
	switch rec.kind {
	case recCommit:
		rec.commit, err = decodeCommit(r)
	case recCreateTable:
		if rec.name, err = persist.ReadString(r); err != nil {
			break
		}
		if rec.id, err = persist.ReadU64(r); err != nil {
			break
		}
		rec.schema, err = persist.ReadSchema(r)
	case recDropTable:
		if rec.name, err = persist.ReadString(r); err != nil {
			break
		}
		rec.id, err = persist.ReadU64(r)
	case recCreateIndex:
		if rec.index, err = persist.ReadString(r); err != nil {
			break
		}
		if rec.name, err = persist.ReadString(r); err != nil {
			break
		}
		if rec.column, err = persist.ReadString(r); err != nil {
			break
		}
		var kb byte
		if kb, err = r.ReadByte(); err != nil {
			break
		}
		switch storage.IndexKind(kb) {
		case storage.HashIndex, storage.OrderedIndex:
			rec.ikind = storage.IndexKind(kb)
		default:
			err = fmt.Errorf("bad index kind %d", kb)
		}
		if err != nil {
			break
		}
		rec.id, err = persist.ReadU64(r)
	case recDropIndex:
		if rec.index, err = persist.ReadString(r); err != nil {
			break
		}
		if rec.name, err = persist.ReadString(r); err != nil {
			break
		}
		rec.id, err = persist.ReadU64(r)
	case recEpoch:
		rec.epoch, err = persist.ReadU64(r)
	default:
		return nil, fmt.Errorf("unknown record kind %d", rec.kind)
	}
	if err != nil {
		return nil, fmt.Errorf("record kind %d: %w", rec.kind, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("record kind %d: %d trailing bytes", rec.kind, r.Len())
	}
	return rec, nil
}

func decodeCommit(r *bytes.Reader) (*storage.CommitData, error) {
	c := &storage.CommitData{}
	var err error
	if c.TS, err = persist.ReadU64(r); err != nil {
		return nil, err
	}
	nIns, err := persist.ReadU32(r)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nIns; i++ {
		var in storage.CommitInsert
		if in.Table, err = persist.ReadString(r); err != nil {
			return nil, err
		}
		if in.TableID, err = persist.ReadU64(r); err != nil {
			return nil, err
		}
		ncols, err := persist.ReadU32(r)
		if err != nil {
			return nil, err
		}
		if ncols > 1<<16 || int64(ncols) > int64(r.Len()) {
			return nil, fmt.Errorf("insert with %d columns, %d bytes remain", ncols, r.Len())
		}
		schema := make(types.Schema, ncols)
		for j := range schema {
			tb, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			ct := types.Type(tb)
			switch ct {
			case types.Int64, types.Float64, types.String, types.Bool:
			default:
				return nil, fmt.Errorf("insert column %d: bad type %d", j, tb)
			}
			schema[j] = types.ColumnInfo{Type: ct}
		}
		if in.Batch, err = persist.ReadBatch(r, schema); err != nil {
			return nil, err
		}
		c.Inserts = append(c.Inserts, in)
	}
	nDel, err := persist.ReadU32(r)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nDel; i++ {
		var d storage.CommitDelete
		if d.Table, err = persist.ReadString(r); err != nil {
			return nil, err
		}
		if d.TableID, err = persist.ReadU64(r); err != nil {
			return nil, err
		}
		row, err := persist.ReadU64(r)
		if err != nil {
			return nil, err
		}
		if row > math.MaxInt {
			return nil, fmt.Errorf("delete of physical row %d does not fit an int", row)
		}
		d.Row = int(row)
		c.Deletes = append(c.Deletes, d)
	}
	return c, nil
}
