package engine

import (
	"fmt"

	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

// ReadOnlyError rejects a write on a node that is not the writable
// primary. It names the primary, when known, so a client (or router)
// knows where writes must go; the address round-trips through the wire
// protocol's read_only error code.
type ReadOnlyError struct {
	Primary   string // primary address the node follows ("" when unknown)
	Statement string // the rejected statement kind, e.g. "INSERT"
}

func (e *ReadOnlyError) Error() string {
	if e.Primary == "" {
		return fmt.Sprintf("%s rejected: this node is read-only (not the primary)", e.Statement)
	}
	return fmt.Sprintf("%s rejected: this is a read-only replica of %s", e.Statement, e.Primary)
}

// roleState is the node's live cluster role. Failover swaps it at runtime
// (promotion makes a replica writable; demotion fences an ex-primary), so
// it lives behind an atomic pointer rather than a construction-time field.
type roleState struct {
	writable bool   // writes accepted (this node is the primary)
	primary  string // the primary's address when not writable ("" when unknown)
}

// WithReadReplica marks the database a read-only replica following the
// primary at addr: every statement that would change data or schema —
// including CHECKPOINT, whose log rotation would break the mirrored log —
// fails with a *ReadOnlyError naming the primary. Reads, transactions
// around reads, ANALYZE, and EXPLAIN stay available.
func WithReadReplica(addr string) Option {
	return func(db *DB) { db.replicaOf = addr }
}

// ReplicaOf returns the primary address this DB follows, or "" when it is
// the primary (or read-only with no primary known).
func (db *DB) ReplicaOf() string { return db.role.Load().primary }

// Writable reports whether this node accepts writes.
func (db *DB) Writable() bool { return db.role.Load().writable }

// BecomePrimary makes the node writable. Promotion calls it after the
// replication stream is stopped and the bumped epoch is durable.
func (db *DB) BecomePrimary() { db.role.Store(&roleState{writable: true}) }

// BecomeReplica fences the node read-only, recording the primary writes
// should be redirected to. addr may be "" when no primary is known yet
// (a demoted primary waiting to learn its successor): writes are still
// rejected, just without a redirect target.
func (db *DB) BecomeReplica(addr string) {
	db.role.Store(&roleState{writable: false, primary: addr})
}

// rejectOnReplica returns the *ReadOnlyError for st when the DB is not
// writable and st writes; nil otherwise.
func (db *DB) rejectOnReplica(st sql.Statement) error {
	role := db.role.Load()
	if role.writable {
		return nil
	}
	if c := sql.Classify(st); c.Writes {
		return &ReadOnlyError{Primary: role.primary, Statement: c.Name}
	}
	return nil
}

// ReplicationRow is one row of system.replication: the local role plus one
// peer link — a replica reports its primary; a primary reports each
// connected replica (and a placeholder row when none are connected).
type ReplicationRow struct {
	Role         string // "primary" or "replica"
	Peer         string // remote address ("" when no peer is connected)
	State        string // e.g. "streaming", "catchup", "connecting", "idle"
	Epoch        uint64 // cluster fencing epoch the node is serving under
	WalSeg       uint64 // durable log position: segment ...
	WalOff       int64  // ... and offset (local on a replica, acked on a primary)
	AppliedClock uint64 // commit clock applied locally (replica) / acked (primary)
	PrimaryClock uint64 // latest commit clock known on the primary
	LastContact  int64  // ms since the peer was last heard from (-1: never)
}

// ReplicationReporter feeds system.replication; internal/repl implements
// it for both roles. The engine only defines the interface so it never
// imports the replication layer.
type ReplicationReporter interface {
	ReplicationRows() []ReplicationRow
}

// SetReplicationReporter installs the system.replication source. It must
// be set before the DB serves queries (the field is unguarded).
func (db *DB) SetReplicationReporter(r ReplicationReporter) { db.replReporter = r }

// ReplicationRows reports the current replication links, falling back to a
// single idle row describing the local role when no reporter is installed
// (or it has no links yet). Both system.replication and the /metrics
// exporter read through here so the two surfaces can never disagree.
func (db *DB) ReplicationRows() []ReplicationRow {
	var rows []ReplicationRow
	if rep := db.replReporter; rep != nil {
		rows = rep.ReplicationRows()
	}
	if len(rows) == 0 {
		r := db.role.Load()
		role := "primary"
		if !r.writable {
			role = "replica"
		}
		var epoch uint64
		if db.wal != nil {
			epoch = db.wal.Epoch()
		}
		rows = []ReplicationRow{{
			Role: role, Peer: r.primary, State: "idle", Epoch: epoch,
			AppliedClock: db.store.Snapshot(), PrimaryClock: db.store.Snapshot(),
			LastContact: -1,
		}}
	}
	return rows
}

// replicationRelation materializes system.replication. Without a reporter
// it still answers with the local role, so the table is always queryable.
func (c systemCatalog) replicationRelation() *memRelation {
	schema := types.Schema{
		{Name: "role", Type: types.String},
		{Name: "peer", Type: types.String},
		{Name: "state", Type: types.String},
		{Name: "epoch", Type: types.Int64},
		{Name: "wal_seg", Type: types.Int64},
		{Name: "wal_off", Type: types.Int64},
		{Name: "applied_clock", Type: types.Int64},
		{Name: "primary_clock", Type: types.Int64},
		{Name: "lag", Type: types.Int64},
		{Name: "last_contact_ms", Type: types.Int64},
	}
	rows := c.db.ReplicationRows()
	b := types.NewBatch(schema)
	for _, r := range rows {
		lag := int64(r.PrimaryClock) - int64(r.AppliedClock)
		if lag < 0 {
			lag = 0
		}
		b.AppendRow([]types.Value{
			types.NewString(r.Role),
			types.NewString(r.Peer),
			types.NewString(r.State),
			types.NewInt(int64(r.Epoch)),
			types.NewInt(int64(r.WalSeg)),
			types.NewInt(r.WalOff),
			types.NewInt(int64(r.AppliedClock)),
			types.NewInt(int64(r.PrimaryClock)),
			types.NewInt(lag),
			types.NewInt(r.LastContact),
		})
	}
	return newMemRelation("system.replication", schema, b)
}
