package sql

// Kind is a statement's coarse class. The values are the label strings of
// the by-kind latency histograms, so the engine records a statement under
// string(Kind) without a mapping table.
type Kind string

// Statement kinds.
const (
	KindSelect Kind = "select"
	KindDML    Kind = "dml"
	KindDDL    Kind = "ddl"
	KindTxn    Kind = "txn"
	KindOther  Kind = "other"
)

// Class is everything the layers above the parser need to know about a
// statement without looking at its type: the engine's read-only fence and
// latency histograms, the prepared-statement table, and the cluster
// router's read/write split all read it from here.
type Class struct {
	Kind Kind
	// Name is the statement's SQL spelling for error messages ("INSERT",
	// "CREATE TABLE"); for EXPLAIN it is the explained statement's.
	Name string
	// Writes: executing the statement changes data, schema or the log, so
	// only the writable primary may run it.
	Writes bool
	// ReadOnly: the statement reads replicated data and touches neither
	// session nor node state, so any replica may serve it. Neither flag is
	// set for statements that are safe on a replica but are not reads
	// (transaction control, PREPARE, ANALYZE, PROMOTE, ...).
	ReadOnly bool
	// BeginsTxn / EndsTxn: the statement opens / closes an explicit
	// transaction.
	BeginsTxn, EndsTxn bool
}

// Classify is the one statement classifier. It is a pure function of the
// syntax tree and looks through EXPLAIN: EXPLAIN ANALYZE executes the
// inner statement and so writes exactly when that does, plain EXPLAIN
// only plans and is always a read.
func Classify(st Statement) Class {
	switch n := st.(type) {
	case *Select:
		return Class{Kind: KindSelect, Name: "SELECT", ReadOnly: true}
	case *Insert:
		return Class{Kind: KindDML, Name: "INSERT", Writes: true}
	case *Update:
		return Class{Kind: KindDML, Name: "UPDATE", Writes: true}
	case *Delete:
		return Class{Kind: KindDML, Name: "DELETE", Writes: true}
	case *Copy:
		return Class{Kind: KindDML, Name: "COPY", Writes: true}
	case *CreateTable:
		return Class{Kind: KindDDL, Name: "CREATE TABLE", Writes: true}
	case *DropTable:
		return Class{Kind: KindDDL, Name: "DROP TABLE", Writes: true}
	case *CreateIndex:
		return Class{Kind: KindDDL, Name: "CREATE INDEX", Writes: true}
	case *DropIndex:
		return Class{Kind: KindDDL, Name: "DROP INDEX", Writes: true}
	case *Begin:
		return Class{Kind: KindTxn, Name: "BEGIN", BeginsTxn: true}
	case *Commit:
		return Class{Kind: KindTxn, Name: "COMMIT", EndsTxn: true}
	case *Rollback:
		return Class{Kind: KindTxn, Name: "ROLLBACK", EndsTxn: true}
	case *Explain:
		inner := Classify(n.Stmt)
		writes := n.Analyze && inner.Writes
		return Class{Kind: KindOther, Name: inner.Name, Writes: writes, ReadOnly: !writes}
	case *Checkpoint:
		// A replica's log mirrors the primary's byte for byte; a local
		// CHECKPOINT would rotate it out of alignment.
		return Class{Kind: KindOther, Name: "CHECKPOINT", Writes: true}
	case *WaitForClock:
		return Class{Kind: KindOther, Name: "WAIT FOR CLOCK", ReadOnly: true}
	case *Analyze:
		return Class{Kind: KindOther, Name: "ANALYZE"}
	case *Prepare:
		return Class{Kind: KindOther, Name: "PREPARE"}
	case *Execute:
		return Class{Kind: KindOther, Name: "EXECUTE"}
	case *Deallocate:
		return Class{Kind: KindOther, Name: "DEALLOCATE"}
	case *Promote:
		return Class{Kind: KindOther, Name: "PROMOTE"}
	case *Follow:
		return Class{Kind: KindOther, Name: "FOLLOW"}
	}
	return Class{Kind: KindOther}
}
