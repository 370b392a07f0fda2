package repl

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/persist"
	"lambdadb/internal/server"
)

// primaryNode is a durable DB serving queries and replication on loopback.
type primaryNode struct {
	db   *engine.DB
	prim *Primary
	addr string
}

func startPrimary(t *testing.T, cfg PrimaryConfig) *primaryNode {
	t.Helper()
	db, err := engine.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prim, err := NewPrimary(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0", ReplHandler: prim})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown primary: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve primary: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Errorf("close primary: %v", err)
		}
	})
	return &primaryNode{db: db, prim: prim, addr: srv.Addr().String()}
}

// replicaNode is a durable read-only DB replicating from a primary.
type replicaNode struct {
	db  *engine.DB
	rep *Replica
	dir string
}

// fastReplicaConfig keeps test reconnects snappy.
func fastReplicaConfig() ReplicaConfig {
	return ReplicaConfig{
		AckEvery:    5 * time.Millisecond,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
}

func startReplica(t *testing.T, primaryAddr string) *replicaNode {
	t.Helper()
	dir := t.TempDir()
	n := openReplica(t, dir, primaryAddr)
	return n
}

func openReplica(t *testing.T, dir, primaryAddr string) *replicaNode {
	t.Helper()
	db, err := engine.OpenDir(dir, engine.WithReadReplica(primaryAddr))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := StartReplica(db, primaryAddr, fastReplicaConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rep.Close()
		if err := db.Close(); err != nil {
			t.Errorf("close replica: %v", err)
		}
	})
	return &replicaNode{db: db, rep: rep, dir: dir}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// countRows returns SELECT COUNT(*) FROM table, or -1 if the table does not
// exist yet (the replica may not have applied its creation).
func countRows(db *engine.DB, table string) int64 {
	res, err := db.Query("SELECT COUNT(*) AS n FROM " + table)
	if err != nil {
		return -1
	}
	var n int64
	fmt.Sscanf(res.Rows[0][0].String(), "%d", &n)
	return n
}

// metric fetches one named counter from the DB's telemetry snapshot.
func metric(db *engine.DB, name string) int64 {
	for _, m := range db.Metrics().Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

func mustExec(t *testing.T, db *engine.DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func TestReplicaCatchUpAndTail(t *testing.T) {
	p := startPrimary(t, PrimaryConfig{})
	mustExec(t, p.db, "CREATE TABLE t (id BIGINT, v DOUBLE)")
	for i := 0; i < 50; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i))
	}

	// Catch-up: the replica starts after the history exists.
	r := startReplica(t, p.addr)
	waitFor(t, "catch-up to 50 rows", func() bool { return countRows(r.db, "t") == 50 })

	// Tail: live commits and DDL stream over the same connection.
	mustExec(t, p.db, "CREATE INDEX t_id ON t (id)")
	for i := 50; i < 80; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i))
	}
	waitFor(t, "tail to 80 rows", func() bool { return countRows(r.db, "t") == 80 })

	// The replicated index serves point lookups on the replica.
	res, err := r.db.Query("SELECT v FROM t WHERE id = 77")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "77.5" {
		t.Fatalf("replica point lookup = %v, want one row 77.5", res.Rows)
	}
	if got := metric(r.db, "repl_records_applied"); got <= 0 {
		t.Error("repl_records_applied = 0, want > 0")
	}
}

func TestReplicaRejectsWrites(t *testing.T) {
	p := startPrimary(t, PrimaryConfig{})
	mustExec(t, p.db, "CREATE TABLE t (id BIGINT)")
	r := startReplica(t, p.addr)
	waitFor(t, "table replication", func() bool { return countRows(r.db, "t") == 0 })

	for _, sql := range []string{
		"INSERT INTO t VALUES (1)",
		"UPDATE t SET id = 2",
		"DELETE FROM t",
		"CREATE TABLE u (id BIGINT)",
		"DROP TABLE t",
		"CREATE INDEX t_id ON t (id)",
		"CHECKPOINT",
		"EXPLAIN ANALYZE INSERT INTO t VALUES (1)",
	} {
		_, err := r.db.Exec(sql)
		var roe *engine.ReadOnlyError
		if !errors.As(err, &roe) {
			t.Fatalf("%s on replica: got %v, want *engine.ReadOnlyError", sql, err)
		}
		if roe.Primary != p.addr {
			t.Errorf("%s error names primary %q, want %q", sql, roe.Primary, p.addr)
		}
	}
	// Reads are unaffected, and planning a write is a read.
	if _, err := r.db.Query("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("SELECT on replica: %v", err)
	}
	if _, err := r.db.Exec("EXPLAIN INSERT INTO t VALUES (1)"); err != nil {
		t.Fatalf("EXPLAIN INSERT on replica: %v", err)
	}
}

func TestReplicaReconnectResumesWithoutResync(t *testing.T) {
	p := startPrimary(t, PrimaryConfig{})
	mustExec(t, p.db, "CREATE TABLE t (id BIGINT)")
	mustExec(t, p.db, "INSERT INTO t VALUES (1)")

	r := startReplica(t, p.addr)
	waitFor(t, "initial sync", func() bool { return countRows(r.db, "t") == 1 })

	// Break the stream mid-ship: the primary's next record send fails, it
	// drops the connection, and the replica reconnects from its durable
	// position — no snapshot involved.
	faultinject.FailOnce("repl.ship.record", errors.New("injected stream break"))
	defer faultinject.Reset()
	mustExec(t, p.db, "INSERT INTO t VALUES (2)")
	mustExec(t, p.db, "INSERT INTO t VALUES (3)")
	waitFor(t, "resume to 3 rows", func() bool { return countRows(r.db, "t") == 3 })

	if got := metric(r.db, "repl_reconnects"); got <= 0 {
		t.Error("repl_reconnects = 0, want > 0")
	}
	if got := metric(r.db, "repl_resyncs"); got != 0 {
		t.Errorf("repl_resyncs = %d, want 0 (resume should not need a snapshot)", got)
	}
}

func TestReplicaRestartResumesFromLocalLog(t *testing.T) {
	p := startPrimary(t, PrimaryConfig{})
	mustExec(t, p.db, "CREATE TABLE t (id BIGINT)")
	for i := 0; i < 20; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}

	dir := t.TempDir()
	r := openReplica(t, dir, p.addr)
	waitFor(t, "initial sync", func() bool { return countRows(r.db, "t") == 20 })

	// Stop the replica cleanly, write more on the primary, then reopen the
	// replica from the same directory: it recovers locally and resumes the
	// stream from its durable position.
	r.rep.Close()
	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 35; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	r2 := openReplica(t, dir, p.addr)
	waitFor(t, "resume after restart", func() bool { return countRows(r2.db, "t") == 35 })
	if got := metric(r2.db, "repl_resyncs"); got != 0 {
		t.Errorf("repl_resyncs = %d, want 0 (restart should resume positionally)", got)
	}
}

// TestReplicaResyncAfterPrune: a replica whose resume segment was pruned is
// rebuilt from a shipped snapshot. The fault cases fail the replica's write
// of that snapshot (ResetForResync goes through persist.WriteFileAtomic, so
// its fault points apply): the install must fail cleanly — no temp file,
// either the previous whole image or none — and a restarted replica must
// resync to convergence.
func TestReplicaResyncAfterPrune(t *testing.T) {
	for _, fault := range []string{"", "persist.save.write", "persist.save.rename"} {
		t.Run("fault="+fault, func(t *testing.T) { testReplicaResyncAfterPrune(t, fault) })
	}
}

func testReplicaResyncAfterPrune(t *testing.T, fault string) {
	p := startPrimary(t, PrimaryConfig{RetainSegments: 1})
	mustExec(t, p.db, "CREATE TABLE t (id BIGINT)")
	mustExec(t, p.db, "INSERT INTO t VALUES (1)")

	dir := t.TempDir()
	r := openReplica(t, dir, p.addr)
	waitFor(t, "initial sync", func() bool { return countRows(r.db, "t") == 1 })

	// Take the replica offline, then roll the primary's log far enough that
	// the replica's resume segment is pruned.
	r.rep.Close()
	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 10; i++ {
			mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d)", 100*round+i+2))
		}
		if _, err := p.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	if fault != "" {
		// Primary and replica share this process's fault points. The first
		// firing is the primary cutting the image it ships and passes; the
		// second is the replica installing it; that and every retry on
		// either side fail, so no install can succeed while armed.
		defer faultinject.Reset()
		var fired atomic.Int64
		faultinject.Set(fault, func() error {
			if fired.Add(1) == 1 {
				return nil
			}
			return errors.New("injected " + fault)
		})
		rf := openReplica(t, dir, p.addr)
		waitFor(t, "failed snapshot install", func() bool { return fired.Load() >= 2 })
		rf.rep.Close()
		if got := metric(rf.db, "repl_resyncs"); got != 0 {
			t.Errorf("repl_resyncs = %d with %s armed, want 0", got, fault)
		}
		if err := rf.db.Close(); err != nil {
			t.Fatal(err)
		}
		faultinject.Reset()
		if _, err := os.Stat(filepath.Join(dir, "snapshot.db.tmp")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("failed install left its temp file behind (stat: %v)", err)
		}
		if _, err := persist.LoadFile(filepath.Join(dir, "snapshot.db")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("failed install left a damaged image: %v", err)
		}
	}

	r2 := openReplica(t, dir, p.addr)
	waitFor(t, "resync to 41 rows", func() bool { return countRows(r2.db, "t") == 41 })
	// The rows become visible inside the install, the counter moves after it.
	waitFor(t, "repl_resyncs > 0 (resume window was pruned)", func() bool { return metric(r2.db, "repl_resyncs") > 0 })
	// And the stream keeps flowing after the snapshot.
	mustExec(t, p.db, "INSERT INTO t VALUES (999)")
	waitFor(t, "tail after resync", func() bool { return countRows(r2.db, "t") == 42 })
}

func TestSystemReplicationRows(t *testing.T) {
	p := startPrimary(t, PrimaryConfig{})
	mustExec(t, p.db, "CREATE TABLE t (id BIGINT)")

	// Before any replica connects, the primary reports a single idle row.
	res, err := p.db.Query("SELECT role, state FROM system.replication")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].String() != "idle" {
		t.Fatalf("idle primary system.replication = %v, want one idle row", res.Rows)
	}

	r := startReplica(t, p.addr)
	waitFor(t, "table replication", func() bool { return countRows(r.db, "t") == 0 })
	mustExec(t, p.db, "INSERT INTO t VALUES (1)")
	waitFor(t, "streaming state on replica", func() bool {
		res, err := r.db.Query("SELECT state FROM system.replication")
		return err == nil && len(res.Rows) == 1 && res.Rows[0][0].String() == "streaming"
	})

	res, err = r.db.Query("SELECT role, peer, lag FROM system.replication")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "replica" || res.Rows[0][1].String() != p.addr {
		t.Fatalf("replica system.replication = %v, want role=replica peer=%s", res.Rows, p.addr)
	}

	waitFor(t, "replica row on primary", func() bool {
		res, err := p.db.Query("SELECT role, state FROM system.replication")
		return err == nil && len(res.Rows) == 1 && res.Rows[0][0].String() == "primary" &&
			res.Rows[0][1].String() == "streaming"
	})
}

func TestReplicaApplyFaultTriggersReconnect(t *testing.T) {
	p := startPrimary(t, PrimaryConfig{})
	mustExec(t, p.db, "CREATE TABLE t (id BIGINT)")
	r := startReplica(t, p.addr)
	waitFor(t, "table replication", func() bool { return countRows(r.db, "t") == 0 })

	// An apply-side fault (e.g. a torn frame surfacing as an error) drops
	// the session; the retry loop reconnects and the stream converges.
	faultinject.FailOnce("repl.apply.record", errors.New("injected apply fault"))
	defer faultinject.Reset()
	for i := 0; i < 10; i++ {
		mustExec(t, p.db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	waitFor(t, "convergence after apply fault", func() bool { return countRows(r.db, "t") == 10 })
	if got := metric(r.db, "repl_reconnects"); got <= 0 {
		t.Error("repl_reconnects = 0, want > 0")
	}
}

func TestPrimaryWithoutWALRefusesReplication(t *testing.T) {
	db := engine.Open()
	defer db.Close()
	if _, err := NewPrimary(db, PrimaryConfig{}); err == nil {
		t.Fatal("NewPrimary on an in-memory DB succeeded, want error")
	}
	if _, err := StartReplica(db, "127.0.0.1:1", fastReplicaConfig()); err == nil {
		t.Fatal("StartReplica on an in-memory DB succeeded, want error")
	}
}

func TestServerWithoutHandlerRefusesReplica(t *testing.T) {
	// A plain server (no ReplHandler) answers ReplStart with an error
	// frame; the replica keeps retrying but reports the refusal.
	db := engine.Open()
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
		db.Close()
	}()

	rdb, err := engine.OpenDir(t.TempDir(), engine.WithReadReplica(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastReplicaConfig()
	cfg.MaxAttempts = 3
	rep, err := StartReplica(rdb, srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	waitFor(t, "replica gives up", func() bool {
		rows := rep.ReplicationRows()
		return len(rows) == 1 && rows[0].State == "failed"
	})
	rep.Close()
}

func TestReadOnlyErrorMessage(t *testing.T) {
	err := &engine.ReadOnlyError{Primary: "db1:5433", Statement: "INSERT"}
	if !strings.Contains(err.Error(), "db1:5433") || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("ReadOnlyError message %q should name the primary and the role", err.Error())
	}
}
