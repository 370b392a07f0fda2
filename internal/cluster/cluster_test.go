package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/repl"
	"lambdadb/internal/server"
	"lambdadb/internal/server/client"
	"lambdadb/internal/telemetry"
)

// testNode is one in-process cluster member: engine + role machinery +
// wire server.
type testNode struct {
	t    *testing.T
	dir  string
	db   *engine.DB
	node *Node
	srv  *server.Server
	addr string
}

func fastNodeConfig(syncReplicas int) NodeConfig {
	return NodeConfig{
		Replica: repl.ReplicaConfig{
			DialTimeout: 2 * time.Second,
			ReadTimeout: 3 * time.Second,
			AckEvery:    20 * time.Millisecond,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  500 * time.Millisecond,
		},
		Primary: repl.PrimaryConfig{
			HeartbeatEvery: 100 * time.Millisecond,
			SyncReplicas:   syncReplicas,
			SyncTimeout:    2 * time.Second,
		},
	}
}

// startNode opens (or reopens) a node in dir and serves it on addr
// (":127.0.0.1:0" semantics via addr == "" for a fresh port).
func startNode(t *testing.T, dir, addr, replicaOf string, syncReplicas int) *testNode {
	t.Helper()
	opts := []engine.Option{}
	if replicaOf != "" {
		opts = append(opts, engine.WithReadReplica(replicaOf))
	}
	db, err := engine.OpenDir(dir, opts...)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	node, err := NewNode(db, replicaOf, fastNodeConfig(syncReplicas))
	if err != nil {
		t.Fatalf("new node: %v", err)
	}
	n := &testNode{t: t, dir: dir, db: db, node: node}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	n.serve(addr)
	return n
}

// serve (re)starts the wire server for an already-open node.
func (n *testNode) serve(addr string) {
	n.t.Helper()
	srv := server.New(n.db, server.Config{
		Addr:        addr,
		DrainGrace:  50 * time.Millisecond,
		ReplHandler: n.node,
	})
	if err := srv.Listen(); err != nil {
		n.t.Fatalf("listen %s: %v", addr, err)
	}
	n.srv = srv
	n.addr = srv.Addr().String()
	go srv.Serve() //nolint:errcheck
}

// stopServer hard-stops the wire server (listener and every connection),
// leaving the engine and role machinery running — the in-process stand-in
// for a network partition.
func (n *testNode) stopServer() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.t.Logf("shutdown %s: %v", n.addr, err)
	}
}

func (n *testNode) close() {
	n.stopServer()
	n.node.Close()
	n.db.Close()
}

// startCluster brings up one primary and two replicas with semi-sync
// (SyncReplicas=1) plus a router over all three.
func startCluster(t *testing.T) (nodes []*testNode, rt *Router, m *telemetry.Metrics) {
	t.Helper()
	n1 := startNode(t, t.TempDir(), "", "", 1)
	n2 := startNode(t, t.TempDir(), "", n1.addr, 0)
	n3 := startNode(t, t.TempDir(), "", n1.addr, 0)
	nodes = []*testNode{n1, n2, n3}

	m = &telemetry.Metrics{}
	rt, err := NewRouter(RouterConfig{
		Listen:     "127.0.0.1:0",
		Nodes:      []string{n1.addr, n2.addr, n3.addr},
		ProbeEvery: 50 * time.Millisecond,
		FailAfter:  500 * time.Millisecond,
		WriteWait:  8 * time.Second,
		Metrics:    m,
	})
	if err != nil {
		t.Fatalf("new router: %v", err)
	}
	if err := rt.Listen(); err != nil {
		t.Fatalf("router listen: %v", err)
	}
	go rt.Serve() //nolint:errcheck
	t.Cleanup(func() {
		rt.Close()
		for _, n := range nodes {
			n.close()
		}
	})
	return nodes, rt, m
}

// execOn runs one statement through a fresh router connection.
func execOn(t *testing.T, addr, stmt string) (*client.Result, error) {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Exec(stmt)
}

func waitFor(t *testing.T, d time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

func TestRouterRoutesAndReadYourWrites(t *testing.T) {
	_, rt, m := startCluster(t)

	// The router needs a probe round to find the primary; the write path
	// waits for it internally, so the first statement just works.
	if _, err := execOn(t, rt.Addr(), "CREATE TABLE kv (k INT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}

	c, err := client.Dial(rt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		// Read-your-writes on the same session: the immediately following
		// read must see every row written so far, no matter which replica
		// serves it.
		res, err := c.Exec("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatalf("count after %d: %v", i, err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(i+1) {
			t.Fatalf("after insert %d: count = %d, want %d", i, got, i+1)
		}
	}

	// EXPLAIN ANALYZE executes its statement: it is a write, goes to the
	// primary (a replica would refuse it read_only), and moves the
	// read-your-writes barrier like any other.
	if _, err := c.Exec("EXPLAIN ANALYZE INSERT INTO kv VALUES (50, 0)"); err != nil {
		t.Fatalf("explain analyze insert: %v", err)
	}
	res, err := c.Exec("WITH n AS (SELECT COUNT(*) AS c FROM kv) SELECT c FROM n")
	if err != nil {
		t.Fatalf("count after explain analyze: %v", err)
	}
	if got := res.Rows[0][0].AsInt(); got != 51 {
		t.Fatalf("after explain analyze insert: count = %d, want 51", got)
	}

	if m.RouterWritesRouted.Load() == 0 || m.RouterReadsRouted.Load() == 0 {
		t.Fatalf("router counters not populated: writes=%d reads=%d",
			m.RouterWritesRouted.Load(), m.RouterReadsRouted.Load())
	}
}

func TestRouterFailoverFencingAndRejoin(t *testing.T) {
	nodes, rt, m := startCluster(t)
	n1 := nodes[0]

	if _, err := execOn(t, rt.Addr(), "CREATE TABLE kv (k INT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	acked := 0
	for i := 0; i < 20; i++ {
		if _, err := execOn(t, rt.Addr(), fmt.Sprintf("INSERT INTO kv VALUES (%d, 1)", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		acked++
	}

	// Kill the primary's server. Reads must keep working throughout (the
	// replicas are healthy), and the router must promote within its
	// detection window and let writes resume.
	n1.stopServer()

	waitFor(t, 15*time.Second, "a write to succeed after failover", func() bool {
		_, err := execOn(t, rt.Addr(), fmt.Sprintf("INSERT INTO kv VALUES (%d, 2)", acked))
		if err == nil {
			acked++
			return true
		}
		return false
	})
	if m.RouterFailovers.Load() != 1 {
		t.Fatalf("router_failovers = %d, want 1", m.RouterFailovers.Load())
	}

	// Reads served continuously, and every acked write survived. Each read
	// is a fresh session (no read-your-writes barrier) and may land on the
	// survivor still being re-pointed at the new primary, which replicates
	// to it asynchronously — so it may trail, but must never fail.
	waitFor(t, 10*time.Second, "every acked write to be readable", func() bool {
		res, err := execOn(t, rt.Addr(), "SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatalf("count after failover: %v", err)
		}
		return res.Rows[0][0].AsInt() == int64(acked)
	})

	// The new regime runs under a bumped, durably fenced epoch.
	res, err := execOn(t, rt.Addr(), "SELECT MAX(epoch) FROM system.replication")
	if err != nil {
		t.Fatalf("epoch query: %v", err)
	}
	if got := res.Rows[0][0].AsInt(); got < 1 {
		t.Fatalf("epoch after failover = %d, want >= 1", got)
	}

	// Heal the partition: the old primary's server comes back, engine
	// state intact, still believing it leads. Direct writes to it must
	// never be acked: either it is already fenced (read_only), or its
	// semi-sync commit cannot find a replica to confirm (its replicas all
	// follow the new primary now) and errors out unconfirmed.
	n1.serve(n1.addr)
	if _, err := execOn(t, n1.addr, "INSERT INTO kv VALUES (999, 3)"); err == nil {
		t.Fatalf("stale primary acked a write after a newer epoch was fenced")
	}

	// The router re-points the rejoiner at the new primary; once demoted it
	// refuses writes with the machine-readable read_only code naming its
	// new primary.
	waitFor(t, 15*time.Second, "the old primary to be demoted to replica", func() bool {
		_, err := execOn(t, n1.addr, "INSERT INTO kv VALUES (999, 4)")
		var se *client.ServerError
		if errors.As(err, &se) {
			return se.Code == "read_only"
		}
		return false
	})

	// And the rejoined replica converges on the full data set.
	waitFor(t, 15*time.Second, "the rejoined replica to catch up", func() bool {
		res, err := execOn(t, n1.addr, "SELECT COUNT(*) FROM kv")
		return err == nil && res.Rows[0][0].AsInt() == int64(acked)
	})
}
