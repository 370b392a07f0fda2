package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"lambdadb/internal/cluster"
	"lambdadb/internal/engine"
	"lambdadb/internal/repl"
	"lambdadb/internal/server"
	"lambdadb/internal/server/client"
	"lambdadb/internal/telemetry"
)

// The phases of a shutdown, in the order they run. A server drains its
// statements in flight while the replication machinery that acknowledges
// their commits is still up; engines close after everything that uses
// them; directories go last.
const (
	phaseClients = iota
	phaseRouter
	phaseServers
	phaseNodes
	phaseEngines
	phaseDirs
	numPhases
)

// cleanup is the single shutdown path of one topology: every listener,
// goroutine owner, engine and temp dir registers its release here as it is
// created, and run releases them phase by phase, newest first within a
// phase. run happens once and every caller returns only when it is over,
// so the normal path, a signal and the -deadline can all call it, and
// whoever exits the process afterwards leaves nothing half released.
type cleanup struct {
	once sync.Once
	mu   sync.Mutex
	fns  [numPhases][]func()
	done bool
}

// add registers a release. After run has started the release happens at
// once: a resource created during shutdown must not outlive it.
func (c *cleanup) add(phase int, fn func()) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		fn()
		return
	}
	c.fns[phase] = append(c.fns[phase], fn)
	c.mu.Unlock()
}

func (c *cleanup) run() {
	c.once.Do(func() {
		c.mu.Lock()
		fns := c.fns
		c.done = true
		c.mu.Unlock()
		for _, phase := range fns {
			for i := len(phase) - 1; i >= 0; i-- {
				phase[i]()
			}
		}
	})
}

// harness owns what must not survive the process: the topologies that are
// up right now. shutdown tears all of them down.
type harness struct {
	mu   sync.Mutex
	live map[*cleanup]struct{}
}

func newHarness() *harness { return &harness{live: map[*cleanup]struct{}{}} }

// topology returns a fresh cleanup that shutdown will also run.
func (h *harness) topology() *cleanup {
	c := &cleanup{}
	h.mu.Lock()
	h.live[c] = struct{}{}
	h.mu.Unlock()
	return c
}

// release tears one topology down and forgets it.
func (h *harness) release(c *cleanup) {
	c.run()
	h.mu.Lock()
	delete(h.live, c)
	h.mu.Unlock()
}

func (h *harness) shutdown() {
	h.mu.Lock()
	all := make([]*cleanup, 0, len(h.live))
	for c := range h.live {
		all = append(all, c)
	}
	h.mu.Unlock()
	for _, c := range all {
		c.run()
	}
}

// member is one in-process server: an engine, optionally the cluster role
// machinery, and a wire server on a loopback port.
type member struct {
	db   *engine.DB
	addr string
}

// serve puts db behind a wire server on 127.0.0.1:0 and registers its
// shutdown. The accept loop's goroutine is joined on shutdown.
func serve(c *cleanup, db *engine.DB, replHandler server.ReplicationHandler) (string, error) {
	srv := server.New(db, server.Config{
		Addr:        "127.0.0.1:0",
		DrainGrace:  50 * time.Millisecond,
		ReplHandler: replHandler,
	})
	if err := srv.Listen(); err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve() // returns once Shutdown closes the listener
	}()
	c.add(phaseServers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a timeout only means connections were cut
		<-served
	})
	return srv.Addr().String(), nil
}

// startEmbedded opens a non-durable engine.
func startEmbedded(c *cleanup, opts ...engine.Option) *engine.DB {
	db := engine.Open(opts...)
	c.add(phaseEngines, func() { _ = db.Close() })
	return db
}

// startServer opens a non-durable engine behind a wire server.
func startServer(c *cleanup) (*member, error) {
	db := startEmbedded(c)
	addr, err := serve(c, db, nil)
	if err != nil {
		return nil, err
	}
	return &member{db: db, addr: addr}, nil
}

// openDurable opens an engine over a fresh temp dir: a real WAL with a real
// fsync per group commit. The dir is created under os.TempDir and removed
// on shutdown.
func openDurable(c *cleanup, opts ...engine.Option) (*engine.DB, error) {
	dir, err := os.MkdirTemp("", "lambdabench-")
	if err != nil {
		return nil, err
	}
	c.add(phaseDirs, func() { _ = os.RemoveAll(dir) })
	db, err := engine.OpenDir(dir, opts...)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	c.add(phaseEngines, func() { _ = db.Close() })
	return db, nil
}

// startDurableServer is a standalone durable server: WAL, no replication.
func startDurableServer(c *cleanup) (*member, error) {
	db, err := openDurable(c)
	if err != nil {
		return nil, err
	}
	addr, err := serve(c, db, nil)
	if err != nil {
		return nil, err
	}
	return &member{db: db, addr: addr}, nil
}

// startNode is one cluster member, a primary when replicaOf is "".
func startNode(c *cleanup, replicaOf string, syncReplicas int) (*member, error) {
	var opts []engine.Option
	if replicaOf != "" {
		opts = append(opts, engine.WithReadReplica(replicaOf))
	}
	db, err := openDurable(c, opts...)
	if err != nil {
		return nil, err
	}
	node, err := cluster.NewNode(db, replicaOf, cluster.NodeConfig{
		Replica: repl.ReplicaConfig{AckEvery: 20 * time.Millisecond},
		// A commit in flight when the servers shut down has lost its replica
		// and waits SyncTimeout out; 2 s, as in internal/cluster's own
		// tests, bounds how long an interrupted run takes to exit.
		Primary: repl.PrimaryConfig{SyncReplicas: syncReplicas, SyncTimeout: 2 * time.Second},
	})
	if err != nil {
		return nil, fmt.Errorf("new node: %w", err)
	}
	c.add(phaseNodes, node.Close)
	addr, err := serve(c, db, node)
	if err != nil {
		return nil, err
	}
	return &member{db: db, addr: addr}, nil
}

// startRouter fronts nodes with a cluster.Router. FailAfter is far above
// any stall the benchmark causes: a failover mid-window would measure the
// failure detector, not the serving path.
func startRouter(c *cleanup, nodes []string, m *telemetry.Metrics) (*cluster.Router, error) {
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Listen:    "127.0.0.1:0",
		Nodes:     nodes,
		FailAfter: 30 * time.Second,
		Metrics:   m,
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Listen(); err != nil {
		return nil, fmt.Errorf("router listen: %w", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = rt.Serve() // returns once Close closes the listener
	}()
	c.add(phaseRouter, func() {
		rt.Close()
		<-served
	})
	return rt, nil
}

// dial opens a client connection that shutdown closes, which also aborts a
// request in flight.
func dial(c *cleanup, addr string) (*client.Conn, error) {
	conn, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.add(phaseClients, func() { _ = conn.Close() })
	return conn, nil
}

// waitUntil polls cond until it holds or d passes.
func waitUntil(ctx context.Context, d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
