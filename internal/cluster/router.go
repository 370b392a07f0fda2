package cluster

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"lambdadb/internal/retry"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/sql"
	"lambdadb/internal/telemetry"
)

// RouterConfig tunes the cluster router.
type RouterConfig struct {
	// Listen is the TCP address clients connect to, e.g. ":5440".
	Listen string
	// Nodes are the wire addresses of every cluster member. The router
	// discovers roles by probing; order carries no meaning.
	Nodes []string
	// ReadyURLs optionally maps each node (parallel to Nodes) to its admin
	// /readyz URL; a node answering anything but 200 is rotated out of read
	// routing even when its wire port still answers. "" skips the check.
	ReadyURLs []string
	// ProbeEvery is the health-check interval. <= 0 means 200ms.
	ProbeEvery time.Duration
	// FailAfter is how long a node may fail probes before it is declared
	// dead — for the primary, that is the failover trigger. <= 0 means 2s.
	FailAfter time.Duration
	// ReadyMaxLag rotates a replica out of read routing when its commit-
	// clock lag exceeds this many records. <= 0 disables the gate.
	ReadyMaxLag int64
	// DialTimeout bounds backend dials. <= 0 means 2s.
	DialTimeout time.Duration
	// WriteWait is how long a write waits for an electable primary (e.g.
	// mid-failover) before being refused read_only. <= 0 means 10s.
	WriteWait time.Duration
	// Logger receives routing and failover logs. Nil discards them.
	Logger *slog.Logger
	// Metrics receives the Router* counters. Nil allocates a private set.
	Metrics *telemetry.Metrics
}

func (c *RouterConfig) defaults() {
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 200 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteWait <= 0 {
		c.WriteWait = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Metrics == nil {
		c.Metrics = &telemetry.Metrics{}
	}
}

// Router is the cluster's client-facing front end. It speaks the ordinary
// wire protocol; clients connect to it exactly as they would to a single
// lambdaserver. Per request it parses and classifies the script
// (routeScript): reads fan out over lag-healthy replicas (transparently
// retried elsewhere on failure — reads are idempotent), writes stick to
// the current primary and are never replayed (a connection lost mid-write
// surfaces as a non-retryable error, because the commit may have
// happened). A background
// failure detector probes every node, performs epoch-fenced failover when
// the primary dies, and re-points survivors and rejoiners at the winner.
type Router struct {
	cfg RouterConfig
	log *slog.Logger
	m   *telemetry.Metrics

	ln       net.Listener
	nodes    []*backend
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	primary *backend // current believed primary; nil when none electable
	rr      int      // read round-robin cursor
	conns   map[net.Conn]struct{}
}

// NewRouter validates cfg and prepares a router; Listen + Serve run it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg.defaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node")
	}
	if len(cfg.ReadyURLs) != 0 && len(cfg.ReadyURLs) != len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: %d ready URLs for %d nodes", len(cfg.ReadyURLs), len(cfg.Nodes))
	}
	rt := &Router{
		cfg: cfg, log: cfg.Logger, m: cfg.Metrics,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	for i, addr := range cfg.Nodes {
		b := &backend{addr: addr}
		if len(cfg.ReadyURLs) > 0 {
			b.readyURL = cfg.ReadyURLs[i]
		}
		rt.nodes = append(rt.nodes, b)
	}
	return rt, nil
}

// Listen binds the client listener and starts the failure detector.
func (rt *Router) Listen() error {
	ln, err := net.Listen("tcp", rt.cfg.Listen)
	if err != nil {
		return err
	}
	rt.ln = ln
	go rt.supervise()
	return nil
}

// Addr is the bound listen address (useful with ":0").
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return rt.cfg.Listen
	}
	return rt.ln.Addr().String()
}

// Serve accepts client connections until Close.
func (rt *Router) Serve() error {
	for {
		nc, err := rt.ln.Accept()
		if err != nil {
			select {
			case <-rt.stop:
				return nil
			default:
				return err
			}
		}
		rt.mu.Lock()
		rt.conns[nc] = struct{}{}
		rt.mu.Unlock()
		go func() {
			defer func() {
				rt.mu.Lock()
				delete(rt.conns, nc)
				rt.mu.Unlock()
				nc.Close()
			}()
			rt.serveConn(nc)
		}()
	}
}

// Close stops the listener, the failure detector, and every client
// connection.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	if rt.ln != nil {
		rt.ln.Close()
	}
	<-rt.done
	rt.mu.Lock()
	for nc := range rt.conns {
		nc.Close()
	}
	rt.mu.Unlock()
}

// session is one client connection's routing state.
type session struct {
	rt    *Router
	inTxn bool // BEGIN seen; everything sticks to the primary until it ends

	// dirty marks that this session has written since its last read
	// barrier; the next replica-bound read first fetches the primary's
	// commit clock and prefixes WAIT FOR CLOCK so the session reads its own
	// writes.
	dirty   bool
	barrier uint64

	primaryConn *backendConn            // sticky write connection
	readConns   map[string]*backendConn // per-replica read connections
}

func (rt *Router) serveConn(nc net.Conn) {
	sess := &session{rt: rt, readConns: make(map[string]*backendConn)}
	defer sess.closeBackends()
	br := bufio.NewReader(nc)
	for {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case wire.Query:
			err = sess.handleQuery(nc, payload)
		case wire.Prepare, wire.Bind, wire.Deallocate:
			// Prepared statements are per-backend-session server state, and
			// executing one may write: everything sticks to the primary.
			err = sess.handleSticky(nc, typ, payload)
		case wire.ReplStart:
			err = writeError(nc, "", "", nil, "the router does not accept replication streams; replicas connect to their primary directly")
		default:
			err = writeError(nc, "", "", nil, fmt.Sprintf("unexpected frame type %q", typ))
		}
		if err != nil {
			return // the client connection itself failed
		}
	}
}

func (s *session) closeBackends() {
	if s.primaryConn != nil {
		s.primaryConn.close()
		s.primaryConn = nil
	}
	for _, bc := range s.readConns {
		bc.close()
	}
	s.readConns = nil
}

// handleQuery routes one Query frame.
func (s *session) handleQuery(nc net.Conn, payload []byte) error {
	trace, body := wire.SplitTraced(payload)
	read, inTxn := routeScript(string(body), s.inTxn)
	if read {
		return s.forwardRead(nc, trace, body, payload)
	}
	err := s.forwardWrite(nc, trace, payload)
	// Updated regardless of the outcome: assuming a transaction is still
	// open when it is not only costs read locality (those reads go to the
	// primary), never correctness.
	s.inTxn = inTxn
	return err
}

// handleSticky forwards prepared-statement frames to the primary.
func (s *session) handleSticky(nc net.Conn, typ byte, payload []byte) error {
	trace, _ := wire.SplitTraced(payload)
	return s.forward(nc, typ, trace, payload)
}

// routeScript is the routing decision for one script: read reports whether
// any replica may serve it — no transaction is open and every statement is
// sql.Classify'd ReadOnly — and inTxnAfter is the session's transaction
// state once it ran. A script that does not parse is not a read and leaves
// the state alone: it goes to the primary verbatim, so clients see the
// server's own parse error with or without a router in between.
func routeScript(text string, inTxn bool) (read, inTxnAfter bool) {
	stmts, err := sql.Parse(text)
	if err != nil || len(stmts) == 0 {
		return false, inTxn
	}
	read = !inTxn
	for _, st := range stmts {
		c := sql.Classify(st)
		read = read && c.ReadOnly
		if c.BeginsTxn {
			inTxn = true
		}
		if c.EndsTxn {
			inTxn = false
		}
	}
	return read, inTxn
}

// forwardWrite sends a request that may modify state to the primary —
// exactly once. A rejection by a freshly-demoted node (read_only /
// not_primary) is safe to re-route, because the statement was refused
// before executing; a transport failure after the request was sent is not,
// and surfaces to the client as a non-retryable error.
func (s *session) forwardWrite(nc net.Conn, trace string, payload []byte) error {
	return s.forward(nc, wire.Query, trace, payload)
}

func (s *session) forward(nc net.Conn, typ byte, trace string, payload []byte) error {
	rt := s.rt
	bo := &retry.Backoff{Base: 50 * time.Millisecond, Max: time.Second}
	deadline := time.Now().Add(rt.cfg.WriteWait)
	for attempt := 0; ; attempt++ {
		bc, err := s.stickyPrimary()
		if err != nil {
			if time.Now().Before(deadline) {
				rt.pause(bo, attempt)
				continue
			}
			rt.m.RouterWritesRefused.Add(1)
			return writeError(nc, trace, wire.CodeReadOnly, nil,
				"cluster has no electable primary; serving reads only")
		}
		rtyp, rpayload, err := bc.roundTrip(typ, payload)
		if err != nil {
			// The connection died after the request may have been sent. The
			// write could have committed — never replay it.
			s.dropPrimary()
			return writeError(nc, trace, "", nil,
				fmt.Sprintf("primary connection lost mid-request; the statement may or may not have applied: %v", err))
		}
		if rtyp == wire.Error {
			_, rbody := wire.SplitTraced(rpayload)
			code, details, _ := wire.SplitErrorCode(rbody)
			if code == wire.CodeReadOnly || code == wire.CodeNotPrimary {
				// The node we thought was primary is fenced: it refused
				// before executing, so re-routing is safe, not a replay.
				s.dropPrimary()
				rt.notePrimaryRejected(bc.addr, details["primary"])
				if time.Now().Before(deadline) {
					rt.pause(bo, attempt)
					continue
				}
			}
		}
		rt.m.RouterWritesRouted.Add(1)
		if rtyp != wire.Error {
			s.dirty = true
		}
		return relay(nc, rtyp, rpayload)
	}
}

// forwardRead routes a read-only request: lag-healthy replicas first
// (round-robin), then the primary, then — read-only degradation — any
// healthy node at all. Reads are idempotent, so each failed backend is
// retried on the next transparently.
func (s *session) forwardRead(nc net.Conn, trace string, body, payload []byte) error {
	rt := s.rt
	replicas, primary, fallback := rt.readCandidates()
	if s.dirty {
		if err := s.refreshBarrier(); err != nil {
			// Could not learn the write barrier; the primary itself is
			// always read-your-writes-consistent, so route there.
			replicas = nil
		}
	}

	candidates := make([]*backend, 0, len(replicas)+1+len(fallback))
	candidates = append(candidates, replicas...)
	if primary != nil {
		candidates = append(candidates, primary)
	}
	candidates = append(candidates, fallback...)
	if len(candidates) == 0 {
		return writeError(nc, trace, wire.CodeUnavailable, nil, "no backend is reachable for reads")
	}

	bo := &retry.Backoff{Base: 10 * time.Millisecond, Max: 250 * time.Millisecond}
	var lastErr string
	for i, b := range candidates {
		if i > 0 {
			rt.m.RouterReadRetries.Add(1)
			rt.pause(bo, i-1)
		}
		req := payload
		if b != primary && s.barrier > 0 {
			// Read-your-writes: make the replica wait until it has applied
			// this session's last write before answering.
			prefixed := fmt.Sprintf("WAIT FOR CLOCK %d; %s", s.barrier, body)
			req = wire.AppendTraced(trace, []byte(prefixed))
		}
		bc, err := s.readConn(b)
		if err != nil {
			lastErr = err.Error()
			continue
		}
		rtyp, rpayload, err := bc.roundTrip(wire.Query, req)
		if err != nil {
			lastErr = err.Error()
			bc.close()
			delete(s.readConns, b.addr)
			continue
		}
		if rtyp == wire.Error {
			_, rbody := wire.SplitTraced(rpayload)
			code, _, msg := wire.SplitErrorCode(rbody)
			if code == wire.CodeRetryable || code == wire.CodeUnavailable {
				lastErr = msg
				continue
			}
		}
		rt.m.RouterReadsRouted.Add(1)
		return relay(nc, rtyp, rpayload)
	}
	return writeError(nc, trace, wire.CodeUnavailable, nil,
		fmt.Sprintf("every backend failed the read; last error: %s", lastErr))
}

// refreshBarrier captures the primary's commit clock after this session
// wrote, so replica reads can wait for it. Fetched lazily — on the first
// read after a write — to keep the write path itself one round trip.
func (s *session) refreshBarrier() error {
	if !s.dirty {
		return nil
	}
	bc, err := s.stickyPrimary()
	if err != nil {
		return err
	}
	clock, err := bc.queryClock()
	if err != nil {
		s.dropPrimary()
		return err
	}
	s.barrier = clock
	s.dirty = false
	return nil
}

// stickyPrimary returns this session's write connection, dialing the
// current primary if needed.
func (s *session) stickyPrimary() (*backendConn, error) {
	if s.primaryConn != nil {
		return s.primaryConn, nil
	}
	b := s.rt.currentPrimary()
	if b == nil {
		return nil, fmt.Errorf("cluster: no primary")
	}
	bc, err := dialBackendConn(b.addr, s.rt.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	s.primaryConn = bc
	return bc, nil
}

func (s *session) dropPrimary() {
	if s.primaryConn != nil {
		s.primaryConn.close()
		s.primaryConn = nil
	}
	// The server-side session (and any open transaction) died with the
	// connection.
	s.inTxn = false
}

// readConn returns (dialing if needed) this session's connection to b.
func (s *session) readConn(b *backend) (*backendConn, error) {
	if b == s.rt.currentPrimary() {
		return s.stickyPrimary()
	}
	if bc, ok := s.readConns[b.addr]; ok {
		return bc, nil
	}
	bc, err := dialBackendConn(b.addr, s.rt.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	s.readConns[b.addr] = bc
	return bc, nil
}

// relay writes one response frame to the client verbatim.
func relay(nc net.Conn, typ byte, payload []byte) error {
	return wire.WriteFrame(nc, typ, payload)
}

// writeError sends a router-synthesized Error frame, coded when code is
// non-empty and carrying the request's trace ID so the failure is
// attributable end to end.
func writeError(nc net.Conn, trace, code string, details map[string]string, msg string) error {
	body := []byte(msg)
	if code != "" {
		body = wire.EncodeErrorCode(code, details, msg)
	}
	return wire.WriteFrame(nc, wire.Error, wire.AppendTraced(trace, body))
}

// pause sleeps for the backoff's attempt delay, returning early if the
// router is shutting down.
func (rt *Router) pause(bo *retry.Backoff, attempt int) {
	t := time.NewTimer(bo.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
	case <-rt.stop:
	}
}
