// Package server exposes an engine.DB over TCP: a concurrent network front
// end speaking the length-prefixed text protocol of package wire.
//
// Each accepted connection gets its own engine.Session, so explicit
// BEGIN/COMMIT transactions are per-connection, exactly like the embedded
// shell. Statements run under the DB's lifecycle knobs (statement timeout,
// memory budget) plus a per-connection context that is cancelled when the
// client disconnects, so a dropped client never leaves a statement running.
// Admission control caps concurrent connections; Shutdown drains gracefully
// (stop accepting, let in-flight statements finish for a grace period, then
// cancel them — their error responses are still delivered — and close).
// Connection counters feed the engine's system.metrics virtual table, and
// every statement lands in system.query_log like any other.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

// DefaultDrainGrace is how long Shutdown lets in-flight statements run
// before cancelling them when Config.DrainGrace is unset.
const DefaultDrainGrace = 5 * time.Second

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. ":5433" or "127.0.0.1:0".
	Addr string
	// MaxConns caps concurrent connections; further clients are refused
	// with an Error frame. <= 0 means unlimited.
	MaxConns int
	// DrainGrace is how long Shutdown lets in-flight statements finish
	// before cancelling them. <= 0 means DefaultDrainGrace.
	DrainGrace time.Duration
	// ReplHandler, when set, accepts replication streams: a connection
	// whose first frame is ReplStart is handed to it for the rest of its
	// life instead of serving queries. When nil, a ReplStart is answered
	// with an Error frame and the connection closed.
	ReplHandler ReplicationHandler
	// Logger receives structured connection-lifecycle and statement-error
	// logs (session and trace IDs as fields). Nil discards them.
	Logger *slog.Logger
}

// ReplicationHandler takes over a connection that identified itself as a
// replica (first frame ReplStart). It owns the socket until it returns;
// br carries any bytes already buffered past the handshake frame, and
// start is the handshake payload. ctx is cancelled on server shutdown.
type ReplicationHandler interface {
	ServeReplication(ctx context.Context, nc net.Conn, br *bufio.Reader, start []byte)
}

// Server serves an engine.DB over TCP.
type Server struct {
	db     *engine.DB
	cfg    Config
	log    *slog.Logger
	nextID atomic.Int64 // per-connection session IDs for log correlation

	// baseCtx parents every connection's statement context; Shutdown
	// cancels it when the drain grace expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	lis     net.Listener
	conns   map[*conn]struct{}
	closing bool

	wg sync.WaitGroup // one count per live connection
}

// New returns an unstarted server for db.
func New(db *engine.DB, cfg Config) *Server {
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = DefaultDrainGrace
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:         db,
		cfg:        cfg,
		log:        log,
		baseCtx:    ctx,
		baseCancel: cancel,
		conns:      make(map[*conn]struct{}),
	}
}

// Listen binds the configured address. After Listen, Addr reports the
// bound address (useful with ":0").
func (s *Server) Listen() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		lis.Close()
		return fmt.Errorf("server is shut down")
	}
	s.lis = lis
	return nil
}

// Addr returns the bound listen address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections until Shutdown. It returns nil when the
// listener was closed by Shutdown, otherwise the accept error.
func (s *Server) Serve() error {
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		s.admit(nc)
	}
}

// admit applies admission control and either starts serving the
// connection or refuses it with an Error frame.
func (s *Server) admit(nc net.Conn) {
	m := s.db.Metrics()
	s.mu.Lock()
	refuse := ""
	switch {
	case s.closing:
		refuse = "server is shutting down"
	case s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns:
		refuse = fmt.Sprintf("server is at its connection limit (%d)", s.cfg.MaxConns)
	}
	if refuse != "" {
		s.mu.Unlock()
		m.ConnsRejected.Add(1)
		s.log.Warn("connection refused", "remote", nc.RemoteAddr().String(), "reason", refuse)
		_ = nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
		// Both refusals are transient: another node (or this one, shortly)
		// can serve the client, so code them retryable for routers.
		_ = wire.WriteFrame(nc, wire.Error, wire.EncodeErrorCode(wire.CodeRetryable, nil, refuse))
		nc.Close()
		return
	}
	c := &conn{srv: s, nc: nc, sess: s.db.NewSession(), id: s.nextID.Add(1)}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	m.ConnsOpened.Add(1)
	m.ConnsActive.Add(1)
	s.log.Info("connection opened", "session", c.id, "remote", nc.RemoteAddr().String())
	go c.serve()
}

// Shutdown gracefully drains the server: stop accepting, close idle
// connections, let in-flight statements finish for the configured
// DrainGrace (their responses are still delivered), then cancel whatever
// is left — cancelled statements still answer with an Error frame — and
// wait for every connection to tear down. ctx bounds the whole wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	lis := s.lis
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.drain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-grace.C:
	case <-ctx.Done():
	}
	// Grace expired (or the caller gave up waiting): cancel in-flight
	// statements. Each still writes its error response before closing.
	s.baseCancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// conn is one client connection: a session, the socket, and the drain
// handshake state.
type conn struct {
	srv  *Server
	nc   net.Conn
	sess *engine.Session
	id   int64 // session ID for log correlation

	mu       sync.Mutex
	busy     bool // a statement is executing
	draining bool // close as soon as the current response is written
}

// serve runs the request loop. Requests are read ahead on a separate
// goroutine so a client disconnect cancels the statement it was waiting
// on instead of leaving it running to completion.
func (c *conn) serve() {
	defer c.teardown()
	ctx, cancel := context.WithCancel(c.srv.baseCtx)
	defer cancel()

	// The first frame decides what the connection is: a Query starts an
	// ordinary session, a ReplStart hands the socket to the replication
	// layer for the rest of its life.
	br := bufio.NewReader(c.nc)
	first, firstPayload, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	if first == wire.ReplStart {
		h := c.srv.cfg.ReplHandler
		if h == nil {
			_ = c.nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
			_ = wire.WriteFrame(c.nc, wire.Error, []byte("this server does not accept replicas"))
			return
		}
		h.ServeReplication(ctx, c.nc, br, firstPayload)
		return
	}
	if !isRequestFrame(first) {
		return
	}

	reqs := make(chan request)
	go func() {
		defer close(reqs)
		// Deliver the already-read first request, then keep reading ahead so
		// a client disconnect cancels the statement it was waiting on.
		select {
		case reqs <- request{first, firstPayload}:
		case <-ctx.Done():
			return
		}
		for {
			typ, payload, err := wire.ReadFrame(br)
			if err != nil || !isRequestFrame(typ) {
				// Disconnect or protocol violation: abort whatever the
				// connection is running and stop reading.
				cancel()
				return
			}
			select {
			case reqs <- request{typ, payload}:
			case <-ctx.Done():
				return
			}
		}
	}()

	bw := bufio.NewWriter(c.nc)
	for req := range reqs {
		if !c.beginStatement() {
			return // draining: don't start new work
		}
		typ, payload := c.execute(ctx, req.typ, req.payload)
		werr := wire.WriteFrame(bw, typ, payload)
		if werr == nil {
			werr = bw.Flush()
		}
		drained := c.endStatement()
		if werr != nil || drained || ctx.Err() != nil {
			return
		}
	}
}

// request is one client frame awaiting execution.
type request struct {
	typ     byte
	payload []byte
}

// isRequestFrame reports whether typ is a frame a client may send on an
// established query connection.
func isRequestFrame(typ byte) bool {
	switch typ {
	case wire.Query, wire.Prepare, wire.Bind, wire.Deallocate:
		return true
	}
	return false
}

// execute runs one request on the connection's session and encodes the
// response frame. The request's trace ID (client-supplied, or generated
// here so every statement has one) rides the statement context into the
// engine's query log and comes back on the Error frame.
func (c *conn) execute(ctx context.Context, typ byte, req []byte) (byte, []byte) {
	traceID, body := wire.SplitTraced(req)
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	ctx = telemetry.WithTraceID(ctx, traceID)
	var res *engine.Result
	var err error
	switch typ {
	case wire.Query:
		res, err = c.sess.ExecColumns(ctx, string(body))
	case wire.Prepare:
		// Routed through PREPARE text: the statement is parsed once here and
		// never again on Bind.
		var name, stmt string
		if name, stmt, err = wire.DecodePrepare(body); err == nil {
			res, err = c.sess.ExecColumns(ctx, "PREPARE "+name+" AS "+stmt)
		}
	case wire.Bind:
		// The fast path: no SQL text at all — the prepared template's cached
		// plan is executed with the argument values bound.
		var name string
		var args []types.Value
		if name, args, err = wire.DecodeBind(body); err == nil {
			res, err = c.sess.ExecutePreparedColumns(ctx, name, args)
		}
	case wire.Deallocate:
		if len(body) == 0 {
			res, err = c.sess.ExecColumns(ctx, "DEALLOCATE ALL")
		} else {
			res, err = c.sess.ExecColumns(ctx, "DEALLOCATE "+string(body))
		}
	default:
		err = fmt.Errorf("unsupported request frame %q", typ)
	}
	if err == nil && res != nil && len(res.Columns) > 0 {
		// A result too large for one frame fails here, as the statement
		// does: an open transaction is rolled back, and the session and the
		// connection stay.
		payload, encErr := wire.EncodeBatches(ctx, res.Columns, res.Types, res.Batches, c.srv.db.Workers())
		if encErr == nil {
			return wire.Result, payload
		}
		err = c.sess.AbortOnError(encErr)
	}
	if err != nil {
		c.srv.log.Warn("statement error", "session", c.id, "trace_id", traceID, "err", err.Error())
		return wire.Error, wire.AppendTraced(traceID, classifyError(err))
	}
	affected := 0
	if res != nil {
		affected = res.Affected
	}
	return wire.Affected, strconv.AppendInt(nil, int64(affected), 10)
}

// classifyError renders an error body for the wire, prefixing the
// machine-readable code for failures a router or client must act on
// structurally; everything else stays a plain message.
func classifyError(err error) []byte {
	var ro *engine.ReadOnlyError
	if errors.As(err, &ro) {
		details := map[string]string{}
		if ro.Primary != "" {
			details["primary"] = ro.Primary
		}
		return wire.EncodeErrorCode(wire.CodeReadOnly, details, err.Error())
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The statement was cancelled (drain, disconnect race, timeout): a
		// read is safe to retry on another node.
		return wire.EncodeErrorCode(wire.CodeRetryable, nil, err.Error())
	}
	return []byte(err.Error())
}

// beginStatement marks the connection busy; it reports false when the
// server is draining and no new statement may start.
func (c *conn) beginStatement() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return false
	}
	c.busy = true
	return true
}

// endStatement clears the busy flag and reports whether a drain request
// arrived while the statement ran.
func (c *conn) endStatement() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = false
	return c.draining
}

// drain asks the connection to finish up: an idle connection closes
// immediately, a busy one closes right after its response is written.
func (c *conn) drain() {
	c.mu.Lock()
	busy := c.busy
	c.draining = true
	c.mu.Unlock()
	if !busy {
		c.nc.Close()
	}
}

// teardown releases everything the connection holds.
func (c *conn) teardown() {
	c.sess.Close()
	c.nc.Close()
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	m := s.db.Metrics()
	m.ConnsClosed.Add(1)
	m.ConnsActive.Add(-1)
	s.log.Info("connection closed", "session", c.id)
	s.wg.Done()
}
