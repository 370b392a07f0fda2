// Package client is a minimal Go client for lambdaserver's wire protocol
// (see internal/server/wire). It is what sqlshell's -connect mode and the
// server's stress tests are built on.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"lambdadb/internal/retry"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

// Result is one request's outcome: either a typed result set (Columns,
// Types, Rows) or an affected-row count. The rows of a result set share one
// slab of values (wire.DecodeResultSet), so a caller that keeps a few rows
// of a large result should copy them.
type Result struct {
	Columns  []string
	Types    []types.Type
	Rows     [][]types.Value
	Affected int
}

// ServerError is an error the server reported for one request. The
// connection stays usable after a ServerError; any other error from Exec
// poisons the connection. TraceID is the request's trace ID as echoed by
// the server ("" when talking to a server predating trace support), so a
// caller can quote it when filing the failure against server logs and
// system.query_log.
//
// Code is the machine-readable classification from the error frame (e.g.
// wire.CodeReadOnly, wire.CodeRetryable), "" when the server sent an
// unclassified error. Details carries the code's key/value annotations.
type ServerError struct {
	Msg     string
	TraceID string
	Code    string
	Details map[string]string
}

func (e *ServerError) Error() string { return e.Msg }

// Primary returns the primary's address a read_only rejection pointed at,
// or "" when the server did not know one.
func (e *ServerError) Primary() string { return e.Details["primary"] }

// Conn is a client connection. It is safe for concurrent use: requests are
// serialized (the protocol is strictly request/response), and Close may be
// called at any time — including while a request is in flight, which
// aborts it (the server sees the disconnect and cancels the statement).
type Conn struct {
	reqMu sync.Mutex // serializes requests; never held by Close
	br    *bufio.Reader

	mu     sync.Mutex // guards nc
	nc     net.Conn
	closed bool
}

// ConnError is a transport-level connection failure: the dial (including
// every retry) failed, so no server ever answered. It wraps the last
// attempt's error and reports how many attempts were made, so callers can
// distinguish "server unreachable" from a statement the server rejected
// (*ServerError) and surface the retry effort in their own messages.
type ConnError struct {
	Addr     string
	Attempts int
	Err      error
}

func (e *ConnError) Error() string {
	return fmt.Sprintf("client: connect to %s failed after %d attempt(s): %v", e.Addr, e.Attempts, e.Err)
}

func (e *ConnError) Unwrap() error { return e.Err }

// RetryConfig bounds DialRetry. The zero value means 5 attempts with a
// 50ms-to-2s jittered exponential backoff between them.
type RetryConfig struct {
	MaxAttempts int           // total dial attempts; <= 0 means 5
	BaseBackoff time.Duration // first retry delay; <= 0 means 50ms
	MaxBackoff  time.Duration // retry delay cap; <= 0 means 2s
}

// Dial connects to a lambdaserver at addr with a single attempt.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &ConnError{Addr: addr, Attempts: 1, Err: err}
	}
	return &Conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// DialRetry connects to a lambdaserver at addr, retrying failed dials with
// capped exponential backoff plus jitter up to cfg.MaxAttempts times. It
// returns a *ConnError carrying the attempt count when every attempt
// failed, or ctx's error when cancelled between attempts. Permanent
// failures — a malformed address, or a resolver saying the host does not
// exist — fail immediately instead of burning the attempt budget: no
// number of retries turns a bad address into a reachable server.
func DialRetry(ctx context.Context, addr string, cfg RetryConfig) (*Conn, error) {
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	base := cfg.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := cfg.MaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, &ConnError{Addr: addr, Attempts: 0, Err: err}
	}
	bo := &retry.Backoff{Base: base, Max: max}
	var d net.Dialer
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := bo.Sleep(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return &Conn{nc: nc, br: bufio.NewReader(nc)}, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if permanentDialError(err) {
			return nil, &ConnError{Addr: addr, Attempts: attempt + 1, Err: err}
		}
	}
	return nil, &ConnError{Addr: addr, Attempts: attempts, Err: lastErr}
}

// permanentDialError reports whether a dial failure cannot be cured by
// retrying: the address failed to parse, or DNS authoritatively said the
// name does not exist. Refused connections, timeouts, and temporary
// resolver failures all stay retryable.
func permanentDialError(err error) bool {
	var ae *net.AddrError
	if errors.As(err, &ae) {
		return true
	}
	var de *net.DNSError
	if errors.As(err, &de) {
		return de.IsNotFound
	}
	return false
}

// conn returns the live socket or an error after Close/failure.
func (c *Conn) conn() (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil, fmt.Errorf("client: connection is closed")
	}
	return c.nc, nil
}

// Exec sends one request (one or more semicolon-separated statements) and
// returns the server's single response — the last statement's result.
func (c *Conn) Exec(text string) (*Result, error) {
	return c.ExecContext(context.Background(), text)
}

// ExecContext is Exec bounded by ctx. The wire protocol has no out-of-band
// cancel message, so cancellation closes the connection; the server
// notices the disconnect and cancels the statement server-side. After a
// cancelled call the Conn is closed and must be re-dialled.
//
// The request carries a trace ID: the one in ctx (telemetry.WithTraceID)
// when present, else a freshly generated one. The server stamps it into
// its query log, slow-query log, and any error frame, so one ID follows
// the statement across every observability surface.
func (c *Conn) ExecContext(ctx context.Context, text string) (*Result, error) {
	return c.roundTrip(ctx, wire.Query, []byte(text))
}

// Prepare creates a named server-side prepared statement on this
// connection's session; stmt may contain $1..$N placeholders, and name may
// carry a declared type list, e.g. "q (INT, TEXT)". It is sent as ordinary
// PREPARE statement text, so it also works against servers predating the
// prepared-statement frames (which answer Bind by dropping the connection —
// a failed Prepare is the compatibility signal to stop).
func (c *Conn) Prepare(ctx context.Context, name, stmt string) error {
	_, err := c.ExecContext(ctx, "PREPARE "+name+" AS "+stmt)
	return err
}

// ExecutePrepared executes a prepared statement with args bound to $1..$N
// using a Bind frame: no SQL text crosses the wire and the server skips
// lex/parse/plan entirely on a plan-cache hit. Only call it after a
// successful Prepare on this connection.
func (c *Conn) ExecutePrepared(ctx context.Context, name string, args ...types.Value) (*Result, error) {
	return c.roundTrip(ctx, wire.Bind, wire.EncodeBind(name, args))
}

// Deallocate drops one prepared statement, or every one when name is "".
func (c *Conn) Deallocate(ctx context.Context, name string) error {
	_, err := c.roundTrip(ctx, wire.Deallocate, []byte(name))
	return err
}

// roundTrip sends one request frame and decodes the single response frame.
func (c *Conn) roundTrip(ctx context.Context, typ byte, body []byte) (*Result, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	nc, err := c.conn()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				nc.Close() // unblocks the write/read below
			case <-stop:
			}
		}()
	}
	traceID := telemetry.TraceID(ctx)
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	if err := wire.WriteFrame(nc, typ, wire.AppendTraced(traceID, body)); err != nil {
		// A server that refuses a connection sends its Error frame and closes
		// without reading, so the request can break on the reset while the
		// reason waits to be read: that frame, not the broken pipe, is the
		// answer. The connection is torn down either way.
		typ, payload, rerr := wire.ReadFrame(c.br)
		err = c.fail(ctx, err)
		if rerr == nil && typ == wire.Error {
			err = serverError(payload)
		}
		return nil, err
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, c.fail(ctx, err)
	}
	switch typ {
	case wire.Error:
		return nil, serverError(payload)
	case wire.Affected:
		n, err := strconv.Atoi(string(payload))
		if err != nil {
			return nil, c.fail(ctx, fmt.Errorf("client: bad affected count %q", payload))
		}
		return &Result{Affected: n}, nil
	case wire.Result:
		rs, err := wire.DecodeResultSet(payload)
		if err != nil {
			return nil, c.fail(ctx, err)
		}
		return &Result{Columns: rs.Columns, Types: rs.Types, Rows: rs.Rows}, nil
	default:
		return nil, c.fail(ctx, fmt.Errorf("client: unexpected frame type %q", typ))
	}
}

// serverError decodes an Error frame.
func serverError(payload []byte) *ServerError {
	id, body := wire.SplitTraced(payload)
	code, details, msg := wire.SplitErrorCode(body)
	return &ServerError{Msg: msg, TraceID: id, Code: code, Details: details}
}

// fail tears the connection down after a transport-level failure,
// preferring the context's error when the failure was a cancellation and
// a plain "closed" error when Close raced the request.
func (c *Conn) fail(ctx context.Context, err error) error {
	c.mu.Lock()
	closed := c.closed
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
	c.mu.Unlock()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if closed {
		return fmt.Errorf("client: connection closed during request")
	}
	return err
}

// Close closes the connection. It never blocks on an in-flight request
// (the request fails instead) and is safe to call twice.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}
