package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/retry"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/wal"
)

// ReplicaConfig tunes the applying side.
type ReplicaConfig struct {
	// DialTimeout bounds one connection attempt. <= 0 means 5s.
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for any frame from the primary. The
	// primary heartbeats every second when idle, so a quiet connection this
	// long is dead and is torn down for a reconnect. <= 0 means 15s.
	ReadTimeout time.Duration
	// AckEvery is how often durable progress is acknowledged. <= 0 means
	// 100ms.
	AckEvery time.Duration
	// BaseBackoff/MaxBackoff shape the reconnect backoff (exponential with
	// jitter). Zero values mean 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds consecutive failed sessions before Run gives up;
	// 0 means retry forever. A session that makes progress resets the count.
	MaxAttempts int
	// Logger receives structured replication-lifecycle logs (reconnects,
	// resyncs) with the primary's address as a field. Nil discards them.
	Logger *slog.Logger
}

func (c *ReplicaConfig) defaults() {
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 15 * time.Second
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 100 * time.Millisecond
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
}

// Replica maintains a streaming connection to the primary, mirrors its log,
// and applies records continuously. It reconnects with backoff on any
// failure and resumes from its own durable position; if the local log has
// diverged or fallen behind the primary's retained segments it requests a
// full snapshot resync instead.
type Replica struct {
	db      *engine.DB
	mgr     *wal.Manager
	metrics *telemetry.Metrics
	primary string
	cfg     ReplicaConfig

	cancel context.CancelFunc
	done   chan struct{}

	forceResync atomic.Bool // next handshake requests a snapshot

	mu           sync.Mutex
	state        string // "connecting", "catchup", "streaming", "resync"
	primaryPos   wal.Pos
	primaryClock uint64
	lastContact  time.Time
	connected    net.Conn // open connection, for interrupting on Close
}

// StartReplica puts db's WAL into mirror mode and begins replicating from
// primaryAddr in the background until Close is called. The caller is
// responsible for having fenced db first (engine.WithReadReplica at open,
// or cluster.Node, which fences before every role change), so writes are
// rejected.
func StartReplica(db *engine.DB, primaryAddr string, cfg ReplicaConfig) (*Replica, error) {
	mgr := db.WALManager()
	if mgr == nil {
		return nil, fmt.Errorf("repl: a replica requires a database opened with a data directory")
	}
	cfg.defaults()
	mgr.ReplicaMode()
	r := &Replica{
		db: db, mgr: mgr, metrics: db.Metrics(), primary: primaryAddr, cfg: cfg,
		done: make(chan struct{}), state: "connecting",
	}
	db.SetReplicationReporter(r)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.run(ctx)
	return r, nil
}

// Close stops replicating and waits for the background loop to exit.
func (r *Replica) Close() {
	r.cancel()
	r.mu.Lock()
	if r.connected != nil {
		r.connected.Close()
	}
	r.mu.Unlock()
	<-r.done
}

func (r *Replica) set(fn func(*Replica)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r)
}

// ReplicationRows implements engine.ReplicationReporter: the replica's own
// progress against the primary's last-reported position.
func (r *Replica) ReplicationRows() []engine.ReplicationRow {
	pos := r.mgr.DurablePos()
	clock := r.db.Store().Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	contact := int64(-1)
	if !r.lastContact.IsZero() {
		contact = time.Since(r.lastContact).Milliseconds()
	}
	return []engine.ReplicationRow{{
		Role: "replica", Peer: r.primary, State: r.state, Epoch: r.mgr.Epoch(),
		WalSeg: pos.Seg, WalOff: pos.Off,
		AppliedClock: clock, PrimaryClock: r.primaryClock,
		LastContact: contact,
	}}
}

// run dials, streams, and reconnects until the context is cancelled.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	bo := retry.Backoff{Base: r.cfg.BaseBackoff, Max: r.cfg.MaxBackoff}
	attempt := 0
	for ctx.Err() == nil {
		progressed, err := r.session(ctx)
		if ctx.Err() != nil {
			return
		}
		if progressed {
			attempt = 0
		}
		if err != nil {
			r.metrics.ReplReconnects.Add(1)
			r.cfg.Logger.Warn("replication stream broken, reconnecting",
				"primary", r.primary, "attempt", attempt+1, "err", err.Error())
			attempt++
			if r.cfg.MaxAttempts > 0 && attempt >= r.cfg.MaxAttempts {
				r.set(func(r *Replica) { r.state = "failed" })
				r.cfg.Logger.Error("replication gave up after repeated failures",
					"primary", r.primary, "attempts", attempt)
				return
			}
			r.set(func(r *Replica) { r.state = "connecting" })
			if err := bo.Sleep(ctx, attempt-1); err != nil {
				return
			}
		}
	}
}

// session runs one connection lifecycle: dial, handshake with the resume
// position, then apply frames until something breaks. It reports whether
// any record was applied or snapshot installed (for backoff reset).
func (r *Replica) session(ctx context.Context) (progressed bool, err error) {
	d := net.Dialer{Timeout: r.cfg.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", r.primary)
	if err != nil {
		return false, err
	}
	defer nc.Close()
	r.set(func(r *Replica) { r.connected = nc })
	defer r.set(func(r *Replica) { r.connected = nil })

	pos := r.mgr.DurablePos()
	clock := r.db.Store().Snapshot()
	if r.forceResync.Swap(false) {
		pos, clock = wal.Pos{}, 0 // zero position asks for a snapshot
	}
	// The epoch always rides along — even on a resync request — so a stale
	// ex-primary learns it is fenced instead of rolling us backwards.
	epoch := r.mgr.Epoch()
	if err := nc.SetWriteDeadline(time.Now().Add(r.cfg.DialTimeout)); err != nil {
		return false, err
	}
	if err := wire.WriteFrame(nc, wire.ReplStart, encodeHandshake(pos, clock, epoch)); err != nil {
		return false, err
	}
	if err := nc.SetWriteDeadline(time.Time{}); err != nil {
		return false, err
	}
	r.set(func(r *Replica) { r.state = "catchup" })

	// Acker: periodically report the durable position so the primary can
	// advance its retention floor. Runs until the socket dies.
	ackCtx, stopAcker := context.WithCancel(ctx)
	ackerDone := make(chan struct{})
	defer func() { stopAcker(); <-ackerDone }()
	go func() {
		defer close(ackerDone)
		tick := time.NewTicker(r.cfg.AckEvery)
		defer tick.Stop()
		// Also wake on durability advances: with semi-synchronous replication
		// the primary's commit latency is bounded by how promptly we ack, so
		// waiting out the full tick would put AckEvery on every commit.
		sub, cancelSub := r.mgr.SubscribeDurable()
		defer func() { cancelSub() }()
		var lastPos wal.Pos
		var lastClock uint64
		for {
			select {
			case <-ackCtx.Done():
				return
			case <-tick.C:
				if sub == nil {
					// The durable subscription died (the log was swapped by a
					// resync, or closed). Re-arm it at tick cadence so a
					// permanently closed log cannot spin this loop.
					sub, cancelSub = r.mgr.SubscribeDurable()
				}
			case _, ok := <-sub:
				if !ok {
					cancelSub()
					sub = nil
					continue
				}
			}
			p := r.mgr.DurablePos()
			c := r.db.Store().Snapshot()
			if p == lastPos && c == lastClock {
				continue
			}
			if err := faultinject.Fire("repl.ack"); err != nil {
				nc.Close()
				return
			}
			if err := nc.SetWriteDeadline(time.Now().Add(r.cfg.DialTimeout)); err != nil {
				nc.Close()
				return
			}
			if err := wire.WriteFrame(nc, wire.ReplAck, encodePosPayload("ACK", p, c, r.mgr.Epoch())); err != nil {
				nc.Close()
				return
			}
			lastPos, lastClock = p, c
		}
	}()

	br := bufio.NewReaderSize(nc, 256<<10)
	// The primary's first frame is a POS announcing its epoch; nothing else
	// — in particular no snapshot — is accepted before that epoch has been
	// checked against ours. A primary on an older epoch is stale (we, or a
	// peer we replicated from, were promoted past it) and its entire session
	// is refused.
	fenced := false
	for {
		if err := nc.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout)); err != nil {
			return progressed, err
		}
		typ, payload, err := wire.ReadFrameLimit(br, wire.MaxReplFrame)
		if err != nil {
			return progressed, err
		}
		r.set(func(r *Replica) { r.lastContact = time.Now() })
		if !fenced && typ != wire.ReplPos && typ != wire.Error {
			return progressed, fmt.Errorf("repl: primary sent frame type %q before announcing its epoch", typ)
		}

		switch typ {
		case wire.ReplSeg:
			seq, err := parseSeg(payload)
			if err != nil {
				return progressed, err
			}
			if err := r.enterSegment(seq); err != nil {
				return progressed, err
			}

		case wire.ReplRecord:
			if err := r.applyRecord(payload); err != nil {
				return progressed, err
			}
			progressed = true

		case wire.ReplPos:
			pos, clock, primaryEpoch, err := parsePosPayload("POS", payload)
			if err != nil {
				return progressed, err
			}
			if local := r.mgr.Epoch(); primaryEpoch < local {
				return progressed, fmt.Errorf("repl: refusing stream from stale primary %s: its epoch %d is behind local epoch %d",
					r.primary, primaryEpoch, local)
			}
			fenced = true
			r.set(func(r *Replica) {
				r.primaryPos, r.primaryClock, r.state = pos, clock, "streaming"
			})

		case wire.ReplResync:
			if err := r.installSnapshot(br, payload); err != nil {
				// A half-installed snapshot leaves no usable local state;
				// start over from scratch.
				r.forceResync.Store(true)
				return progressed, err
			}
			progressed = true
			r.set(func(r *Replica) { r.state = "catchup" })

		case wire.Error:
			return progressed, fmt.Errorf("repl: primary refused stream: %s", payload)

		default:
			return progressed, fmt.Errorf("repl: unexpected frame type %q from primary", typ)
		}
	}
}

// enterSegment handles a ReplSeg announcement: a repeat of the active
// segment is a no-op (resume mid-segment), the next sequence is a rotation,
// anything else means the logs no longer line up.
func (r *Replica) enterSegment(seq uint64) error {
	active := r.mgr.DurablePos().Seg
	switch {
	case seq == active:
		return nil
	case seq == active+1:
		if err := r.mgr.SealMirror(seq); err != nil {
			r.forceResync.Store(true)
			return err
		}
		// Everything in the sealed segments is applied; checkpoint so
		// restarts recover from the image instead of replaying history,
		// and the mirror doesn't grow without bound.
		if _, err := r.mgr.SnapshotPrune(); err != nil {
			return err
		}
		return nil
	default:
		r.forceResync.Store(true)
		return fmt.Errorf("%w: primary announced segment %d, local log is at %d", wal.ErrDiverged, seq, active)
	}
}

// applyRecord mirrors one shipped record into the local log and applies it
// to the store. The mirror append verifies CRC and end offset against the
// primary's framing; any mismatch flags divergence and forces a resync.
func (r *Replica) applyRecord(payload []byte) error {
	endOff, crc, rec, err := parseRecordPayload(payload)
	if err != nil {
		return err
	}
	if err := faultinject.Fire("repl.apply.record"); err != nil {
		return err
	}
	_, err = r.mgr.AppendMirror(rec, endOff, crc)
	if err != nil {
		r.forceResync.Store(true)
		return err
	}
	// Don't block on durability here: the flusher makes the append durable
	// in the background and the acker reports only durable positions, so
	// the primary never trusts more than what is actually on disk.
	applied, err := r.mgr.ApplyStreamed(rec)
	if err != nil {
		r.forceResync.Store(true)
		return err
	}
	if applied {
		r.metrics.ReplRecordsApplied.Add(1)
	} else {
		r.metrics.ReplRecordsSkipped.Add(1)
	}
	clock := r.db.Store().Snapshot()
	r.metrics.WalAppliedClock.Store(int64(clock))
	// How far this apply still trailed the primary's last-reported clock:
	// the per-record view of replication lag.
	r.mu.Lock()
	lag := int64(r.primaryClock) - int64(clock)
	r.mu.Unlock()
	if lag < 0 {
		lag = 0
	}
	r.metrics.Hist().RecordReplApplyLag(lag)
	return nil
}

// installSnapshot consumes a RESYNC header plus its chunk frames and
// replaces the local state wholesale.
func (r *Replica) installSnapshot(br *bufio.Reader, header []byte) error {
	startSeg, size, clock, epoch, err := parseResync(header)
	if err != nil {
		return err
	}
	if local := r.mgr.Epoch(); epoch < local {
		// Unreachable while the session-level fence holds (the primary's
		// epoch was already validated), but a snapshot install is the one
		// operation that discards local history — double-check it.
		return fmt.Errorf("repl: refusing snapshot from stale primary %s: its epoch %d is behind local epoch %d",
			r.primary, epoch, local)
	}
	r.set(func(r *Replica) { r.state = "resync" })
	cr := &chunkReader{br: br, remaining: size, bump: func() error {
		// Chunks can take a while on a big image; keep the read deadline
		// moving so a live transfer isn't killed by the frame timeout.
		return r.setReadDeadline()
	}}
	if err := r.mgr.ResetForResync(cr, startSeg); err != nil {
		return err
	}
	if got := r.db.Store().Snapshot(); got != clock {
		return fmt.Errorf("repl: resync image clock %d, expected %d", got, clock)
	}
	// The image carries state, not log records, so the primary's epoch
	// arrives out of band in the RESYNC header; adopt it now that the
	// install succeeded.
	r.mgr.AdoptEpoch(epoch)
	r.metrics.ReplResyncs.Add(1)
	r.metrics.WalAppliedClock.Store(int64(clock))
	r.cfg.Logger.Info("snapshot resync installed",
		"primary", r.primary, "clock", clock, "start_seg", startSeg, "bytes", size)
	return nil
}

func (r *Replica) setReadDeadline() error {
	r.mu.Lock()
	nc := r.connected
	r.mu.Unlock()
	if nc == nil {
		return fmt.Errorf("repl: connection closed")
	}
	return nc.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout))
}

// chunkReader presents a stream of ReplChunk frames as an io.Reader over
// exactly `remaining` snapshot bytes.
type chunkReader struct {
	br        *bufio.Reader
	remaining int64
	buf       []byte
	bump      func() error
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		if c.remaining <= 0 {
			return 0, io.EOF
		}
		if err := c.bump(); err != nil {
			return 0, err
		}
		typ, payload, err := wire.ReadFrameLimit(c.br, wire.MaxReplFrame)
		if err != nil {
			return 0, err
		}
		if typ != wire.ReplChunk {
			return 0, fmt.Errorf("repl: expected snapshot chunk, got frame type %q", typ)
		}
		if int64(len(payload)) > c.remaining {
			return 0, fmt.Errorf("repl: snapshot overran its declared size by %d bytes", int64(len(payload))-c.remaining)
		}
		c.remaining -= int64(len(payload))
		c.buf = payload
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}
