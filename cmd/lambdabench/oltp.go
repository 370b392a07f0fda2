package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/server/client"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

// The three prepared statements of the OLTP mix.
const (
	sqlRead   = "SELECT x, s FROM kv WHERE id = $1"
	sqlInsert = "INSERT INTO kv VALUES ($1, $2, $3, $4)"
	sqlUpdate = "UPDATE kv SET x = $1 WHERE id = $2"
)

// oltpCluster is the only workload that crosses every serving hop: client,
// wire, router, server, plan cache, index probe, commit, WAL fsync and the
// semi-sync replica ack.
type oltpCluster struct {
	h    *harness
	sz   sizes
	seed int64

	kv       *kvData
	top      *cleanup
	primary  *member
	replica  *member
	router   string
	routerM  *telemetry.Metrics
	sessions []*oltpSession
}

func (w *oltpCluster) spanNames() [numClasses]string {
	return [numClasses]string{"oltp.read", "oltp.insert", "oltp.update", ""}
}

func (w *oltpCluster) setup(ctx context.Context) error {
	w.kv = genKV(w.sz.kvRows, w.seed)
	w.top = w.h.topology()
	var err error
	if w.primary, err = startNode(w.top, "", 1); err != nil {
		return err
	}
	if w.replica, err = startNode(w.top, w.primary.addr, 0); err != nil {
		return err
	}
	// Semi-sync commits wait for a connected replica, so the load below
	// also proves the stream is up.
	if err := loadKV(w.primary.db, w.kv); err != nil {
		return fmt.Errorf("load kv: %w", err)
	}
	if err := w.waitReplica(ctx); err != nil {
		return err
	}
	w.routerM = &telemetry.Metrics{}
	rt, err := startRouter(w.top, []string{w.primary.addr, w.replica.addr}, w.routerM)
	if err != nil {
		return err
	}
	w.router = rt.Addr()
	w.sessions = nil
	for i := 0; i < w.sz.oltpClients; i++ {
		s, err := newOLTPSession(w.top, w.router, w.kv.n, i, w.sz.oltpClients, w.seed)
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, s)
	}
	return nil
}

// waitReplica blocks until the replica has applied everything the primary
// committed.
func (w *oltpCluster) waitReplica(ctx context.Context) error {
	return waitUntil(ctx, 20*time.Second, "the replica to reach the primary's clock", func() bool {
		return w.replica.db.Store().Snapshot() == w.primary.db.Store().Snapshot()
	})
}

func (w *oltpCluster) clients() []session {
	out := make([]session, len(w.sessions))
	for i, s := range w.sessions {
		out[i] = s
	}
	return out
}

func (w *oltpCluster) close() { w.h.release(w.top) }

// check: every acknowledged INSERT is readable on the primary and on the
// replica, and the replica's clock equals the primary's. (Point reads were
// checked as they returned.)
func (w *oltpCluster) check(ctx context.Context) error {
	if err := w.waitReplica(ctx); err != nil {
		return err
	}
	var acked []int64
	for _, s := range w.sessions {
		acked = append(acked, s.inserted...)
	}
	return checkInserted(acked, int64(w.kv.n), map[string]*engine.DB{"primary": w.primary.db, "replica": w.replica.db})
}

// checkInserted compares the ids >= base stored on each engine with the
// acknowledged ones, by count and sum.
func checkInserted(acked []int64, base int64, dbs map[string]*engine.DB) error {
	wantSum := int64(0)
	for _, id := range acked {
		wantSum += id
	}
	for role, db := range dbs {
		res, err := db.Query(fmt.Sprintf("SELECT count(*), sum(id) FROM kv WHERE id >= %d", base))
		if err != nil {
			return fmt.Errorf("%s: %w", role, err)
		}
		gotN, gotSum := res.Rows[0][0].AsInt(), res.Rows[0][1].AsInt()
		if gotN != int64(len(acked)) || gotSum != wantSum {
			return fmt.Errorf("%s holds %d inserted rows with id sum %d; %d were acknowledged with id sum %d",
				role, gotN, gotSum, len(acked), wantSum)
		}
	}
	return nil
}

// oltpSession is one closed-loop client connection with its own seeded
// operation sequence. Inserts use ids no other session uses, and updates
// touch only keys congruent to the session's index, so no two sessions can
// conflict and no operation is expected to fail.
type oltpSession struct {
	conn     *client.Conn
	rng      *rand.Rand
	n        int64
	idx      int64
	stride   int64
	nextID   int64
	inserted []int64
}

// newOLTPSession dials addr and prepares the three statements.
func newOLTPSession(c *cleanup, addr string, n, idx, sessions int, seed int64) (*oltpSession, error) {
	conn, err := dial(c, addr)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for name, stmt := range map[string]string{"rd": sqlRead, "ins": sqlInsert, "upd": sqlUpdate} {
		if err := conn.Prepare(ctx, name, stmt); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
	}
	return &oltpSession{
		conn:   conn,
		rng:    rand.New(rand.NewSource(seed*1000 + int64(idx))),
		n:      int64(n),
		idx:    int64(idx),
		stride: int64(sessions),
		nextID: int64(n + idx),
	}, nil
}

// next draws the next operation: 80 % point read of a uniform key, 10 %
// insert of a fresh id, 10 % update of a uniform key of this session's
// residue class.
func (s *oltpSession) next(ctx context.Context) (op, error) {
	r := s.rng.Intn(10)
	switch {
	case r < 8:
		return s.read(s.rng.Int63n(s.n))
	case r == 8:
		return s.insert()
	default:
		return s.update()
	}
}

func (s *oltpSession) read(id int64) (op, error) {
	start := time.Now()
	res, err := s.conn.ExecutePrepared(context.Background(), "rd", types.NewInt(id))
	o := op{class: classA, start: start, lat: time.Since(start)}
	if err != nil {
		return o, fmt.Errorf("read %d: %w", id, err)
	}
	return o, checkRead(res, id)
}

// checkRead holds a point read to its one row with s = 'v<id>'.
func checkRead(res *client.Result, id int64) error {
	if len(res.Rows) != 1 || res.Rows[0][1].S != kvString(id) {
		return fmt.Errorf("read %d returned %d rows %v, want one row with s = %q", id, len(res.Rows), res.Rows, kvString(id))
	}
	return nil
}

func (s *oltpSession) insert() (op, error) {
	id := s.nextID
	s.nextID += s.stride
	start := time.Now()
	res, err := s.conn.ExecutePrepared(context.Background(), "ins",
		types.NewInt(id), types.NewInt(id%100), types.NewFloat(s.rng.Float64()), types.NewString(kvString(id)))
	o := op{class: classB, start: start, lat: time.Since(start)}
	if err != nil {
		return o, fmt.Errorf("insert %d: %w", id, err)
	}
	if res.Affected != 1 {
		return o, fmt.Errorf("insert %d affected %d rows", id, res.Affected)
	}
	s.inserted = append(s.inserted, id)
	return o, nil
}

func (s *oltpSession) update() (op, error) {
	id := s.rng.Int63n(s.n/s.stride)*s.stride + s.idx
	start := time.Now()
	res, err := s.conn.ExecutePrepared(context.Background(), "upd", types.NewFloat(s.rng.Float64()), types.NewInt(id))
	o := op{class: classC, start: start, lat: time.Since(start)}
	if err != nil {
		return o, fmt.Errorf("update %d: %w", id, err)
	}
	if res.Affected != 1 {
		return o, fmt.Errorf("update %d affected %d rows", id, res.Affected)
	}
	return o, nil
}

// layers decomposes the point read and the durable insert by running the
// same operations against the embedded engine, one server and the router,
// and subtracting; counters come from the engines' own telemetry.
func (w *oltpCluster) layers(ctx context.Context, tr *tracer, m *metrics, out io.Writer) error {
	sc := w.h.topology() // the extra topologies of the subtraction
	defer w.h.release(sc)
	reps := w.sz.probeReps
	rng := rand.New(rand.NewSource(w.seed + 7))
	keys := make([]int64, reps)
	for i := range keys {
		keys[i] = rng.Int63n(int64(w.kv.n))
	}

	// Embedded engine, no WAL: the engine's own share.
	emb := startEmbedded(sc)
	if err := loadKV(emb, w.kv); err != nil {
		return err
	}
	runtime.GC() // time the engine, not the collection of the load's garbage
	es := emb.NewSession()
	defer es.Close()
	for name, stmt := range map[string]string{"rd": sqlRead, "ins": sqlInsert, "upd": sqlUpdate} {
		if _, err := es.Exec("PREPARE " + name + " AS " + stmt); err != nil {
			return err
		}
	}
	embedded := func(span, name string, n int, args func(i int) []types.Value) error {
		return tr.passes(ctx, n/10, n, func(t *tracer, i int) error {
			a := args(i)
			start := time.Now()
			_, err := es.ExecutePrepared(ctx, name, a)
			if err != nil {
				return fmt.Errorf("embedded %s: %w", name, err)
			}
			t.record(span, noSpan, start, time.Since(start))
			return nil
		})
	}
	key := func(i int) int64 { return keys[(i+len(keys))%len(keys)] }
	if err := embedded("engine.point_read", "rd", reps, func(i int) []types.Value {
		return []types.Value{types.NewInt(key(i))}
	}); err != nil {
		return err
	}
	fresh := int64(w.kv.n) + 1<<20
	if err := embedded("engine.insert", "ins", reps/4, func(i int) []types.Value {
		fresh++
		return []types.Value{types.NewInt(fresh), types.NewInt(fresh % 100), types.NewFloat(1), types.NewString(kvString(fresh))}
	}); err != nil {
		return err
	}
	if err := embedded("engine.update", "upd", reps/40+2, func(i int) []types.Value {
		return []types.Value{types.NewFloat(float64(i)), types.NewInt(key(i))}
	}); err != nil {
		return err
	}

	// One server, then the router: the same keys over each.
	direct, err := newOLTPSession(sc, w.primary.addr, w.kv.n, 0, 1, w.seed)
	if err != nil {
		return err
	}
	routed, err := newOLTPSession(sc, w.router, w.kv.n, 0, 1, w.seed)
	if err != nil {
		return err
	}
	reads := func(span string, s *oltpSession) error {
		return tr.passes(ctx, reps/10, reps, func(t *tracer, i int) error {
			o, err := s.read(key(i))
			t.record(span, noSpan, o.start, o.lat)
			return err
		})
	}
	if err := reads("server.direct_read", direct); err != nil {
		return err
	}
	if err := reads("cluster.routed_read", routed); err != nil {
		return err
	}

	// Ad-hoc reads with unique inline literals: more distinct texts than
	// the plan cache holds, so each one lexes, parses and plans. Direct
	// first; then through the router, where text reads may go to the
	// replica (prepared ones stick to the primary).
	adhoc := func(span string, conn *client.Conn, base int) error {
		return tr.passes(ctx, 0, reps, func(t *tracer, i int) error {
			id := int64((base + i) % w.kv.n)
			start := time.Now()
			res, err := conn.Exec(fmt.Sprintf("SELECT x, s FROM kv WHERE id = %d", id))
			t.record(span, noSpan, start, time.Since(start))
			if err != nil {
				return fmt.Errorf("ad-hoc read: %w", err)
			}
			return checkRead(res, id)
		})
	}
	if err := adhoc("plancache.adhoc_miss_read", direct.conn, 0); err != nil {
		return err
	}
	// Index scans, not statements: the router's own health probes and its
	// WAIT FOR CLOCK prefixes are statements too, but only a point read
	// probes the index.
	replicaBefore := w.replica.db.Metrics().IndexScans.Load()
	retriesBefore := w.routerM.RouterReadRetries.Load()
	if err := adhoc("cluster.routed_adhoc_read", routed.conn, reps); err != nil {
		return err
	}
	replicaReads := w.replica.db.Metrics().IndexScans.Load() - replicaBefore

	// Bind frames, timed in batches: one call is below the clock's grain.
	args := []types.Value{types.NewInt(123456)}
	var payload []byte
	const batch = 1000
	if err := tr.passes(ctx, 2, 20, func(t *tracer, i int) error {
		start := time.Now()
		for j := 0; j < batch; j++ {
			payload = wire.EncodeBind("rd", args)
		}
		t.record("wire.bind_encode_x1000", noSpan, start, time.Since(start))
		start = time.Now()
		for j := 0; j < batch; j++ {
			if _, _, err := wire.DecodeBind(payload); err != nil {
				return err
			}
		}
		t.record("wire.bind_decode_x1000", noSpan, start, time.Since(start))
		return nil
	}); err != nil {
		return err
	}

	// The 80/10/10 mix through the router, for the counters the primary
	// and the replica keep and for the read p50 the subtraction is held to.
	pm := w.primary.db.Metrics()
	before := snapshotCounters(pm)
	lagBefore := w.replica.db.Metrics().Hist().ReplApplyLag.Snapshot()
	mix, err := runWindow(ctx, w.sz.probeWindow, w.clients(), tr, w.spanNames())
	if err != nil {
		return err
	}
	if mix.failed > 0 {
		return fmt.Errorf("traced mix window: %d of %d operations failed: %v", mix.failed, mix.attempted, mix.firstErr)
	}
	after := snapshotCounters(pm)
	lag := histDelta(w.replica.db.Metrics().Hist().ReplApplyLag.Snapshot(), lagBefore)

	// Durable inserts on the cluster primary and on a standalone durable
	// server, both direct: the difference is the semi-sync wait.
	standalone, err := startDurableServer(sc)
	if err != nil {
		return err
	}
	if err := loadKV(standalone.db, w.kv); err != nil {
		return err
	}
	alone, err := newOLTPSession(sc, standalone.addr, w.kv.n, 0, 1, w.seed)
	if err != nil {
		return err
	}
	direct.nextID = fresh + 1<<20 // ids no mix session uses
	inserts := func(span string, s *oltpSession) error {
		return tr.passes(ctx, reps/40, reps/4, func(t *tracer, i int) error {
			o, err := s.insert()
			t.record(span, noSpan, o.start, o.lat)
			return err
		})
	}
	if err := inserts("cluster.primary_insert", direct); err != nil {
		return err
	}
	if err := inserts("server.durable_insert", alone); err != nil {
		return err
	}

	// Open loop at half the closed-loop read rate, timed from due time.
	routedP50 := tr.p50("cluster.routed_read")
	openLat, late, err := openLoopReads(ctx, sc, w, time.Duration(2*routedP50), tr)
	if err != nil {
		return err
	}

	us := func(ns float64) float64 { return ns / 1e3 }
	enginePt, directPt := tr.p50("engine.point_read"), tr.p50("server.direct_read")
	mixRead := median(mix.lat[classA])
	d := func(name string) float64 { return float64(after.n[name] - before.n[name]) }
	commits := d("wal_appends")
	lookups := d("plan_cache_hits") + d("plan_cache_misses")
	set := []namedValue{
		{"engine.point_read_us", us(enginePt)},
		{"server.hop_us", us(directPt - enginePt)},
		{"cluster.router_hop_us", us(routedP50 - directPt)},
		{"cluster.routed_read_us", us(routedP50)},
		{"oltp.mix_read_residual_us", us(mixRead - routedP50)},
		{"client.read_p99_us", us(quantile(mix.lat[classA], 0.99))},
		{"cluster.replica_read_share", float64(replicaReads) / float64(reps)},
		{"cluster.read_retries", float64(w.routerM.RouterReadRetries.Load() - retriesBefore)},
		{"wire.bind_encode_ns", tr.p50("wire.bind_encode_x1000") / batch},
		{"wire.bind_decode_ns", tr.p50("wire.bind_decode_x1000") / batch},
		{"plancache.hit_ratio", d("plan_cache_hits") / lookups},
		{"plancache.adhoc_miss_read_us", us(tr.p50("plancache.adhoc_miss_read"))},
		{"storage.index_rows_per_probe", d("index_rows_read") / d("index_scans")},
		{"engine.insert_us", us(tr.p50("engine.insert"))},
		{"engine.update_us", us(tr.p50("engine.update"))},
		{"wal.commit_wait_us", us(histDelta(after.commitWait, before.commitWait).Mean())},
		{"wal.fsync_us", us(histDelta(after.fsync, before.fsync).Mean())},
		{"wal.fsyncs_per_commit", d("wal_fsyncs") / commits},
		{"wal.bytes_per_commit", d("wal_bytes") / commits},
		{"repl.semisync_wait_us", us(tr.p50("cluster.primary_insert") - tr.p50("server.durable_insert"))},
		{"repl.apply_lag_p50", float64(lag.Quantile(0.5))},
		{"client.open_read_p99_us", us(quantile(openLat, 0.99))},
		{"client.generator_late_p99_us", us(quantile(late, 0.99))},
	}
	if err := m.setAll(set); err != nil {
		return err
	}

	fmt.Fprintf(out, "\nbudget oltp_cluster: routed read-only point read p50 = %.2f us (n=%d)\n", us(routedP50), reps)
	printBudget(out, "us", us(routedP50), []namedValue{
		{"engine.point_read_us", m.get("engine.point_read_us")},
		{"server.hop_us", m.get("server.hop_us")},
		{"cluster.router_hop_us", m.get("cluster.router_hop_us")},
	})
	fmt.Fprintf(out, "  residual: read p50 under the 80/10/10 mix = %.2f us, %+.2f us against the read-only p50 above (n=%d)\n",
		us(mixRead), m.get("oltp.mix_read_residual_us"), len(mix.lat[classA]))
	fmt.Fprintf(out, "  durable insert p50: cluster primary %.2f us - standalone %.2f us = semi-sync wait %+.2f us\n",
		us(tr.p50("cluster.primary_insert")), us(tr.p50("server.durable_insert")), m.get("repl.semisync_wait_us"))
	fmt.Fprintf(out, "  plan cache: %.0f hits of %.0f lookups; WAL: %.0f fsyncs for %.0f appends; replica served %d of %d routed ad-hoc reads\n",
		d("plan_cache_hits"), lookups, d("wal_fsyncs"), commits, replicaReads, reps)
	return nil
}

// counterSnapshot is the primary's cumulative counters, by their
// system.metrics names, and latency histograms at one instant; the layer
// metrics are deltas of two.
type counterSnapshot struct {
	n          map[string]int64
	commitWait telemetry.HistSnapshot
	fsync      telemetry.HistSnapshot
}

func snapshotCounters(m *telemetry.Metrics) counterSnapshot {
	s := counterSnapshot{
		n:          map[string]int64{},
		commitWait: m.Hist().StageCommitWait.Snapshot(),
		fsync:      m.Hist().WalFsync.Snapshot(),
	}
	for _, c := range m.Snapshot() {
		s.n[c.Name] = c.Value
	}
	return s
}

// histDelta is what a histogram recorded between two snapshots.
func histDelta(after, before telemetry.HistSnapshot) telemetry.HistSnapshot {
	for i := range after.Counts {
		after.Counts[i] -= before.Counts[i]
	}
	after.Count -= before.Count
	after.Sum -= before.Sum
	return after
}

// openLoopReads sends routed point reads on a fixed schedule, one every
// interval, for the probe window, over two connections. Each is timed from
// the moment it was due, so a stall also counts against the requests
// queued behind it; late is how far behind schedule the generator handed
// each request over.
func openLoopReads(ctx context.Context, c *cleanup, w *oltpCluster, interval time.Duration, tr *tracer) (lat, late []float64, err error) {
	const conns = 2
	type due struct {
		at time.Time
		id int64
	}
	// Buffered for a full second of schedule: the generator must never
	// block on a slow connection, or the loop would close.
	queue := make(chan due, int(time.Second/interval)+1)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		s, err := newOLTPSession(c, w.router, w.kv.n, i, conns, w.seed)
		if err != nil {
			return nil, nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				o, err := s.read(d.id)
				done := o.start.Add(o.lat)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				lat = append(lat, float64(done.Sub(d.at)))
				mu.Unlock()
				tr.record("client.open_read", noSpan, d.at, done.Sub(d.at))
			}
		}()
	}
	rng := rand.New(rand.NewSource(w.seed + 11))
	start := time.Now()
	n := int(w.sz.probeWindow / interval)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		at := start.Add(time.Duration(i) * interval)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(max(time.Since(at), 0)))
		select {
		case queue <- due{at: at, id: rng.Int63n(int64(w.kv.n))}:
		default:
			close(queue)
			wg.Wait()
			return nil, nil, fmt.Errorf("open loop: backlog exceeded one second of schedule at %v per request", interval)
		}
	}
	close(queue)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return lat, late, ctx.Err()
}
