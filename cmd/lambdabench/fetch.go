package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"lambdadb/internal/server/client"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/types"
)

const sqlFetch = "SELECT id, grp, x, s FROM kv WHERE id >= $1 AND id < $2"

var fetchSpans = [numClasses]string{"fetch.small", "fetch.medium", "fetch.large", ""}

// resultFetch pulls result sets of three sizes through one non-durable
// server: the engine's row pivot, the text encoding, the single frame and
// the decoding dominate, and the executor does little.
type resultFetch struct {
	h    *harness
	sz   sizes
	seed int64

	kv   *kvData
	top  *cleanup
	srv  *member
	sess *fetchSession
}

func (w *resultFetch) spanNames() [numClasses]string { return fetchSpans }

func (w *resultFetch) setup(ctx context.Context) error {
	w.kv = genKV(w.sz.kvRows, w.seed)
	w.top = w.h.topology()
	var err error
	if w.srv, err = startServer(w.top); err != nil {
		return err
	}
	if err := loadKV(w.srv.db, w.kv); err != nil {
		return fmt.Errorf("load kv: %w", err)
	}
	conn, err := dial(w.top, w.srv.addr)
	if err != nil {
		return err
	}
	if err := conn.Prepare(ctx, "fetch", sqlFetch); err != nil {
		return err
	}
	w.sess = &fetchSession{conn: conn, kv: w.kv, sizes: w.sz.fetchRows, rng: rand.New(rand.NewSource(w.seed))}
	return nil
}

func (w *resultFetch) clients() []session { return []session{w.sess} }

// check: every fetch was held to its row count and checksum as it returned.
func (w *resultFetch) check(ctx context.Context) error { return nil }

func (w *resultFetch) close() { w.h.release(w.top) }

// fetchSession fetches the three sizes in turn, each from a seeded offset.
type fetchSession struct {
	conn  *client.Conn
	kv    *kvData
	sizes [3]int
	rng   *rand.Rand
	i     int
}

func (s *fetchSession) next(ctx context.Context) (op, error) {
	class := s.i % 3
	s.i++
	return s.fetch(class)
}

func (s *fetchSession) fetch(class int) (op, error) {
	size := s.sizes[class]
	lo := s.rng.Intn(s.kv.n - size + 1)
	start := time.Now()
	res, err := s.conn.ExecutePrepared(context.Background(), "fetch", types.NewInt(int64(lo)), types.NewInt(int64(lo+size)))
	o := op{class: class, start: start, lat: time.Since(start)}
	if err != nil {
		return o, fmt.Errorf("fetch [%d,%d): %w", lo, lo+size, err)
	}
	return o, s.kv.checkRange(res.Rows, lo, size)
}

// checkRange holds a fetched range to its row count and to checksums over
// id and x.
func (kv *kvData) checkRange(rows [][]types.Value, lo, size int) error {
	if len(rows) != size {
		return fmt.Errorf("fetch [%d,%d) returned %d rows", lo, lo+size, len(rows))
	}
	var sumID int64
	var sumX float64
	for _, r := range rows {
		sumID += r[0].AsInt()
		sumX += r[2].AsFloat()
	}
	wantID := int64(size) * int64(2*lo+size-1) / 2
	wantX := kv.prefixX[lo+size] - kv.prefixX[lo]
	if sumID != wantID || !closeRel(sumX, wantX) {
		return fmt.Errorf("fetch [%d,%d): checksum id %d x %v, want id %d x %v", lo, lo+size, sumID, sumX, wantID, wantX)
	}
	return nil
}

// mallocs counts heap allocations made by fn on this goroutine's watch;
// the servers are idle while it runs, so the count repeats.
func mallocs(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// layers splits the large fetch into the engine's select (and within it
// the row pivot, against a count(*) over the same predicate), the encoding
// and the decoding, each called directly; what the served fetch takes
// beyond their sum is the transfer.
func (w *resultFetch) layers(ctx context.Context, tr *tracer, m *metrics, out io.Writer) error {
	reps := w.sz.probeCycles
	size := w.sz.fetchRows[classC]
	lo := (w.kv.n - size) / 2
	args := []types.Value{types.NewInt(int64(lo)), types.NewInt(int64(lo + size))}

	es := w.srv.db.NewSession()
	defer es.Close()
	for name, stmt := range map[string]string{
		"sel": sqlFetch,
		"cnt": "SELECT count(*) FROM kv WHERE id >= $1 AND id < $2",
	} {
		if _, err := es.Exec("PREPARE " + name + " AS " + stmt); err != nil {
			return err
		}
	}
	var rs *wire.ResultSet
	var payload []byte
	var selectAllocs, encodeAllocs, decodeAllocs uint64
	if err := tr.passes(ctx, 1, reps, func(t *tracer, i int) error {
		parent := t.begin("fetch.decomposed", noSpan)
		if err := t.timed("engine.select", parent, func() error {
			res, err := es.ExecutePrepared(ctx, "sel", args)
			if err == nil {
				rs = &wire.ResultSet{Columns: res.Columns, Types: res.Types, Rows: res.Rows}
			}
			return err
		}); err != nil {
			return err
		}
		_ = t.timed("wire.encode", parent, func() error {
			payload = wire.EncodeResultSet(rs)
			return nil
		})
		if err := t.timed("wire.decode", parent, func() error {
			_, err := wire.DecodeResultSet(payload)
			return err
		}); err != nil {
			return err
		}
		t.end(parent)
		return t.timed("engine.count", noSpan, func() error {
			_, err := es.ExecutePrepared(ctx, "cnt", args)
			return err
		})
	}); err != nil {
		return err
	}
	// Allocation counts, one call each, outside the timed passes.
	var err error
	if selectAllocs, err = mallocs(func() error { _, err := es.ExecutePrepared(ctx, "sel", args); return err }); err != nil {
		return err
	}
	encodeAllocs, _ = mallocs(func() error { payload = wire.EncodeResultSet(rs); return nil })
	if decodeAllocs, err = mallocs(func() error { _, err := wire.DecodeResultSet(payload); return err }); err != nil {
		return err
	}

	// The same range through the server, then again with the heap sampled.
	served := func(span string) error {
		return tr.passes(ctx, 1, reps, func(t *tracer, i int) error {
			start := time.Now()
			res, err := w.sess.conn.ExecutePrepared(context.Background(), "fetch", args...)
			t.record(span, noSpan, start, time.Since(start))
			if err != nil {
				return err
			}
			return w.kv.checkRange(res.Rows, lo, size)
		})
	}
	if err := served("fetch.served"); err != nil {
		return err
	}
	runtime.GC()
	peak, stop := sampleHeapInuse(2 * time.Millisecond)
	err = served("fetch.served_sampled")
	stop()
	if err != nil {
		return err
	}

	oversizeOK, err := w.oversize()
	if err != nil {
		return err
	}

	ms := func(ns float64) float64 { return ns / 1e6 }
	sel, cnt := tr.p50("engine.select"), tr.p50("engine.count")
	enc, dec, fetched := tr.p50("wire.encode"), tr.p50("wire.decode"), tr.p50("fetch.served")
	rows := float64(size)
	set := []namedValue{
		{"engine.select_ms", ms(sel)},
		{"engine.count_ms", ms(cnt)},
		{"engine.pivot_ms", ms(sel - cnt)},
		{"wire.encode_ms", ms(enc)},
		{"wire.decode_ms", ms(dec)},
		{"wire.payload_mb", float64(len(payload)) / (1 << 20)},
		{"wire.bytes_per_row", float64(len(payload)) / rows},
		{"wire.encode_allocs_per_row", float64(encodeAllocs) / rows},
		{"wire.decode_allocs_per_row", float64(decodeAllocs) / rows},
		{"engine.select_allocs_per_row", float64(selectAllocs) / rows},
		{"fetch.server_ms", ms(fetched)},
		{"server.transfer_ms", ms(fetched - sel - enc - dec)},
		{"result.peak_heap_mb", float64(peak()) / (1 << 20)},
		{"wire.oversize_result_ok", oversizeOK},
	}
	if err := m.setAll(set); err != nil {
		return err
	}

	fmt.Fprintf(out, "\nbudget result_fetch: served fetch of %d rows, p50 = %.3f ms (n=%d, payload %.3f MiB)\n", size, ms(fetched), reps, m.get("wire.payload_mb"))
	printBudget(out, "ms", ms(fetched), []namedValue{
		{"engine.select_ms", ms(sel)},
		{"wire.encode_ms", ms(enc)},
		{"wire.decode_ms", ms(dec)},
	})
	fmt.Fprintf(out, "  the residual is server.transfer_ms: frame write, loopback, frame read, and whatever overlaps\n")
	fmt.Fprintf(out, "  within engine.select_ms: count(*) over the same predicate %.3f ms, so the row pivot is %.3f ms = %.1f %% of the select\n",
		ms(cnt), ms(sel-cnt), 100*(sel-cnt)/sel)
	fmt.Fprintf(out, "  decode / encode = %.3f (encode %.3f ms); allocations per row: select %.2f, encode %.4f, decode %.2f\n",
		dec/enc, ms(enc), m.get("engine.select_allocs_per_row"), m.get("wire.encode_allocs_per_row"), m.get("wire.decode_allocs_per_row"))
	return nil
}

// oversize asks, on a connection of its own, for the whole table with
// every column four times: at the full scale the payload exceeds
// wire.MaxFrame. It reports 1 when the rows arrive and 0 when the request
// fails, which is a recorded outcome and not a failed operation.
func (w *resultFetch) oversize() (float64, error) {
	sc := w.h.topology()
	defer w.h.release(sc)
	conn, err := dial(sc, w.srv.addr)
	if err != nil {
		return 0, err
	}
	cols := strings.Repeat("id, grp, x, s, ", 4)
	res, err := conn.Exec("SELECT " + strings.TrimSuffix(cols, ", ") + " FROM kv")
	if err != nil {
		return 0, nil
	}
	if len(res.Rows) != w.kv.n {
		return 0, fmt.Errorf("oversize result returned %d rows, want %d", len(res.Rows), w.kv.n)
	}
	return 1, nil
}

// sampleHeapInuse polls HeapInuse every interval until stop is called;
// peak then reports the largest value seen.
func sampleHeapInuse(every time.Duration) (peak func() uint64, stop func()) {
	var mu sync.Mutex
	var top uint64
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			mu.Lock()
			top = max(top, ms.HeapInuse)
			mu.Unlock()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 { mu.Lock(); defer mu.Unlock(); return top },
		func() { close(quit); <-done }
}
