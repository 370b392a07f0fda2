package main

import (
	"context"
	"io"
	"sync"
	"time"
)

// The op classes of a window. a, b and c are the three whose medians are
// end-to-end metrics; extra holds a fourth statement that counts towards
// ops_per_s only (scan_agg's top-k).
const (
	classA = iota
	classB
	classC
	classExtra
	numClasses
)

// op is one finished client operation: the request was sent, the reply
// waited for and, outside lat, checked.
type op struct {
	class int
	start time.Time
	lat   time.Duration
}

// session is one closed-loop client: next sends its next request only
// after the previous reply arrived.
type session interface {
	next(ctx context.Context) (op, error)
}

// windowStats is what one measured window produced.
type windowStats struct {
	elapsed   time.Duration
	lat       [numClasses][]float64 // nanoseconds
	attempted int
	failed    int
	firstErr  error
}

func (w *windowStats) ops() int { return w.attempted - w.failed }

func (w *windowStats) opsPerSec() float64 { return float64(w.ops()) / w.elapsed.Seconds() }

// quantileMs is the q-quantile of one class's latency in milliseconds.
func (w *windowStats) quantileMs(class int, q float64) float64 {
	return quantile(w.lat[class], q) / 1e6
}

func (w *windowStats) merge(o *windowStats) {
	for c := range w.lat {
		w.lat[c] = append(w.lat[c], o.lat[c]...)
	}
	w.elapsed += o.elapsed
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// maxConsecutiveFailures stops a client whose connection is gone: each
// further request would fail at once and only inflate the counts.
const maxConsecutiveFailures = 10

// runWindow drives every client in its own goroutine for d (an operation
// in flight at the end completes and counts), and joins them all before
// it returns. With a tracer each operation becomes a root span named
// spanNames[class].
func runWindow(ctx context.Context, d time.Duration, clients []session, tr *tracer, spanNames [numClasses]string) (*windowStats, error) {
	per := make([]windowStats, len(clients))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c session, st *windowStats) {
			defer wg.Done()
			streak := 0
			for time.Now().Before(end) && ctx.Err() == nil && streak < maxConsecutiveFailures {
				o, err := c.next(ctx)
				st.attempted++
				if err != nil {
					st.failed++
					streak++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				streak = 0
				st.lat[o.class] = append(st.lat[o.class], float64(o.lat))
				tr.record(spanNames[o.class], noSpan, o.start, o.lat)
			}
		}(c, &per[i])
	}
	wg.Wait()
	total := &windowStats{elapsed: time.Since(start)}
	for i := range per {
		total.merge(&per[i])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return total, nil
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup generates the inputs from the seed, builds the topology and
	// loads it. Everything it starts is registered with the harness.
	setup(ctx context.Context) error
	// clients returns the closed-loop sessions of the measured window.
	clients() []session
	// spanNames names the root span of each op class.
	spanNames() [numClasses]string
	// check runs the after-window result checks.
	check(ctx context.Context) error
	// layers measures this workload's layers, each call inside a span, and
	// prints its budget.
	layers(ctx context.Context, tr *tracer, m *metrics, out io.Writer) error
	// close tears the topology down.
	close()
}
