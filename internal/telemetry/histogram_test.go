package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the power-of-two bucket layout: value
// v lands in the bucket whose range [2^(i-1), 2^i) contains it, with
// non-positive values in bucket 0.
func TestHistogramBucketBoundaries(t *testing.T) {
	for _, tc := range []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1 << 40, 41},
		{1<<62 + 1, 63},
	} {
		var h Histogram
		h.Record(tc.v)
		s := h.Snapshot()
		for i, c := range s.Counts {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("Record(%d): bucket %d count = %d, want %d", tc.v, i, c, want)
			}
		}
	}
}

// TestBucketUpper checks the inclusive upper bounds used by quantile
// estimation and the Prometheus le labels.
func TestBucketUpper(t *testing.T) {
	for i, want := range map[int]int64{
		-1: 0, 0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 63: 1<<63 - 1, 64: 1<<63 - 1,
	} {
		if got := BucketUpper(i); got != want {
			t.Errorf("BucketUpper(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramQuantileMean(t *testing.T) {
	var h Histogram
	var empty HistSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %d, want 0", q)
	}
	if m := empty.Mean(); m != 0 {
		t.Errorf("empty mean = %v, want 0", m)
	}

	// 90 values of 100 (bucket 7, upper 127) and 10 of 5000 (bucket 13,
	// upper 8191): p50 resolves to the low bucket, p99 to the high one.
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(5000)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Sum != 90*100+10*5000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if got := s.Quantile(0.50); got != 127 {
		t.Errorf("p50 = %d, want 127", got)
	}
	if got := s.Quantile(0.99); got != 8191 {
		t.Errorf("p99 = %d, want 8191", got)
	}
	if got := s.Quantile(1.0); got != 8191 {
		t.Errorf("p100 = %d, want 8191", got)
	}
	if got := s.Mean(); got != 590 {
		t.Errorf("mean = %v, want 590", got)
	}
	// Out-of-range q values clamp rather than panic.
	if got := s.Quantile(-1); got != 127 {
		t.Errorf("Quantile(-1) = %d, want 127 (clamped to lowest rank)", got)
	}
	if got := s.Quantile(2); got != 8191 {
		t.Errorf("Quantile(2) = %d, want 8191 (clamped to 1)", got)
	}
}

// TestHistogramConcurrentSnapshotConsistency records from many goroutines
// while snapshots are taken concurrently, asserting the documented
// invariant: Count always equals the sum of Counts, and cumulative bucket
// counts never decrease across successive snapshots of the same bucket.
func TestHistogramConcurrentSnapshotConsistency(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 5000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var lastCount int64
		for {
			s := h.Snapshot()
			var sum int64
			for _, c := range s.Counts {
				sum += c
			}
			if sum != s.Count {
				t.Errorf("snapshot Count %d != bucket sum %d", s.Count, sum)
				return
			}
			if s.Count < lastCount {
				t.Errorf("snapshot Count went backwards: %d then %d", lastCount, s.Count)
				return
			}
			lastCount = s.Count
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < perWriter; i++ {
				h.Record(seed*1000 + i)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if s := h.Snapshot(); s.Count != writers*perWriter {
		t.Errorf("final count = %d, want %d", s.Count, writers*perWriter)
	}
}

// TestHistogramsNilAndDisabled: every Record* helper must be a no-op — not
// a panic — on a nil or disabled set, so call sites never branch.
func TestHistogramsNilAndDisabled(t *testing.T) {
	var nilH *Histograms
	nilH.RecordStmt(KindSelect, 1)
	nilH.RecordStages(1, 2)
	nilH.RecordCommitWait(3)
	nilH.RecordWalFsync(4, 5)
	nilH.RecordReplApplyLag(6)

	d := NewDisabledHistograms()
	d.RecordStmt(KindDML, 1)
	d.RecordStages(1, 2)
	d.RecordCommitWait(3)
	d.RecordWalFsync(4, 5)
	d.RecordReplApplyLag(6)
	for _, def := range d.Defs() {
		if s := def.H.Snapshot(); s.Count != 0 {
			t.Errorf("disabled histogram %s recorded %d values", def.Row, s.Count)
		}
	}
}

// TestHistogramsRouting checks each Record* helper lands in the intended
// histogram and nowhere else.
func TestHistogramsRouting(t *testing.T) {
	h := &Histograms{}
	h.RecordStmt(KindSelect, 10)
	h.RecordStmt(KindDML, 10)
	h.RecordStmt(KindDDL, 10)
	h.RecordStmt("mystery", 10) // unknown kinds fold into other
	h.RecordStages(5, 7)
	h.RecordCommitWait(9)
	h.RecordWalFsync(11, 3)
	h.RecordReplApplyLag(2)
	want := map[string]int64{
		"stmt_latency_select_ns":    1,
		"stmt_latency_dml_ns":       1,
		"stmt_latency_ddl_ns":       1,
		"stmt_latency_other_ns":     1,
		"stmt_stage_parse_plan_ns":  1,
		"stmt_stage_exec_ns":        1,
		"stmt_stage_commit_wait_ns": 1,
		"wal_fsync_ns":              1,
		"wal_group_commit_records":  1,
		"repl_apply_lag_records":    1,
	}
	for _, d := range h.Defs() {
		if got := d.H.Snapshot().Count; got != want[d.Row] {
			t.Errorf("%s count = %d, want %d", d.Row, got, want[d.Row])
		}
	}
}

// TestHistogramDefs pins the export metadata: stable row/family naming,
// uniqueness, and which histograms are nanosecond-valued.
func TestHistogramDefs(t *testing.T) {
	h := &Histograms{}
	defs := h.Defs()
	if len(defs) != 10 {
		t.Fatalf("Defs() returned %d histograms, want 10", len(defs))
	}
	rows := map[string]bool{}
	for _, d := range defs {
		if rows[d.Row] {
			t.Errorf("duplicate row name %q", d.Row)
		}
		rows[d.Row] = true
		if d.H == nil {
			t.Errorf("%s has nil histogram", d.Row)
		}
		if strings.HasSuffix(d.Row, "_ns") != d.Seconds {
			t.Errorf("%s: Seconds=%v disagrees with the _ns suffix convention", d.Row, d.Seconds)
		}
		if (d.LabelKey == "") != (d.LabelVal == "") {
			t.Errorf("%s: LabelKey %q and LabelVal %q must be set together", d.Row, d.LabelKey, d.LabelVal)
		}
	}
}

// TestHistogramSummaries checks the system.metrics row rendering: four rows
// per histogram with quantiles consistent with the recorded data, and a nil
// set rendering nothing.
func TestHistogramSummaries(t *testing.T) {
	var nilH *Histograms
	if rows := nilH.HistogramSummaries(); rows != nil {
		t.Errorf("nil HistogramSummaries = %v, want nil", rows)
	}

	h := &Histograms{}
	for i := 0; i < 100; i++ {
		h.RecordStmt(KindSelect, 1000)
	}
	rows := h.HistogramSummaries()
	if want := len(h.Defs()) * 4; len(rows) != want {
		t.Fatalf("summary rows = %d, want %d", len(rows), want)
	}
	vals := map[string]int64{}
	for _, r := range rows {
		vals[r.Name] = r.Value
	}
	if vals["stmt_latency_select_ns_count"] != 100 {
		t.Errorf("select count = %d, want 100", vals["stmt_latency_select_ns_count"])
	}
	if p50 := vals["stmt_latency_select_ns_p50"]; p50 != 1023 {
		t.Errorf("select p50 = %d, want 1023 (bucket upper bound of 1000)", p50)
	}
	if vals["wal_fsync_ns_count"] != 0 {
		t.Errorf("untouched histogram count = %d, want 0", vals["wal_fsync_ns_count"])
	}
}

// BenchmarkHistogramRecord is the hot-path cost every statement pays:
// bucket index + two atomic adds (~10 ns; printed by make bench-obs).
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

// BenchmarkHistogramRecordParallel measures contention across goroutines
// sharing one histogram (the real shape: every session records into the
// same set).
func BenchmarkHistogramRecordParallel(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Record(i)
		}
	})
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	var h Histogram
	for i := int64(0); i < 10_000; i++ {
		h.Record(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Snapshot()
	}
}
