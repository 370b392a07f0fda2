package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestExplainAnalyzeBytesCountsWhatAnOperatorWrote: an operator's bytes= in
// EXPLAIN ANALYZE counts the columns it wrote, not the ones it passed on. A
// Filter that lends its survivors to an aggregate as a selection (scan_agg's
// op_a) and a Project of bare columns write nothing: 0B. A Filter that
// gathers its survivors writes rows × 4 columns × 8 B, and a Project that
// computes one DOUBLE writes rows × 8 B.
func TestExplainAnalyzeBytesCountsWhatAnOperatorWrote(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE pts (d0 DOUBLE, d1 DOUBLE, d2 DOUBLE, d3 DOUBLE)`)
	var rows []string
	for i := range 20 {
		rows = append(rows, fmt.Sprintf("(%d.0 / 20, %d.0, 1.5, 2.5)", i, i))
	}
	db.MustExec(`INSERT INTO pts VALUES ` + strings.Join(rows, ", "))
	for _, tc := range []struct {
		stmt, node  string
		rows, width int // bytes= is rows × width
	}{
		{`SELECT count(*), sum(d1), avg(d2) FROM pts WHERE d0 < 0.5`, "Filter", 10, 0},
		{`SELECT d2, d0 FROM pts`, "Project d2, d0", 20, 0},
		{`SELECT d3 FROM pts WHERE d0 < 0.5`, "Filter", 10, 4 * 8},
		{`SELECT d0 * 2 FROM pts`, "Project (d0 * 2)", 20, 8},
	} {
		line := ""
		for _, l := range explainAnalyzeLines(t, db, tc.stmt) {
			if strings.HasPrefix(strings.TrimSpace(l), tc.node) {
				line = l
			}
		}
		stats := strings.Index(line, "(rows=")
		if stats < 0 {
			t.Fatalf("%s: no %s line with stats", tc.stmt, tc.node)
		}
		var n int
		if _, err := fmt.Sscanf(line[stats:], "(rows=%d", &n); err != nil || n != tc.rows {
			t.Fatalf("%s: %q: rows=%d (%v), want %d", tc.stmt, line, n, err, tc.rows)
		}
		bytes := line[strings.Index(line, "bytes=")+len("bytes="):]
		bytes = bytes[:strings.IndexAny(bytes, " )")]
		if want := fmt.Sprintf("%dB", tc.rows*tc.width); bytes != want {
			t.Errorf("%s: %s wrote bytes=%s, want %s:\n%s", tc.stmt, tc.node, bytes, want, line)
		}
	}
}
