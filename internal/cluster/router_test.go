package cluster

import "testing"

// TestRouteScript pins the routing decision: statement text and the
// session's transaction state in, {read|write, transaction state after}
// out.
func TestRouteScript(t *testing.T) {
	cases := []struct {
		text      string
		inTxn     bool
		wantRead  bool
		wantInTxn bool
	}{
		{text: "SELECT 1", wantRead: true},
		{text: "WITH c AS (SELECT 1 AS x) SELECT x FROM c", wantRead: true},
		{text: "/* c */ SELECT 1", wantRead: true},
		{text: "-- c\nSELECT 1; SELECT 2", wantRead: true},
		{text: "EXPLAIN SELECT 1", wantRead: true},
		{text: "EXPLAIN ANALYZE SELECT 1", wantRead: true},
		{text: "EXPLAIN INSERT INTO t VALUES (1)", wantRead: true},
		{text: "EXPLAIN DELETE FROM t", wantRead: true},
		{text: "WAIT FOR CLOCK 3; SELECT 1", wantRead: true},

		{text: "EXPLAIN ANALYZE INSERT INTO t VALUES (1)"},
		{text: "EXPLAIN ANALYZE UPDATE t SET x = 1"},
		{text: "EXPLAIN ANALYZE DELETE FROM t"},
		{text: "INSERT INTO t VALUES (1)"},
		{text: "SELECT 1; UPDATE t SET x = 1"},
		{text: "CREATE TABLE t (id INT)"},
		{text: "CHECKPOINT"},
		{text: "ANALYZE t"},
		{text: "PREPARE q AS SELECT 1"},
		{text: "EXECUTE q"},

		{text: "BEGIN", wantInTxn: true},
		{text: "BEGIN; SELECT 1", wantInTxn: true},
		{text: "BEGIN; INSERT INTO t VALUES (1); COMMIT"},
		{text: "SELECT 1", inTxn: true, wantInTxn: true},
		{text: "COMMIT", inTxn: true},
		{text: "ROLLBACK", inTxn: true},
		{text: "ROLLBACK; BEGIN", inTxn: true, wantInTxn: true},

		// Unparseable scripts go to the primary verbatim (the server owns
		// the error text) and never move the transaction state.
		{text: "SELEC 1"},
		{text: "BEGIN; SELEC 1"},
		{text: "SELECT 'open", inTxn: true, wantInTxn: true},
		{text: ""},
	}
	for _, c := range cases {
		read, inTxn := routeScript(c.text, c.inTxn)
		if read != c.wantRead || inTxn != c.wantInTxn {
			t.Errorf("routeScript(%q, inTxn=%v) = read %v, inTxn %v; want read %v, inTxn %v",
				c.text, c.inTxn, read, inTxn, c.wantRead, c.wantInTxn)
		}
	}
}
