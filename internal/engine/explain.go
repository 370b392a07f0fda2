package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lambdadb/internal/exec"
	"lambdadb/internal/plan"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

// execExplain handles EXPLAIN [ANALYZE] <stmt>. Plain EXPLAIN builds the
// plan and returns it as text without executing; EXPLAIN ANALYZE executes
// the statement with telemetry armed and returns the physical tree
// annotated with per-operator actuals plus an execution footer.
func (s *Session) execExplain(ctx context.Context, st *stmt, n *sql.Explain) (*Result, error) {
	var lines []string
	if n.Analyze {
		analyzed, err := s.explainAnalyze(ctx, st, n.Stmt)
		if err != nil {
			return nil, err
		}
		lines = analyzed
	} else {
		plain, err := s.explainLines(n.Stmt)
		if err != nil {
			return nil, err
		}
		lines = plain
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range lines {
		res.Rows = append(res.Rows, []types.Value{types.NewString(line)})
	}
	return res, nil
}

// explainLines renders the static plan of a statement, one line per row.
func (s *Session) explainLines(st sql.Statement) ([]string, error) {
	switch n := st.(type) {
	case *sql.Select:
		node, err := s.newBuilder().BuildSelect(n)
		if err != nil {
			return nil, err
		}
		return splitLines(plan.ExplainTree(node)), nil
	case *sql.Insert:
		lines := []string{fmt.Sprintf("Insert into %s", n.Table)}
		if n.Query != nil {
			node, err := s.newBuilder().BuildSelect(n.Query)
			if err != nil {
				return nil, err
			}
			lines = append(lines, indentLines(splitLines(plan.ExplainTree(node)))...)
		} else {
			lines = append(lines, fmt.Sprintf("  Values (%d rows)", len(n.Rows)))
		}
		return lines, nil
	case *sql.Update:
		return dmlScanLines(fmt.Sprintf("Update %s", n.Table), n.Table, n.Where), nil
	case *sql.Delete:
		return dmlScanLines(fmt.Sprintf("Delete from %s", n.Table), n.Table, n.Where), nil
	}
	return nil, fmt.Errorf("EXPLAIN supports SELECT, INSERT, UPDATE, and DELETE statements")
}

// dmlScanLines renders the table-scan shape shared by UPDATE and DELETE.
func dmlScanLines(head, table string, where any) []string {
	lines := []string{head}
	if where != nil {
		lines = append(lines,
			fmt.Sprintf("  Filter %s", where),
			fmt.Sprintf("    Scan %s", table))
	} else {
		lines = append(lines, fmt.Sprintf("  Scan %s", table))
	}
	return lines
}

// explainAnalyze executes the statement with st collecting and renders the
// operator tree with actuals plus a footer of whole-statement measurements.
func (s *Session) explainAnalyze(ctx context.Context, st *stmt, ast sql.Statement) ([]string, error) {
	st.collect = true
	start := time.Now()
	res, err := s.execStatement(ctx, st, ast)
	dur := time.Since(start)
	if err != nil {
		return nil, err
	}

	var lines []string
	if st.stats != nil {
		body := splitLines(exec.FormatStatsTree(st.stats))
		if ins, ok := ast.(*sql.Insert); ok {
			// The stats tree covers the SELECT source; head it with the sink.
			lines = append(lines, fmt.Sprintf("Insert into %s", ins.Table))
			lines = append(lines, indentLines(body)...)
		} else {
			lines = body
		}
	} else {
		// No plan-driven execution (VALUES insert, UPDATE, DELETE): show
		// the static shape.
		lines, err = s.explainLines(ast)
		if err != nil {
			return nil, err
		}
	}
	rows := int64(len(res.Rows)) + int64(res.Affected)
	lines = append(lines,
		"",
		fmt.Sprintf("Execution time: %s", dur.Round(time.Microsecond)),
		fmt.Sprintf("Rows: %d", rows),
		fmt.Sprintf("Peak memory: %s", exec.FormatBytes(st.peak)),
		fmt.Sprintf("Workers: %d", s.db.workers))
	return lines, nil
}

// splitLines breaks rendered multi-line text into rows, dropping the
// trailing newline.
func splitLines(text string) []string {
	return strings.Split(strings.TrimRight(text, "\n"), "\n")
}

// indentLines shifts every line right by two spaces (nesting under a
// synthetic DML head line).
func indentLines(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = "  " + l
	}
	return out
}
