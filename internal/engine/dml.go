package engine

import (
	"context"
	"fmt"

	"lambdadb/internal/expr"
	"lambdadb/internal/sql"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// execInsert runs INSERT, its $N bound from args: VALUES binds them where
// it evaluates each value, INSERT … SELECT where its plan runs.
func (s *Session) execInsert(ctx context.Context, st *stmt, n *sql.Insert, args []types.Value) (*Result, error) {
	tbl, err := s.db.store.Table(n.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()

	// Map the insert column list to table positions.
	colIdx := make([]int, 0, len(schema))
	if len(n.Columns) == 0 {
		for i := range schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range n.Columns {
			i := schema.IndexOf(name)
			if i < 0 {
				return nil, fmt.Errorf("table %q has no column %q", n.Table, name)
			}
			colIdx = append(colIdx, i)
		}
	}

	batch := types.NewBatch(schema)
	appendRow := func(vals []types.Value) error {
		if len(vals) != len(colIdx) {
			return fmt.Errorf("INSERT expects %d values, got %d", len(colIdx), len(vals))
		}
		row := make([]types.Value, len(schema))
		for i := range row {
			row[i] = types.NewNull(schema[i].Type)
		}
		for k, v := range vals {
			to := schema[colIdx[k]].Type
			cv, ok, err := types.Coerce(v, to)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("cannot store %s value in %s column", v.T, to)
			}
			row[colIdx[k]] = cv
		}
		batch.AppendRow(row)
		return nil
	}

	switch {
	case len(n.Rows) > 0:
		emptyCtx := expr.NewResolveCtx(nil, "")
		for _, exprRow := range n.Rows {
			vals := make([]types.Value, len(exprRow))
			for i, e := range exprRow {
				re, err := expr.Resolve(e, emptyCtx)
				if err == nil && i < len(colIdx) {
					re, err = assigned(re, schema[colIdx[i]])
				}
				if err != nil {
					return nil, err
				}
				v, err := expr.EvalConst(re, args)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			if err := appendRow(vals); err != nil {
				return nil, err
			}
		}
	case n.Query != nil:
		tmpl, err := s.buildSelect(st, n.Query)
		if err != nil {
			return nil, err
		}
		// runPlan applies the session timeout, memory limit, and telemetry,
		// so an INSERT ... SELECT is governed like any SELECT.
		mat, err := s.runPlan(ctx, st, tmpl, args)
		if err != nil {
			return nil, err
		}
		for _, src := range mat.Batches {
			cnt := src.Len()
			for i := 0; i < cnt; i++ {
				if err := appendRow(src.Row(i)); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("INSERT needs VALUES or a SELECT")
	}

	affected := batch.Len()
	err = s.write(func(tx *storage.Txn) error { return tx.Insert(tbl, batch) })
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

// assigned returns e, a value that INSERT or SET stores in column col, as
// col's type: a DOUBLE truncates to a BIGINT column, as types.Coerce stores
// one, and the rest is expr.As.
func assigned(e expr.Expr, col types.ColumnInfo) (expr.Expr, error) {
	if e.Type() == types.Float64 && col.Type == types.Int64 {
		return &expr.Cast{E: e, To: col.Type}, nil
	}
	return expr.As(e, col.Type, fmt.Sprintf("value of column %q", col.Name))
}

// compilePredicate resolves an optional WHERE clause against a table's
// schema and compiles it, its $N bound from args, into the Selector a Filter
// runs. A nil clause gives a nil Selector, which selects every row.
func compilePredicate(where expr.Expr, schema types.Schema, table string, args []types.Value) (expr.Selector, error) {
	if where == nil {
		return nil, nil
	}
	rc := expr.NewResolveCtx(schema, table)
	pred, err := expr.Resolve(where, rc)
	if err == nil {
		pred, err = expr.As(pred, types.Bool, "condition")
	}
	if err != nil {
		return nil, fmt.Errorf("WHERE: %w", err)
	}
	return expr.CompileSelect(pred, args, nil)
}

func (s *Session) execDelete(ctx context.Context, n *sql.Delete, args []types.Value) (*Result, error) {
	tbl, err := s.db.store.Table(n.Table)
	if err != nil {
		return nil, err
	}
	sel, err := compilePredicate(n.Where, tbl.Schema(), n.Table, args)
	if err != nil {
		return nil, err
	}
	affected := 0
	err = s.scanMatching(ctx, tbl, sel, func(tx *storage.Txn, _ *types.Batch, rows, rowIDs []int) error {
		for _, i := range rows {
			if err := tx.Delete(tbl, rowIDs[i]); err != nil {
				return err
			}
		}
		affected += len(rows)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

// scanMatching is the row discovery UPDATE and DELETE share: inside the
// session's write transaction it scans tbl at the statement snapshot,
// selects each batch's rows with sel (nil: every row), and hands fn each
// batch that has selected rows, with their positions and the batch's
// physical row IDs, all valid during the call. It is governed like runPlan —
// statement timeout applied, ctx checked before each cursor batch — so a
// timed-out or cancelled DML scan stops, the autocommit transaction rolls
// back, and an explicit one aborts (AbortOnError).
func (s *Session) scanMatching(ctx context.Context, tbl *storage.Table, sel expr.Selector,
	fn func(tx *storage.Txn, b *types.Batch, rows, rowIDs []int) error) error {
	ctx, cancel := s.withStmtTimeout(ctx)
	defer cancel()
	var rows []int
	return s.write(func(tx *storage.Txn) error {
		c := tbl.Cursor(s.snapshot(), 0, -1)
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			b := c.Next()
			if b == nil {
				return nil
			}
			n := b.Len()
			if cap(rows) < n {
				rows = make([]int, n)
			}
			rows = rows[:n]
			if sel == nil {
				for i := range rows {
					rows[i] = i
				}
			} else {
				var err error
				if rows, err = sel(b, nil, rows); err != nil {
					return err
				}
			}
			if len(rows) == 0 {
				continue
			}
			if err := fn(tx, b, rows, c.RowIDs()); err != nil {
				return err
			}
		}
	})
}

func (s *Session) execUpdate(ctx context.Context, n *sql.Update, args []types.Value) (*Result, error) {
	tbl, err := s.db.store.Table(n.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	sel, err := compilePredicate(n.Where, schema, n.Table, args)
	if err != nil {
		return nil, err
	}

	// Compile SET expressions against the table schema.
	rc := expr.NewResolveCtx(schema, n.Table)
	setCols := make([]int, len(n.Set))
	setEvals := make([]expr.Evaluator, len(n.Set))
	for i, a := range n.Set {
		ci := schema.IndexOf(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("table %q has no column %q", n.Table, a.Column)
		}
		e, err := expr.Resolve(a.Value, rc)
		if err == nil {
			e, err = assigned(e, schema[ci])
		}
		if err != nil {
			return nil, err
		}
		ev, err := expr.Compile(e, args, nil)
		if err != nil {
			return nil, err
		}
		setCols[i], setEvals[i] = ci, ev
	}

	// SET runs over the selected rows only, every expression reading the
	// old row, so a row the WHERE rejected cannot fail the statement.
	affected := 0
	newCols := make([]*types.Column, len(setEvals))
	err = s.scanMatching(ctx, tbl, sel, func(tx *storage.Txn, b *types.Batch, rows, rowIDs []int) error {
		g := b.Gather(rows)
		for k, ev := range setEvals {
			c, err := ev(g)
			if err != nil {
				return err
			}
			newCols[k] = c
		}
		for k, ci := range setCols {
			g.Cols[ci] = newCols[k]
		}
		for _, i := range rows {
			if err := tx.Delete(tbl, rowIDs[i]); err != nil {
				return err
			}
		}
		affected += len(rows)
		return tx.Insert(tbl, types.Retain(g))
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}
