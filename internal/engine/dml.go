package engine

import (
	"context"
	"fmt"

	"lambdadb/internal/expr"
	"lambdadb/internal/sql"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

func (s *Session) execInsert(ctx context.Context, st *stmt, n *sql.Insert) (*Result, error) {
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
			cv, ok := types.Coerce(v, to)
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
				if err != nil {
					return nil, err
				}
				v, err := expr.EvalConst(re)
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
		mat, err := s.runPlan(ctx, st, tmpl, nil)
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

// compilePredicate resolves and compiles an optional WHERE clause against a
// table's schema. A nil clause accepts all rows.
func compilePredicate(where expr.Expr, schema types.Schema, table string) (expr.Evaluator, error) {
	if where == nil {
		return nil, nil
	}
	rc := expr.NewResolveCtx(schema, table)
	pred, err := expr.Resolve(where, rc)
	if err != nil {
		return nil, err
	}
	if pred.Type() != types.Bool {
		return nil, fmt.Errorf("WHERE must be boolean, got %s", pred.Type())
	}
	return expr.Compile(pred)
}

func (s *Session) execDelete(ctx context.Context, n *sql.Delete) (*Result, error) {
	tbl, err := s.db.store.Table(n.Table)
	if err != nil {
		return nil, err
	}
	pred, err := compilePredicate(n.Where, tbl.Schema(), n.Table)
	if err != nil {
		return nil, err
	}
	affected := 0
	err = s.scanMatching(ctx, tbl, pred, func(tx *storage.Txn, b *types.Batch, rowIDs []int, match []bool) error {
		for i, m := range match {
			if !m {
				continue
			}
			if err := tx.Delete(tbl, rowIDs[i]); err != nil {
				return err
			}
			affected++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

// scanMatching is the row discovery UPDATE and DELETE share: inside the
// session's write transaction it scans tbl at the statement snapshot and
// hands fn each batch with its physical row IDs (valid during the call) and
// the WHERE match vector. It is governed like runPlan — statement timeout
// applied, ctx checked before each cursor batch — so a timed-out or
// cancelled DML scan stops, the autocommit transaction rolls back, and an
// explicit one aborts (abortOnError).
func (s *Session) scanMatching(ctx context.Context, tbl *storage.Table, pred expr.Evaluator,
	fn func(tx *storage.Txn, b *types.Batch, rowIDs []int, match []bool) error) error {
	ctx, cancel := s.withStmtTimeout(ctx)
	defer cancel()
	return s.write(func(tx *storage.Txn) error {
		c := tbl.Cursor(s.snapshot(), 0, -1)
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			b, rowIDs := c.Next()
			if b == nil {
				return nil
			}
			match, err := matchRows(b, pred)
			if err != nil {
				return err
			}
			if err := fn(tx, b, rowIDs, match); err != nil {
				return err
			}
		}
	})
}

// matchRows evaluates an optional predicate over a batch.
func matchRows(b *types.Batch, pred expr.Evaluator) ([]bool, error) {
	n := b.Len()
	match := make([]bool, n)
	if pred == nil {
		for i := range match {
			match[i] = true
		}
		return match, nil
	}
	c, err := pred(b)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		match[i] = !c.IsNull(i) && c.Bools[i]
	}
	return match, nil
}

func (s *Session) execUpdate(ctx context.Context, n *sql.Update) (*Result, error) {
	tbl, err := s.db.store.Table(n.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	pred, err := compilePredicate(n.Where, schema, n.Table)
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
		if err != nil {
			return nil, err
		}
		if e.Type() != schema[ci].Type {
			if !(e.Type().IsNumeric() && schema[ci].Type.IsNumeric()) {
				return nil, fmt.Errorf("cannot assign %s to column %q (%s)",
					e.Type(), a.Column, schema[ci].Type)
			}
			e = &expr.Cast{E: e, To: schema[ci].Type}
		}
		ev, err := expr.Compile(e)
		if err != nil {
			return nil, err
		}
		setCols[i], setEvals[i] = ci, ev
	}

	affected := 0
	err = s.scanMatching(ctx, tbl, pred, func(tx *storage.Txn, b *types.Batch, rowIDs []int, match []bool) error {
		// Compute replacement values over the whole batch once.
		newCols := make([]*types.Column, len(setEvals))
		for k, ev := range setEvals {
			c, err := ev(b)
			if err != nil {
				return err
			}
			newCols[k] = c
		}
		inserted := types.NewBatch(schema)
		for i, m := range match {
			if !m {
				continue
			}
			if err := tx.Delete(tbl, rowIDs[i]); err != nil {
				return err
			}
			row := b.Row(i)
			for k, ci := range setCols {
				row[ci] = newCols[k].Value(i)
			}
			inserted.AppendRow(row)
			affected++
		}
		if inserted.Len() > 0 {
			return tx.Insert(tbl, inserted)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}
