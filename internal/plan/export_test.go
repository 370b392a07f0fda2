package plan

import "lambdadb/internal/sql"

// BuildUnoptimized plans sel as BuildSelect does but applies no rewrite at
// all: the oracle the optimizer's rewrites are checked against.
func (b *Builder) BuildUnoptimized(sel *sql.Select) (Node, error) { return b.buildSelect(sel) }
