package exec

import (
	"errors"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// TestPageRankBooksItsGraph: PageRank charges what it builds, not only the
// edges it loads. A budget that holds the 16 B an edge of src/dst arrays
// but not the CSR built from them fails naming pagerank; one that holds
// both admits the query and gets every byte back.
func TestPageRankBooksItsGraph(t *testing.T) {
	const edges = 100_000
	s, tbl := bigTable(t, edges, 5_000)
	scan := plan.NewScan(tbl, "", s.Snapshot())
	k := colRef("k", 0, types.Int64)
	pr := &plan.PageRank{Damping: 0.85, MaxIter: 2,
		Edges: &plan.Project{Child: scan, Exprs: []expr.Expr{k, k}, Names: []string{"src", "dst"}}}
	for _, workers := range []int{1, 8} {
		ctx := latestContext()
		ctx.Workers = workers
		ctx.SetMemoryLimit(16*edges + 1<<10)
		_, err := Run(pr, ctx)
		var re *ResourceError
		if !errors.As(err, &re) || re.Operator != "pagerank" {
			t.Errorf("workers=%d: a budget for the edges alone: want *ResourceError naming pagerank, got %v", workers, err)
		}

		ctx = latestContext()
		ctx.Workers = workers
		ctx.SetMemoryLimit(1 << 30)
		mat, err := Run(pr, ctx)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if used, peak := ctx.MemoryUsed()-matBytes(mat), ctx.PeakBytes(); used != 0 || peak < 16*edges+8*edges {
			t.Errorf("workers=%d: %d bytes still booked besides the result, peak %d", workers, used, peak)
		}
	}
}
