package exec

import "fmt"

// ResourceError reports a query that exceeded a configured resource budget
// (WithMemoryLimit). It is user-actionable: raise the limit, or rewrite the
// query to materialize less.
type ResourceError struct {
	// Operator names the operator that tripped the budget.
	Operator string
	// Limit is the configured budget in bytes.
	Limit int64
	// Requested is the total usage in bytes the query attempted to hold.
	Requested int64
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("query memory limit exceeded in %s: %d bytes needed, limit is %d",
		e.Operator, e.Requested, e.Limit)
}
