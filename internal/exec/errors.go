package exec

import (
	"fmt"
	"runtime/debug"
)

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

// InternalError wraps an operator panic recovered at an executor boundary:
// the query fails, the process survives. The stack is captured at the
// panic site for diagnosis.
type InternalError struct {
	// Op names the executor boundary that recovered the panic.
	Op string
	// Panic is the recovered value.
	Panic any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in %s operator: %v", e.Op, e.Panic)
}

// containPanic converts a panic in the calling function into an
// *InternalError assigned to *errp. Panics that are already InternalError
// re-wraps (a contained panic crossing a second boundary) pass through
// unchanged. Use as: defer containPanic("sort", &err).
func containPanic(op string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if ie, ok := r.(*InternalError); ok {
		*errp = ie
		return
	}
	*errp = &InternalError{Op: op, Panic: r, Stack: debug.Stack()}
}
