package main

import (
	"fmt"
	"io"
)

// namedValue is a metric's value on its way into the result, or one
// layer's share of a traced end-to-end median in a budget.
type namedValue struct {
	name  string
	value float64
}

// printBudget prints the lines with their share of total (the base of
// every percentage), their sum, and what the sum leaves of total, signed:
// a residual is shown, never folded into a layer.
func printBudget(w io.Writer, unit string, total float64, lines []namedValue) {
	sum := 0.0
	for _, l := range lines {
		sum += l.value
		fmt.Fprintf(w, "  %-40s %12.3f %-3s %6.1f %% of %.3f\n", l.name, l.value, unit, 100*l.value/total, total)
	}
	fmt.Fprintf(w, "  %-40s %12.3f %-3s\n", "sum", sum, unit)
	fmt.Fprintf(w, "  %-40s %+12.3f %-3s %6.1f %% of %.3f\n", "residual (total - sum)", total-sum, unit, 100*(total-sum)/total, total)
}
