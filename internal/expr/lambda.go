package expr

import (
	"fmt"

	"lambdadb/internal/types"
)

// BindLambda binds a λ to the tuples its parameters range over, one schema
// per parameter, positionally. Every column the body reads — p.f, or a bare
// f that names exactly one parameter field — is read as CAST(p.f AS DOUBLE),
// and the body resolves with the ordinary Resolve over the parameters'
// schemas laid end to end, each field qualified by its parameter's name. So
// a λ's fields are DOUBLE, and a bound column's index counts across the
// parameters in order. The body must be numeric; it comes back cast to
// DOUBLE, ready for Compile. Every error names the λ.
func BindLambda(l *Lambda, schemas []types.Schema) (*Lambda, error) {
	if len(schemas) != len(l.Params) {
		return nil, fmt.Errorf("lambda %s: bound to %d inputs, declares %d parameters",
			l, len(schemas), len(l.Params))
	}
	rc := &ResolveCtx{}
	for i, p := range l.Params {
		for _, c := range schemas[i] {
			rc.Schema = append(rc.Schema, c)
			rc.Quals = append(rc.Quals, p)
		}
	}
	body, err := Resolve(Rewrite(l.Body, func(e Expr) Expr {
		if c, ok := e.(*ColRef); ok {
			return &Cast{E: c, To: types.Float64}
		}
		return e
	}), rc)
	if err != nil {
		return nil, fmt.Errorf("lambda %s: %w", l, err)
	}
	var bindErr error
	Walk(body, func(e Expr) bool {
		if c, ok := e.(*ColRef); ok && !c.Typ.IsNumeric() && bindErr == nil {
			bindErr = fmt.Errorf("lambda %s: field %s is %s, need a numeric type", l, c, c.Typ)
		}
		return bindErr == nil
	})
	if bindErr != nil {
		return nil, bindErr
	}
	if body, err = As(body, types.Float64, "result"); err != nil {
		return nil, fmt.Errorf("lambda %s: %w", l, err)
	}
	return &Lambda{Params: l.Params, Body: body}, nil
}
