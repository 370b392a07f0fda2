// Package types provides the typed value and column-vector layer shared by
// the storage engine, expression engine, and physical operators.
//
// The engine is columnar: data flows between operators in Batches of typed
// Columns. Scalar Values exist for constants, parameters, and row-oriented
// result consumption at the client boundary.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies a SQL value type.
type Type uint8

// Supported SQL types.
const (
	Unknown Type = iota
	Int64        // INTEGER, BIGINT
	Float64      // FLOAT, DOUBLE
	String       // VARCHAR, TEXT
	Bool         // BOOLEAN
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	default:
		return "UNKNOWN"
	}
}

// IsNumeric reports whether t is an arithmetic type.
func (t Type) IsNumeric() bool { return t == Int64 || t == Float64 }

// Value is a scalar SQL value. The active field is determined by T; a Null
// value carries its type but no payload.
type Value struct {
	T    Type
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// Convenience constructors.

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{T: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{T: Float64, F: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{T: String, S: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value { return Value{T: Bool, B: v} }

// NewNull returns a typed NULL.
func NewNull(t Type) Value { return Value{T: t, Null: true} }

// AsFloat converts a numeric value to float64. Strings and bools are not
// converted; the caller must type-check first.
func (v Value) AsFloat() float64 {
	if v.T == Int64 {
		return float64(v.I)
	}
	return v.F
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	if v.T == Float64 {
		return int64(v.F)
	}
	return v.I
}

// Coerce converts v to type to, as storing a value in a column or binding
// it to a placeholder does: NULL becomes a NULL of type to, numerics widen
// (or truncate) to the other numeric type, and a value of type to — or any
// value when to is Unknown — is kept. ok is false for anything else; the
// caller words the error.
func Coerce(v Value, to Type) (_ Value, ok bool) {
	switch {
	case v.Null:
		return NewNull(to), true
	case v.T == to || to == Unknown:
		return v, true
	case v.T.IsNumeric() && to == Float64:
		return NewFloat(v.AsFloat()), true
	case v.T.IsNumeric() && to == Int64:
		return NewInt(v.AsInt()), true
	}
	return Value{}, false
}

// String renders the value as it would appear in query output.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.T {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	case Bool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal reports SQL equality between two values of the same type.
// NULL is not equal to anything, including NULL (SQL three-valued logic is
// handled by the expression engine; Equal is the raw comparison).
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return false
	}
	if v.T != o.T {
		// Cross numeric comparison.
		if v.T.IsNumeric() && o.T.IsNumeric() {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.T {
	case Int64:
		return v.I == o.I
	case Float64:
		return v.F == o.F
	case String:
		return v.S == o.S
	case Bool:
		return v.B == o.B
	}
	return false
}

// Compare returns -1, 0, or +1 ordering v relative to o. NULLs sort first.
// Cross numeric comparisons are widened to float64.
func (v Value) Compare(o Value) int {
	if v.Null && o.Null {
		return 0
	}
	if v.Null {
		return -1
	}
	if o.Null {
		return 1
	}
	if v.T != o.T && v.T.IsNumeric() && o.T.IsNumeric() {
		return cmpFloat(v.AsFloat(), o.AsFloat())
	}
	switch v.T {
	case Int64:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case Float64:
		return cmpFloat(v.F, o.F)
	case String:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	case Bool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
		return 0
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Hash returns a 64-bit hash of the value for hash joins and aggregation.
// Numerically equal int64 and float64 values hash identically so that
// cross-type joins group correctly.
func (v Value) Hash() uint64 {
	if v.Null {
		return nullHash
	}
	switch v.T {
	case Int64:
		// Hash integral values through the float path when they are exactly
		// representable, so 1 and 1.0 collide as SQL equality requires.
		return hashFloat(float64(v.I))
	case Float64:
		return hashFloat(v.F)
	case String:
		return HashString(v.S)
	case Bool:
		return hashBool(v.B)
	}
	return 0
}

// nullHash is the hash of NULL of any type.
const nullHash = 0x9e3779b97f4a7c15

// HashColumn mixes the hash of every row of c into acc (one accumulated row
// hash per row, HashCombine order): Value.Hash a column at a time, with the
// type switch outside the loop.
func HashColumn(c *Column, acc []uint64) {
	mix := func(i int, h uint64) {
		if c.Nulls != nil && c.Nulls[i] {
			h = nullHash
		}
		acc[i] = HashCombine(acc[i], h)
	}
	switch c.T {
	case Int64:
		for i, v := range c.Ints {
			mix(i, hashFloat(float64(v)))
		}
	case Float64:
		for i, v := range c.Floats {
			mix(i, hashFloat(v))
		}
	case String:
		for i, v := range c.Strs {
			mix(i, HashString(v))
		}
	case Bool:
		for i, v := range c.Bools {
			mix(i, hashBool(v))
		}
	default: // untyped all-NULL column
		for i := range c.Nulls {
			mix(i, 0)
		}
	}
}

func hashBool(b bool) uint64 {
	if b {
		return hash64(1)
	}
	return hash64(0)
}

func hashFloat(f float64) uint64 {
	if f == 0 {
		f = 0 // normalize -0.0
	}
	return hash64(math.Float64bits(f))
}

// hash64 is a strong 64-bit integer mix (splitmix64 finalizer).
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashString hashes a string with FNV-1a followed by a mix step.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return hash64(h)
}

// HashCombine mixes a value hash into an accumulated row hash.
func HashCombine(acc, h uint64) uint64 {
	acc ^= h + 0x9e3779b97f4a7c15 + (acc << 6) + (acc >> 2)
	return acc
}

// ParseType maps a SQL type name to a Type.
func ParseType(name string) (Type, error) {
	switch name {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "INT4", "INT8":
		return Int64, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL", "FLOAT8", "DOUBLE PRECISION":
		return Float64, nil
	case "VARCHAR", "TEXT", "CHAR", "STRING":
		return String, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	}
	return Unknown, fmt.Errorf("unknown type %q", name)
}
