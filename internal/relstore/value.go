// Package relstore is the vocabulary of Graphitti's user record tables
// (the demo's "relational records"): typed cell values, columns, schemas
// with a primary key, and rows checked against a schema. It stores
// nothing. A record table is a value inside a core.View — schema plus
// rows by primary key — written by the store's one writer and read from
// whichever view a reader pinned, like every other registered datum; the
// snapshot and WAL formats (internal/persist) carry these values.
package relstore

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates column types.
type Type uint8

// Supported column types.
const (
	Int64 Type = iota
	Float64
	String
	Bool
	Bytes
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is a typed cell value. The zero Value is NULL.
type Value struct {
	typ   Type
	null  bool
	i     int64
	f     float64
	s     string
	b     []byte
	truth bool
}

// Null is the NULL value.
var Null = Value{null: true}

// I returns an Int64 value.
func I(v int64) Value { return Value{typ: Int64, i: v} }

// F returns a Float64 value.
func F(v float64) Value { return Value{typ: Float64, f: v} }

// S returns a String value.
func S(v string) Value { return Value{typ: String, s: v} }

// B returns a Bool value.
func B(v bool) Value { return Value{typ: Bool, truth: v} }

// Blob returns a Bytes value holding v (not copied).
func Blob(v []byte) Value { return Value{typ: Bytes, b: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// Type returns the value's type; meaningless for NULL.
func (v Value) Type() Type { return v.typ }

// Int returns the int64 payload (0 unless the value is an Int64).
func (v Value) Int() int64 { return v.i }

// Float returns the numeric payload as float64 for Int64/Float64 values.
func (v Value) Float() float64 {
	if v.typ == Int64 {
		return float64(v.i)
	}
	return v.f
}

// Str returns the string payload ("" unless the value is a String).
func (v Value) Str() string { return v.s }

// BoolVal returns the boolean payload.
func (v Value) BoolVal() bool { return v.truth }

// BytesVal returns the bytes payload.
func (v Value) BytesVal() []byte { return v.b }

// numeric reports whether the value is Int64 or Float64.
func (v Value) numeric() bool { return v.typ == Int64 || v.typ == Float64 }

// Equal reports whether two values are equal. NULL equals nothing,
// including NULL (SQL semantics); use IsNull to test for NULL explicitly.
func (v Value) Equal(o Value) bool {
	if v.null || o.null {
		return false
	}
	if v.numeric() && o.numeric() {
		if v.typ == Int64 && o.typ == Int64 {
			return v.i == o.i
		}
		return v.Float() == o.Float()
	}
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case String:
		return v.s == o.s
	case Bool:
		return v.truth == o.truth
	case Bytes:
		return bytes.Equal(v.b, o.b)
	default:
		return false
	}
}

// Compare orders two non-NULL values of comparable types. It returns
// (-1, 0, +1) and ok=false when the values are not comparable (NULL or
// mismatched non-numeric types).
func (v Value) Compare(o Value) (int, bool) {
	if v.null || o.null {
		return 0, false
	}
	if v.numeric() && o.numeric() {
		if v.typ == Int64 && o.typ == Int64 {
			switch {
			case v.i < o.i:
				return -1, true
			case v.i > o.i:
				return 1, true
			}
			return 0, true
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		}
		return 0, true
	}
	if v.typ != o.typ {
		return 0, false
	}
	switch v.typ {
	case String:
		return strings.Compare(v.s, o.s), true
	case Bool:
		a, b := 0, 0
		if v.truth {
			a = 1
		}
		if o.truth {
			b = 1
		}
		return a - b, true
	case Bytes:
		return bytes.Compare(v.b, o.b), true
	default:
		return 0, false
	}
}

// Key returns the string a record table files a primary-key value under;
// it is injective per type and consistent with Equal for same-typed
// values.
func (v Value) Key() string {
	if v.null {
		return "\x00N"
	}
	switch v.typ {
	case Int64:
		return "\x01" + strconv.FormatInt(v.i, 10)
	case Float64:
		// Integral floats hash like ints so Int64/Float64 equality holds.
		if v.f == float64(int64(v.f)) {
			return "\x01" + strconv.FormatInt(int64(v.f), 10)
		}
		return "\x02" + strconv.FormatFloat(v.f, 'b', -1, 64)
	case String:
		return "\x03" + v.s
	case Bool:
		if v.truth {
			return "\x04t"
		}
		return "\x04f"
	case Bytes:
		return "\x05" + string(v.b)
	default:
		return "\x06"
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	switch v.typ {
	case Int64:
		return strconv.FormatInt(v.i, 10)
	case Float64:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case String:
		return strconv.Quote(v.s)
	case Bool:
		return strconv.FormatBool(v.truth)
	case Bytes:
		return fmt.Sprintf("blob(%d bytes)", len(v.b))
	default:
		return "?"
	}
}
