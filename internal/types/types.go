// Package types defines the value, row, and schema primitives shared by the
// storage engine, execution engine, and SQL layers.
//
// Values are a compact tagged union rather than interface{} so that row
// batches stay dense and comparisons avoid allocation. Dates are stored as
// days since the Unix epoch in the integer payload.
package types

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind parses a SQL type name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return KindString, nil
	case "DATE":
		return KindDate, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", s)
	}
}

// Value is a tagged union holding one SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // payload for Int, Date (days since epoch), Bool (0/1)
	F float64 // payload for Float
	S string  // payload for String
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{K: KindInt, I: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{K: KindFloat, F: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{K: KindString, S: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool, I: 0}
}

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// DateFromString parses "YYYY-MM-DD" into a DATE value.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("types: bad date %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// MustDate parses "YYYY-MM-DD" and panics on failure. For tests and
// compile-time-constant workload definitions.
func MustDate(s string) Value {
	v, err := DateFromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload. Only meaningful for KindBool.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// Int returns the integer payload.
func (v Value) Int() int64 { return v.I }

// Float returns the numeric payload as a float64, converting integers.
func (v Value) Float() float64 {
	if v.K == KindInt || v.K == KindDate {
		return float64(v.I)
	}
	return v.F
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// Time returns a DATE value as a time.Time in UTC.
func (v Value) Time() time.Time { return time.Unix(v.I*86400, 0).UTC() }

// String renders the value for display.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return v.Time().Format("2006-01-02")
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(kind=%d)", v.K)
	}
}

// numericKinds reports whether both kinds are numeric (int/float/date).
func numericKinds(a, b Kind) bool {
	num := func(k Kind) bool { return k == KindInt || k == KindFloat || k == KindDate }
	return num(a) && num(b)
}

// Compare orders two values. NULL sorts before everything; values of
// different non-numeric kinds compare by kind. Returns -1, 0, or 1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K != b.K {
		if numericKinds(a.K, b.K) {
			af, bf := a.Float(), b.Float()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindInt, KindDate, KindBool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case KindFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(a.S, b.S)
	default:
		return 0
	}
}

// Hash computes a stable 64-bit hash of the value, used for hash
// partitioning, hash joins, and hash aggregation. Numeric kinds hash by
// their numeric payload so that INT 3 and FLOAT 3.0 collide deliberately.
func Hash(v Value) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	switch v.K {
	case KindNull:
		_, _ = h.Write([]byte{0})
	case KindInt, KindDate, KindBool:
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	case KindFloat:
		// Hash integral floats as their integer value to keep numeric
		// equality consistent with Hash equality.
		if v.F == float64(int64(v.F)) {
			return Hash(NewInt(int64(v.F)))
		}
		u := uint64(int64(v.F * 1e6))
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	case KindString:
		_, _ = h.Write([]byte(v.S))
	}
	return h.Sum64()
}

// HashRow combines the hashes of the values at the given column offsets.
func HashRow(r Row, cols []int) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, c := range cols {
		h = h*1099511628211 ^ Hash(r[c])
	}
	return h
}

// Row is a single tuple.
type Row []Value

// Clone returns a deep-enough copy of the row (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row with s appended after r.
func (r Row) Concat(s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	out = append(out, s...)
	return out
}

// Project returns a new row holding the values at the given offsets.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// String renders the row as a tab-separated line.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "\t")
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from alternating name/kind pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Cols) }

// Find returns the offset of the column named exactly name, or -1. Names
// are canonical by the time they are looked up: lower-cased where they
// enter, and resolved to their schema name when a plan is built.
func (s Schema) Find(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Concat returns the schema of r ++ s.
func (s Schema) Concat(t Schema) Schema {
	cols := make([]Column, 0, len(s.Cols)+len(t.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, t.Cols...)
	return Schema{Cols: cols}
}

// Project returns a schema holding only the given offsets.
func (s Schema) Project(cols []int) Schema {
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = s.Cols[c]
	}
	return Schema{Cols: out}
}

// Qualify returns a copy of the schema with every column name prefixed by
// "alias." (replacing any existing qualifier).
func (s Schema) Qualify(alias string) Schema {
	out := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		name := c.Name
		if idx := strings.LastIndexByte(name, '.'); idx >= 0 {
			name = name[idx+1:]
		}
		out[i] = Column{Name: alias + "." + name, Kind: c.Kind}
	}
	return Schema{Cols: out}
}

// String renders the schema as "(name TYPE, ...)".
func (s Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ParseValue parses a textual literal into a value of the requested kind.
func ParseValue(kind Kind, text string) (Value, error) {
	if text == "" || strings.EqualFold(text, "null") {
		return Null, nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Null, fmt.Errorf("types: bad int %q: %w", text, err)
		}
		return NewInt(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return Null, fmt.Errorf("types: bad float %q: %w", text, err)
		}
		return NewFloat(f), nil
	case KindString:
		return NewString(text), nil
	case KindDate:
		return DateFromString(strings.TrimSpace(text))
	case KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(text))
		if err != nil {
			return Null, fmt.Errorf("types: bad bool %q: %w", text, err)
		}
		return NewBool(b), nil
	default:
		return Null, fmt.Errorf("types: cannot parse into kind %v", kind)
	}
}
