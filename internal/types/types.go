// Package types defines the value, row, and schema primitives shared by the
// storage engine, execution engine, and SQL layers.
//
// Values are a compact tagged union rather than interface{} so that row
// batches stay dense and comparisons avoid allocation. Dates are stored as
// days since the Unix epoch in the integer payload.
package types

import (
	"fmt"
	"math"
	"math/bits"
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

// Hash is the key hash: the one number a value is placed, shuffled, joined
// and grouped under, on every node and in every process, so it depends on
// nothing but the value. Values that compare equal across kinds hash alike:
// INT, DATE and BOOLEAN hash by their payload (a BOOLEAN as 0 or 1, whatever
// its nonzero payload), an integral FLOAT as that integer, so INT 3 and
// FLOAT 3.0 share a hash; any other FLOAT hashes by its bits. All NULLs
// share one hash. Every bit of the result depends on every bit of the value,
// so a caller may take any bits of it (a shuffle the low ones, a hash
// table's slot the high ones of hash × φ).
func Hash(v Value) uint64 {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return HashInt(v.K, v.I)
	case KindFloat:
		return HashFloat(v.F)
	case KindString:
		return HashString(v.S)
	default:
		return nullHash
	}
}

// nullHash is the hash of every NULL.
const nullHash uint64 = 0x6a09e667f3bcc908

// HashInt is Hash of the integral payload x of kind k (INT, DATE or BOOLEAN).
func HashInt(k Kind, x int64) uint64 {
	if k == KindBool && x != 0 {
		x = 1
	}
	return mix(uint64(x))
}

// HashFloat is Hash of a FLOAT. Only a float inside int64's range is
// converted, so the result is the same on every platform.
func HashFloat(f float64) uint64 {
	if f >= -0x1p63 && f < 0x1p63 && float64(int64(f)) == f {
		return mix(uint64(int64(f)))
	}
	return mix(math.Float64bits(f) ^ floatTag)
}

// floatTag sets a non-integral FLOAT's hash input apart from an INT whose
// payload has the same bits.
const floatTag uint64 = 0xbb67ae8584caa73b

// HashString is Hash of a STRING: its bytes a word at a time, then mix.
func HashString(s string) uint64 { return hashText(s) }

// HashBytes is HashString of the string b holds, without making the string.
func HashBytes(b []byte) uint64 { return hashText(b) }

func hashText[T string | []byte](s T) uint64 {
	h := uint64(len(s)) * hashP1
	for ; len(s) >= 8; s = s[8:] {
		h = hashRound(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = hashRound(h, w)
	}
	return mix(h)
}

const (
	hashP1 uint64 = 0x9E3779B185EBCA87
	hashP2 uint64 = 0xC2B2AE3D27D4EB4F
)

// hashRound folds one 8-byte word into a string's running hash (xxHash64's
// round).
func hashRound(h, w uint64) uint64 { return bits.RotateLeft64(h+w*hashP2, 31) * hashP1 }

// mix is a 64-bit finalizer (murmur3's): every input bit moves every output
// bit.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// FoldHash folds the hash of a key's next value into the hash of the values
// before it (0 before the first), so a one-value key hashes as its value.
// It is the one fold of a multi-value key: HashRow and every typed front
// end that hashes a key column by column use it.
func FoldHash(h, vh uint64) uint64 { return bits.RotateLeft64(h, 11) ^ vh }

// HashRow is the hash of the key made of the values at the given column
// offsets.
func HashRow(r Row, cols []int) uint64 {
	var h uint64
	for _, c := range cols {
		h = FoldHash(h, Hash(r[c]))
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
