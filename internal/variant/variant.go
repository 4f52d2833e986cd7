// Package variant implements a dynamically typed SQL value, modelled on the
// PostgreSQL "variant" extension the pgFMU paper uses for the model-catalogue
// columns initialValue, minValue and maxValue. A Value carries both the datum
// and its original SQL type, so values of heterogeneous types can live in a
// single column while round-tripping losslessly.
package variant

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the SQL type a Value carries.
type Kind int

const (
	Null Kind = iota
	Bool
	Int   // 64-bit integer
	Float // 64-bit IEEE float
	Text  // UTF-8 string
	Time  // timestamp without time zone
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "boolean"
	case Int:
		return "integer"
	case Float:
		return "double precision"
	case Text:
		return "text"
	case Time:
		return "timestamp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed datum. The zero Value is SQL NULL.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	t    time.Time
}

// NewNull returns the SQL NULL value.
func NewNull() Value { return Value{} }

// NewBool wraps a boolean.
func NewBool(v bool) Value { return Value{kind: Bool, b: v} }

// NewInt wraps a 64-bit integer.
func NewInt(v int64) Value { return Value{kind: Int, i: v} }

// NewFloat wraps a 64-bit float.
func NewFloat(v float64) Value { return Value{kind: Float, f: v} }

// NewText wraps a string.
func NewText(v string) Value { return Value{kind: Text, s: v} }

// NewTime wraps a timestamp.
func NewTime(v time.Time) Value { return Value{kind: Time, t: v} }

// FromAny converts a native Go value into a Value. Supported inputs are nil,
// bool, all integer widths, float32/64, string, time.Time and Value itself.
func FromAny(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return NewNull(), nil
	case Value:
		return x, nil
	case bool:
		return NewBool(x), nil
	case int:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case float32:
		return NewFloat(float64(x)), nil
	case float64:
		return NewFloat(x), nil
	case string:
		return NewText(x), nil
	case time.Time:
		return NewTime(x), nil
	default:
		return Value{}, fmt.Errorf("variant: unsupported Go type %T", v)
	}
}

// MustFromAny is FromAny that panics on unsupported types; for literals in
// tests and fixtures.
func MustFromAny(v any) Value {
	val, err := FromAny(v)
	if err != nil {
		panic(err)
	}
	return val
}

// Kind reports the SQL type carried by the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == Null }

// Bool returns the boolean datum; it is only meaningful when Kind()==Bool.
func (v Value) Bool() bool { return v.b }

// Int returns the integer datum; it is only meaningful when Kind()==Int.
func (v Value) Int() int64 { return v.i }

// Float returns the float datum; it is only meaningful when Kind()==Float.
func (v Value) Float() float64 { return v.f }

// Text returns the string datum; it is only meaningful when Kind()==Text.
func (v Value) Text() string { return v.s }

// Time returns the timestamp datum; it is only meaningful when Kind()==Time.
func (v Value) Time() time.Time { return v.t }

// AsFloat coerces numeric values (and numeric-looking text) to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.kind {
	case Int:
		return float64(v.i), nil
	case Float:
		return v.f, nil
	case Bool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case Text:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, fmt.Errorf("variant: cannot coerce %q to float", v.s)
		}
		return f, nil
	case Null:
		return 0, fmt.Errorf("variant: cannot coerce NULL to float")
	default:
		return 0, fmt.Errorf("variant: cannot coerce %s to float", v.kind)
	}
}

// AsInt coerces numeric values to int64. Floats must be integral.
func (v Value) AsInt() (int64, error) {
	switch v.kind {
	case Int:
		return v.i, nil
	case Float:
		if v.f != math.Trunc(v.f) || math.IsInf(v.f, 0) || math.IsNaN(v.f) {
			return 0, fmt.Errorf("variant: float %v is not an integer", v.f)
		}
		return int64(v.f), nil
	case Bool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case Text:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("variant: cannot coerce %q to integer", v.s)
		}
		return i, nil
	default:
		return 0, fmt.Errorf("variant: cannot coerce %s to integer", v.kind)
	}
}

// AsBool coerces to boolean: bool passthrough, nonzero numerics are true,
// and the usual SQL text spellings are accepted.
func (v Value) AsBool() (bool, error) {
	switch v.kind {
	case Bool:
		return v.b, nil
	case Int:
		return v.i != 0, nil
	case Float:
		return v.f != 0, nil
	case Text:
		switch strings.ToLower(strings.TrimSpace(v.s)) {
		case "t", "true", "yes", "on", "1":
			return true, nil
		case "f", "false", "no", "off", "0":
			return false, nil
		}
		return false, fmt.Errorf("variant: cannot coerce %q to boolean", v.s)
	default:
		return false, fmt.Errorf("variant: cannot coerce %s to boolean", v.kind)
	}
}

// AsText renders any value as text (NULL becomes the empty string).
func (v Value) AsText() string {
	if v.kind == Text {
		return v.s
	}
	if v.kind == Null {
		return ""
	}
	return v.String()
}

// TimeLayout is the timestamp text format used across the engine.
const TimeLayout = "2006-01-02 15:04:05"

// AsTime coerces timestamps and timestamp-looking text.
func (v Value) AsTime() (time.Time, error) {
	switch v.kind {
	case Time:
		return v.t, nil
	case Text:
		return ParseTime(v.s)
	default:
		return time.Time{}, fmt.Errorf("variant: cannot coerce %s to timestamp", v.kind)
	}
}

// ParseTime parses the timestamp spellings accepted by the engine.
func ParseTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		TimeLayout,
		"2006-01-02 15:04",
		"2006-01-02T15:04:05",
		"2006-01-02",
		"2006/01/02 15:04",
		"15:04 02/01/2006",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("variant: cannot parse timestamp %q", s)
}

// String renders the value in SQL result style.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Bool:
		if v.b {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Text:
		return v.s
	case Time:
		return v.t.Format(TimeLayout)
	default:
		return fmt.Sprintf("<invalid kind %d>", int(v.kind))
	}
}

// Native returns the datum as its natural Go type: nil, bool, int64,
// float64, string, or time.Time — the inverse of FromAny, and the shape
// database/sql drivers hand to callers.
func (v Value) Native() any {
	switch v.kind {
	case Null:
		return nil
	case Bool:
		return v.b
	case Int:
		return v.i
	case Float:
		return v.f
	case Text:
		return v.s
	case Time:
		return v.t
	default:
		return nil
	}
}

// SQLLiteral renders the value as a literal that re-parses to the same value.
func (v Value) SQLLiteral() string {
	switch v.kind {
	case Text:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case Time:
		return "'" + v.t.Format(TimeLayout) + "'"
	case Float:
		// NaN, ±Inf and -0 have no numeric literal (-0 would parse as the
		// integer 0).
		if math.IsNaN(v.f) || math.IsInf(v.f, 0) || v.f == 0 && math.Signbit(v.f) {
			return "'" + v.String() + "'::float"
		}
	}
	return v.String()
}

// Equal reports deep equality: same kind and same datum. Int/Float values
// compare numerically across the two kinds (3 == 3.0), matching SQL.
func (v Value) Equal(o Value) bool {
	c, err := Compare(v, o)
	return err == nil && c == 0
}

// Compare orders two values. NULL sorts before everything and equals NULL.
// Numeric kinds compare numerically; text compares lexicographically;
// timestamps chronologically. Cross-kind non-numeric comparison is an error.
func Compare(a, b Value) (int, error) {
	if a.kind == Null || b.kind == Null {
		switch {
		case a.kind == Null && b.kind == Null:
			return 0, nil
		case a.kind == Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if isNumeric(a.kind) && isNumeric(b.kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		// Allow text/timestamp comparison by parsing the text side.
		if a.kind == Time && b.kind == Text {
			bt, err := b.AsTime()
			if err != nil {
				return 0, err
			}
			return compareTimes(a.t, bt), nil
		}
		if a.kind == Text && b.kind == Time {
			at, err := a.AsTime()
			if err != nil {
				return 0, err
			}
			return compareTimes(at, b.t), nil
		}
		return 0, fmt.Errorf("variant: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case Bool:
		switch {
		case a.b == b.b:
			return 0, nil
		case !a.b:
			return -1, nil
		default:
			return 1, nil
		}
	case Text:
		return strings.Compare(a.s, b.s), nil
	case Time:
		return compareTimes(a.t, b.t), nil
	default:
		return 0, fmt.Errorf("variant: cannot compare %s values", a.kind)
	}
}

func compareTimes(a, b time.Time) int {
	switch {
	case a.Before(b):
		return -1
	case a.After(b):
		return 1
	default:
		return 0
	}
}

func isNumeric(k Kind) bool { return k == Int || k == Float }

// Parse interprets a text datum as the "most specific" variant value, the way
// the variant extension ingests literals: integer, then float, then boolean,
// then timestamp, falling back to text.
func Parse(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return NewText(s)
	}
	if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
		return NewFloat(f)
	}
	switch strings.ToLower(trimmed) {
	case "true", "false":
		return NewBool(strings.ToLower(trimmed) == "true")
	}
	if t, err := ParseTime(trimmed); err == nil {
		return NewTime(t)
	}
	return NewText(s)
}
