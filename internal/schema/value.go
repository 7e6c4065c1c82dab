package schema

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Value is a typed SQL value: int64, float64, string or nil (SQL NULL).
type Value = any

// ArgKind is the kind of an Arg: one of the four a Value holds.
type ArgKind uint8

// The kinds of an Arg. The zero Arg is NULL.
const (
	ArgNull ArgKind = iota
	ArgInt
	ArgFloat
	ArgString
)

// Arg is a Value unboxed: its kind and an int64, a float64 or a string, held
// by value. Parameters travel as Args from the wire to the key and cell
// encoders, so binding one allocates nothing; a string Arg shares its bytes
// with whatever string it was made from. The zero Arg is NULL.
type Arg struct {
	kind ArgKind
	num  uint64 // an int64's bits, or a float64's
	str  string
}

// IntArg is an int64 Arg.
func IntArg(x int64) Arg { return Arg{kind: ArgInt, num: uint64(x)} }

// FloatArg is a float64 Arg.
func FloatArg(x float64) Arg { return Arg{kind: ArgFloat, num: math.Float64bits(x)} }

// StringArg is a string Arg; it shares s's bytes.
func StringArg(s string) Arg { return Arg{kind: ArgString, str: s} }

// Kind reports a's kind.
func (a Arg) Kind() ArgKind { return a.kind }

// Int is an ArgInt's value.
func (a Arg) Int() int64 { return int64(a.num) }

// Float is an ArgFloat's value.
func (a Arg) Float() float64 { return math.Float64frombits(a.num) }

// Str is an ArgString's value.
func (a Arg) Str() string { return a.str }

// ArgOf unboxes v, and an int as an int64. ok is false for any other type,
// which no encoder takes.
func ArgOf(v Value) (a Arg, ok bool) {
	switch x := v.(type) {
	case nil:
		return Arg{}, true
	case int64:
		return IntArg(x), true
	case int:
		return IntArg(int64(x)), true
	case float64:
		return FloatArg(x), true
	case string:
		return StringArg(x), true
	}
	return Arg{}, false
}

// ArgsOf unboxes vals into a list of their own (nil for none): what an entry
// point that takes boxed values hands the typed path.
func ArgsOf(vals []Value) ([]Arg, error) {
	if len(vals) == 0 {
		return nil, nil
	}
	return AppendArgs(make([]Arg, 0, len(vals)), vals)
}

// AppendArgs appends vals, unboxed, to dst; a type ArgOf refuses is an error.
func AppendArgs(dst []Arg, vals []Value) ([]Arg, error) {
	for _, v := range vals {
		a, ok := ArgOf(v)
		if !ok {
			return dst, fmt.Errorf("schema: unsupported parameter type %T", v)
		}
		dst = append(dst, a)
	}
	return dst, nil
}

// Value boxes a: nil, an int64, a float64 or a string.
func (a Arg) Value() Value {
	switch a.kind {
	case ArgInt:
		return a.Int()
	case ArgFloat:
		return a.Float()
	case ArgString:
		return a.str
	}
	return nil
}

// Row maps column name to value.
type Row map[string]Value

// Clone shallow-copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// CompareValues orders two values: nil < numbers < strings; numbers compare
// numerically across int64/float64.
func CompareValues(a, b Value) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	if as, ok := a.(string); ok {
		// Two strings order bytewise — the common ORDER BY case, kept off
		// the fmt.Sprint path below.
		if bs, ok := b.(string); ok {
			return strings.Compare(as, bs)
		}
	}
	af, aNum := toFloat(a)
	bf, bNum := toFloat(b)
	if aNum && bNum {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if aNum != bNum {
		if aNum {
			return -1
		}
		return 1
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// ValuesEqual reports semantic equality (numeric across int/float).
func ValuesEqual(a, b Value) bool { return CompareValues(a, b) == 0 }

// --- Order-preserving key encoding -----------------------------------------
//
// Row keys in the NoSQL store are "delimited concatenations of the values of
// the key attributes" (§II-D). The encoding below preserves SQL ordering
// under bytewise comparison: integers are offset-binary big-endian, floats
// use the IEEE-754 total-order trick, strings are escaped so the delimiter
// never collides with content.

// KeySep delimits the parts of a row key.
const KeySep = byte(0x00)

// EncodeKey renders typed key attribute values into one sortable row key.
func EncodeKey(vals ...Value) string {
	var buf [64]byte // most keys fit: the string is the only allocation
	return string(AppendKey(buf[:0], vals...))
}

// AppendKey appends the key encoding of vals, KeySep between parts, to buf.
// Each part is AppendKeyArg's, the one key encoding: EncodeKey feeds it boxed
// values, the write and read paths unboxed parameters, and
// phoenix.AppendKeyOfCells stored cells.
func AppendKey(buf []byte, vals ...Value) []byte {
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, KeySep)
		}
		a, ok := ArgOf(v)
		if !ok {
			panic(fmt.Sprintf("schema: unencodable key value %T", v))
		}
		buf = AppendKeyArg(buf, a)
	}
	return buf
}

// AppendKeyArg appends the key part of one value.
func AppendKeyArg(buf []byte, a Arg) []byte {
	switch a.kind {
	case ArgInt:
		return AppendKeyInt(buf, a.Int())
	case ArgFloat:
		return AppendKeyFloat(buf, a.Float())
	case ArgString:
		return AppendKeyString(buf, a.str)
	default:
		return AppendKeyNull(buf)
	}
}

// AppendKeyNull appends the key part of SQL NULL, which sorts first.
func AppendKeyNull(buf []byte) []byte { return append(buf, 0x01) }

// AppendKeyInt appends an integer key part: offset-binary big-endian.
func AppendKeyInt(buf []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, 0x02), uint64(x)^(1<<63))
}

// AppendKeyFloat appends a float key part: the IEEE-754 total-order trick.
func AppendKeyFloat(buf []byte, x float64) []byte {
	bits := math.Float64bits(x)
	if x >= 0 || bits>>63 == 0 {
		bits ^= 1 << 63
	} else {
		bits = ^bits
	}
	return binary.BigEndian.AppendUint64(append(buf, 0x03), bits)
}

// AppendKeyString appends a string key part, escaping 0x00 -> 0x00 0xFF so
// the separator stays unambiguous.
func AppendKeyString[S string | []byte](buf []byte, s S) []byte {
	buf = append(buf, 0x04)
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			buf = append(append(buf, s[start:i]...), 0x00, 0xFF)
			start = i + 1
		}
	}
	return append(buf, s[start:]...)
}
