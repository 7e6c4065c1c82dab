package schema

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Value is a typed SQL value: int64, float64, string or nil (SQL NULL).
type Value = any

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
// It and the per-type appenders below are the one key encoding: EncodeKey
// feeds them boxed values, phoenix.AppendKeyOfCells stored cells.
func AppendKey(buf []byte, vals ...Value) []byte {
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, KeySep)
		}
		switch x := v.(type) {
		case nil:
			buf = AppendKeyNull(buf)
		case int64:
			buf = AppendKeyInt(buf, x)
		case int:
			buf = AppendKeyInt(buf, int64(x))
		case float64:
			buf = AppendKeyFloat(buf, x)
		case string:
			buf = AppendKeyString(buf, x)
		default:
			panic(fmt.Sprintf("schema: unencodable key value %T", v))
		}
	}
	return buf
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
