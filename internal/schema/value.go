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

const keySep = byte(0x00)

// EncodeKey renders typed key attribute values into one sortable row key.
func EncodeKey(vals ...Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(keySep)
		}
		b.Write(encodeKeyPart(v))
	}
	return b.String()
}

func encodeKeyPart(v Value) []byte {
	switch x := v.(type) {
	case nil:
		return []byte{0x01}
	case int64:
		var buf [9]byte
		buf[0] = 0x02
		binary.BigEndian.PutUint64(buf[1:], uint64(x)^(1<<63))
		return buf[:]
	case int:
		return encodeKeyPart(int64(x))
	case float64:
		bits := math.Float64bits(x)
		if x >= 0 || bits>>63 == 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		var buf [9]byte
		buf[0] = 0x03
		binary.BigEndian.PutUint64(buf[1:], bits)
		return buf[:]
	case string:
		// Escape 0x00 -> 0x00 0xFF so the separator stays unambiguous.
		out := []byte{0x04}
		for i := 0; i < len(x); i++ {
			if x[i] == 0x00 {
				out = append(out, 0x00, 0xFF)
				continue
			}
			out = append(out, x[i])
		}
		return out
	default:
		panic(fmt.Sprintf("schema: unencodable key value %T", v))
	}
}

// KeyPrefix builds the scan prefix for a partial key (the given values plus
// a trailing separator), so that prefix scans match exactly the rows whose
// leading key attributes equal vals.
func KeyPrefix(vals ...Value) string {
	if len(vals) == 0 {
		return ""
	}
	return EncodeKey(vals...) + string(keySep)
}
