package schema

import (
	"bytes"
	"math"
	"testing"
)

// argCases are values of every kind a Value holds, with the edges of each:
// ints below 256 (which Go boxes without allocating), negative and at both
// limits; floats at -0 and both infinities; the empty string; NULL.
var argCases = []Value{
	int64(0), int64(7), int64(255), int64(256), int64(-1), int64(math.MinInt64), int64(math.MaxInt64),
	0.0, math.Copysign(0, -1), 2.5, -1e300, math.Inf(1), math.Inf(-1),
	"", "a", "a\x00b", "longer string with spaces",
	nil,
}

// boxedKey is the key part of v as the boxed key encoder wrote it, type by
// type: the reference the Arg encoder must match byte for byte.
func boxedKey(v Value) []byte {
	switch x := v.(type) {
	case int64:
		return AppendKeyInt(nil, x)
	case float64:
		return AppendKeyFloat(nil, x)
	case string:
		return AppendKeyString(nil, x)
	default:
		return AppendKeyNull(nil)
	}
}

// TestArgRoundTrip: unboxing loses nothing — ArgOf(v).Value() is v, a float
// to the bit, -0 included — and an Arg keys exactly as its boxed value does,
// alone and as a part of a composite key. A type no Value holds is refused.
func TestArgRoundTrip(t *testing.T) {
	for _, v := range argCases {
		a, ok := ArgOf(v)
		if !ok {
			t.Fatalf("ArgOf(%#v) refused", v)
		}
		back := a.Value()
		same := back == v
		if f, isFloat := v.(float64); isFloat {
			g, _ := back.(float64)
			same = math.Float64bits(g) == math.Float64bits(f)
		}
		if !same {
			t.Errorf("ArgOf(%#v).Value() = %#v", v, back)
		}
		if got, want := AppendKeyArg(nil, a), boxedKey(v); !bytes.Equal(got, want) {
			t.Errorf("key of Arg %#v = %x, boxed %x", v, got, want)
		}
		composite := AppendKeyArg(append(AppendKeyArg(nil, IntArg(9)), KeySep), a)
		if got := EncodeKey(int64(9), v); got != string(composite) {
			t.Errorf("EncodeKey(9, %#v) = %x, Arg parts %x", v, got, composite)
		}
	}
	if a, ok := ArgOf(3); !ok || a != IntArg(3) {
		t.Errorf("ArgOf(int 3) = %#v, %v; want IntArg(3)", a, ok)
	}
	if _, ok := ArgOf(true); ok {
		t.Error("ArgOf(true) accepted a bool")
	}
	if _, err := ArgsOf([]Value{int64(1), []byte("x")}); err == nil {
		t.Error("ArgsOf accepted a []byte")
	}
	if args, err := ArgsOf(argCases); err != nil || len(args) != len(argCases) {
		t.Errorf("ArgsOf(cases) = %d args, %v", len(args), err)
	}
}

// TestArgOfAllocatesNothing: unboxing and keying an Arg allocate nothing.
func TestArgOfAllocatesNothing(t *testing.T) {
	var buf [64]byte
	n := testing.AllocsPerRun(100, func() {
		for _, v := range argCases {
			a, _ := ArgOf(v)
			AppendKeyArg(buf[:0], a)
		}
	})
	if n != 0 {
		t.Fatalf("ArgOf and AppendKeyArg allocate %v per round, want 0", n)
	}
}
