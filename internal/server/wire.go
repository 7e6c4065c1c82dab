package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
)

// Commands of the MySQL client/server protocol this server implements.
const (
	comQuit        = 0x01
	comInitDB      = 0x02
	comQuery       = 0x03
	comFieldList   = 0x04
	comPing        = 0x0e
	comStmtPrepare = 0x16
	comStmtExecute = 0x17
	comStmtClose   = 0x19
)

// Column wire types (subset). phoenix results carry int64/float64/string,
// mapped to LONGLONG/DOUBLE/VAR_STRING; the execute decoder accepts the
// common client-sent types beyond those.
const (
	typeTiny       = 0x01
	typeShort      = 0x02
	typeLong       = 0x03
	typeFloat      = 0x04
	typeDouble     = 0x05
	typeNull       = 0x06
	typeLonglong   = 0x08
	typeInt24      = 0x09
	typeVarchar    = 0x0f
	typeNewDecimal = 0xf6
	typeBlob       = 0xfc
	typeVarString  = 0xfd
	typeString     = 0xfe
)

// Capability flags (subset).
const (
	capLongPassword  = 0x00000001
	capConnectWithDB = 0x00000008
	capProtocol41    = 0x00000200
	capTransactions  = 0x00002000
	capSecureConn    = 0x00008000
)

// Status flags.
const (
	statusInTrans    = 0x0001
	statusAutocommit = 0x0002
)

// Error codes (MySQL numbering where a faithful match exists).
const (
	errConCount     = 1040 // too many connections / admission queue full
	errParse        = 1064
	errUnknownCom   = 1047
	errUnknownVar   = 1193
	errWrongVarVal  = 1231
	errLockWait     = 1205
	errDeadlock     = 1213 // concurrency conflict (OCC/MVCC)
	errUnknownTable = 1146
	errUnknownCol   = 1054
	errTooManyStmts = 1461
	errUnknown      = 1105
)

const (
	charsetUTF8   = 33
	charsetBinary = 63
)

// wireTypeOf maps a phoenix column type to its wire type.
func wireTypeOf(t schema.ColType) byte {
	switch t {
	case schema.TInt:
		return typeLonglong
	case schema.TFloat:
		return typeDouble
	default:
		return typeVarString
	}
}

// appendOK appends an OK packet payload.
func appendOK(b []byte, affected uint64, status uint16, info string) []byte {
	b = append(b, 0x00)
	b = appendLencInt(b, affected)
	b = appendLencInt(b, 0) // last insert id
	b = binary.LittleEndian.AppendUint16(b, status)
	b = binary.LittleEndian.AppendUint16(b, 0) // warnings
	return append(b, info...)
}

// appendErr appends an ERR packet payload.
func appendErr(b []byte, code uint16, sqlState, msg string) []byte {
	b = append(b, 0xff)
	b = binary.LittleEndian.AppendUint16(b, code)
	b = append(b, '#')
	if len(sqlState) != 5 {
		sqlState = "HY000"
	}
	b = append(b, sqlState...)
	return append(b, msg...)
}

// appendEOF appends an EOF packet payload.
func appendEOF(b []byte, status uint16) []byte {
	b = append(b, 0xfe)
	b = binary.LittleEndian.AppendUint16(b, 0) // warnings
	return binary.LittleEndian.AppendUint16(b, status)
}

// appendColumnDef appends a protocol-4.1 column definition packet payload.
func appendColumnDef(b []byte, name string, wireType byte) []byte {
	b = appendLencString(b, "def")     // catalog
	b = appendLencString(b, "synergy") // schema
	b = appendLencString(b, "")        // table
	b = appendLencString(b, "")        // org table
	b = appendLencString(b, name)
	b = appendLencString(b, name) // org name
	b = appendLencInt(b, 0x0c)    // fixed-length fields
	charset := uint16(charsetUTF8)
	length := uint32(255 * 3)
	decimals := byte(0)
	switch wireType {
	case typeLonglong:
		charset, length = charsetBinary, 21
	case typeDouble:
		charset, length, decimals = charsetBinary, 22, 31
	}
	b = binary.LittleEndian.AppendUint16(b, charset)
	b = binary.LittleEndian.AppendUint32(b, length)
	b = append(b, wireType)
	b = binary.LittleEndian.AppendUint16(b, 0) // flags
	b = append(b, decimals)
	return append(b, 0x00, 0x00) // filler
}

// appendValue appends one value to a row packet straight from its cell
// encoding (phoenix.EncodeValue): a string is copied payload-to-wire, a number
// formatted from the decoded bits. The caller has dealt with NULL in a binary
// row. A number in a numeric column of the other kind is sent as the column's
// kind — an integer widens to a double, a double in an integer column is
// truncated — never as text inside a binary row; an integer in a DOUBLE
// column of a text row keeps its digits, which are a valid double literal.
// Only a string in a numeric column still falls back to a lenc string.
func appendValue(b []byte, wireType byte, binaryRow bool, raw []byte) []byte {
	var i int64
	var f float64
	kind := phoenix.RawCellKind(raw)
	switch kind {
	case phoenix.CellInt:
		i = phoenix.RawCellInt(raw)
		f = float64(i)
	case phoenix.CellFloat:
		f = phoenix.RawCellFloat(raw)
		i = int64(f)
	case phoenix.CellString:
		return appendLencBytes(b, phoenix.RawCellBytes(raw))
	default:
		return append(b, 0xfb) // NULL
	}
	var tmp [32]byte
	var s []byte
	switch {
	case binaryRow && wireType == typeLonglong:
		return binary.LittleEndian.AppendUint64(b, uint64(i))
	case binaryRow && wireType == typeDouble:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	case kind == phoenix.CellFloat && wireType != typeLonglong:
		s = strconv.AppendFloat(tmp[:0], f, 'g', -1, 64)
	default:
		s = strconv.AppendInt(tmp[:0], i, 10)
	}
	return appendLencBytes(b, s)
}

// appendRow appends a row packet payload — text-protocol lenc strings, or
// (prepared-statement result sets) a 0x00 header, a null bitmap with bit
// offset 2 and each non-NULL value encoded by its column's wire type — from
// the cell encodings value(i) returns, each used before the next is asked
// for. It appends onto a caller-owned buffer: the connection reuses one slice
// across rows and statements, so encoding a cursor's rows allocates nothing.
func appendRow(b []byte, types []byte, binaryRow bool, value func(i int) []byte) []byte {
	start := len(b)
	if binaryRow {
		b = append(b, 0x00)
		for n := (len(types) + 7 + 2) / 8; n > 0; n-- {
			b = append(b, 0x00)
		}
	}
	for i := range types {
		raw := value(i)
		if binaryRow && phoenix.RawCellKind(raw) == phoenix.CellNull {
			pos := i + 2
			b[start+1+pos/8] |= 1 << (pos % 8)
			continue
		}
		b = appendValue(b, types[i], binaryRow, raw)
	}
	return b
}

// appendExecute appends the COM_STMT_EXECUTE payload that runs statement id
// with args: the header, the NULL bitmap, every argument's wire type (always
// bound anew) and each non-NULL value. Arguments are int64, float64, string
// or nil, each unboxed once (schema.ArgOf). It appends onto a caller-owned
// buffer, so a client that reuses one allocates nothing per execute.
func appendExecute(b []byte, id uint32, args []schema.Value) ([]byte, error) {
	b = append(b, comStmtExecute)
	b = binary.LittleEndian.AppendUint32(b, id)
	b = append(b, 0x00)                        // flags
	b = binary.LittleEndian.AppendUint32(b, 1) // iteration count
	if len(args) == 0 {
		return b, nil
	}
	bitmap := len(b)
	for range (len(args) + 7) / 8 {
		b = append(b, 0x00)
	}
	b = append(b, 1) // new params bound
	for i, v := range args {
		a, ok := schema.ArgOf(v)
		if !ok {
			return b, fmt.Errorf("server: unsupported arg type %T", v)
		}
		switch a.Kind() {
		case schema.ArgNull:
			b[bitmap+i/8] |= 1 << (i % 8)
			b = append(b, typeNull, 0)
		case schema.ArgInt:
			b = append(b, typeLonglong, 0)
		case schema.ArgFloat:
			b = append(b, typeDouble, 0)
		default:
			b = append(b, typeVarString, 0)
		}
	}
	for _, v := range args {
		a, _ := schema.ArgOf(v)
		switch a.Kind() {
		case schema.ArgInt:
			b = binary.LittleEndian.AppendUint64(b, uint64(a.Int()))
		case schema.ArgFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Float()))
		case schema.ArgString:
			b = appendLencString(b, a.Str())
		}
	}
	return b, nil
}

// paramTypes are a prepared statement's parameter wire types and unsigned
// flags, as the last execute that bound types sent them (clients may omit
// types on re-execution).
type paramTypes struct {
	types    []byte
	unsigned []bool
}

var errMalformedExecute = errors.New("malformed COM_STMT_EXECUTE")

// decodeParams decodes the parameter block of a COM_STMT_EXECUTE payload —
// b is the payload from its NULL bitmap on — into params, one per
// placeholder, unboxed. A block that binds types refills pt in place; one that
// does not is decoded by the types an earlier execute bound. Nothing decoded
// aliases b: the string parameters are windows of one string, copied out of b
// at the first of them, so b may be reused as soon as decodeParams returns.
// That copy is the one allocation decoding makes.
func decodeParams(b []byte, params []schema.Arg, pt *paramTypes) error {
	n := len(params)
	nb := (n + 7) / 8
	if nb+1 > len(b) {
		return errMalformedExecute
	}
	nullBits := b[:nb]
	off := nb
	newBound := b[off]
	off++
	if newBound == 1 {
		// A rebind refills the type lists in place, once the packet is
		// known to hold them all.
		if off+2*n > len(b) {
			return errMalformedExecute
		}
		if pt.types == nil {
			pt.types, pt.unsigned = make([]byte, n), make([]bool, n)
		}
		for i := range n {
			pt.types[i] = b[off]
			pt.unsigned[i] = b[off+1]&0x80 != 0
			off += 2
		}
	}
	if pt.types == nil {
		return errors.New("COM_STMT_EXECUTE without parameter types")
	}
	// strs is b from the first string parameter on (never empty: it holds
	// that parameter's length), strsAt its offset in b.
	var strs string
	strsAt := 0
	for i := range n {
		if nullBits[i/8]&(1<<(i%8)) != 0 {
			params[i] = schema.Arg{}
			continue
		}
		switch pt.types[i] {
		case typeVarchar, typeVarString, typeString, typeBlob, typeNewDecimal:
			s, next, err := readLencBytes(b, off)
			if err != nil {
				return err
			}
			if strs == "" {
				strs, strsAt = string(b[off:]), off
			}
			start := next - len(s) - strsAt
			params[i], off = schema.StringArg(strs[start:start+len(s)]), next
		default:
			v, next, err := decodeBinaryValue(b, off, pt.types[i], pt.unsigned[i])
			if err != nil {
				return err
			}
			params[i], off = v, next
		}
	}
	return nil
}

// decodeBinaryValue decodes one binary-protocol value of the given wire type
// at b[off]: an execute-request parameter (but for a string, which
// decodeParams cuts from its one copy) or a binary row's cell.
func decodeBinaryValue(b []byte, off int, wireType byte, unsigned bool) (schema.Arg, int, error) {
	var null schema.Arg
	need := func(n int) error {
		if off+n > len(b) {
			return errShortPacket
		}
		return nil
	}
	switch wireType {
	case typeNull:
		return null, off, nil
	case typeTiny:
		if err := need(1); err != nil {
			return null, 0, err
		}
		if unsigned {
			return schema.IntArg(int64(b[off])), off + 1, nil
		}
		return schema.IntArg(int64(int8(b[off]))), off + 1, nil
	case typeShort:
		if err := need(2); err != nil {
			return null, 0, err
		}
		u := binary.LittleEndian.Uint16(b[off:])
		if unsigned {
			return schema.IntArg(int64(u)), off + 2, nil
		}
		return schema.IntArg(int64(int16(u))), off + 2, nil
	case typeLong, typeInt24:
		if err := need(4); err != nil {
			return null, 0, err
		}
		u := binary.LittleEndian.Uint32(b[off:])
		if unsigned {
			return schema.IntArg(int64(u)), off + 4, nil
		}
		return schema.IntArg(int64(int32(u))), off + 4, nil
	case typeLonglong:
		if err := need(8); err != nil {
			return null, 0, err
		}
		u := binary.LittleEndian.Uint64(b[off:])
		if unsigned && u > math.MaxInt64 {
			// An Arg carries integers as int64; refuse rather than
			// silently wrap to a negative parameter.
			return null, 0, fmt.Errorf("server: unsigned BIGINT parameter %d out of range (max %d)", u, int64(math.MaxInt64))
		}
		return schema.IntArg(int64(u)), off + 8, nil
	case typeFloat:
		if err := need(4); err != nil {
			return null, 0, err
		}
		return schema.FloatArg(float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off:])))), off + 4, nil
	case typeDouble:
		if err := need(8); err != nil {
			return null, 0, err
		}
		return schema.FloatArg(math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))), off + 8, nil
	case typeVarchar, typeVarString, typeString, typeBlob, typeNewDecimal:
		s, next, err := readLencBytes(b, off)
		if err != nil {
			return null, 0, err
		}
		return schema.StringArg(string(s)), next, nil
	default:
		return null, 0, fmt.Errorf("server: unsupported parameter wire type 0x%02x", wireType)
	}
}
