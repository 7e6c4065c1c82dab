package server

import (
	"encoding/binary"
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

// decodeBinaryValue decodes one execute-request parameter of the given wire
// type at b[off], returning a schema.Value (int64, float64 or string).
func decodeBinaryValue(b []byte, off int, wireType byte, unsigned bool) (schema.Value, int, error) {
	need := func(n int) error {
		if off+n > len(b) {
			return errShortPacket
		}
		return nil
	}
	switch wireType {
	case typeNull:
		return nil, off, nil
	case typeTiny:
		if err := need(1); err != nil {
			return nil, 0, err
		}
		if unsigned {
			return int64(b[off]), off + 1, nil
		}
		return int64(int8(b[off])), off + 1, nil
	case typeShort:
		if err := need(2); err != nil {
			return nil, 0, err
		}
		u := binary.LittleEndian.Uint16(b[off:])
		if unsigned {
			return int64(u), off + 2, nil
		}
		return int64(int16(u)), off + 2, nil
	case typeLong, typeInt24:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		u := binary.LittleEndian.Uint32(b[off:])
		if unsigned {
			return int64(u), off + 4, nil
		}
		return int64(int32(u)), off + 4, nil
	case typeLonglong:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		u := binary.LittleEndian.Uint64(b[off:])
		if unsigned && u > math.MaxInt64 {
			// schema.Value carries integers as int64; refuse rather than
			// silently wrap to a negative parameter.
			return nil, 0, fmt.Errorf("server: unsigned BIGINT parameter %d out of range (max %d)", u, int64(math.MaxInt64))
		}
		return int64(u), off + 8, nil
	case typeFloat:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))), off + 4, nil
	case typeDouble:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])), off + 8, nil
	case typeVarchar, typeVarString, typeString, typeBlob, typeNewDecimal:
		s, next, err := readLencBytes(b, off)
		if err != nil {
			return nil, 0, err
		}
		return string(s), next, nil
	default:
		return nil, 0, fmt.Errorf("server: unsupported parameter wire type 0x%02x", wireType)
	}
}
