package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
)

// wireFuzzBound is how long a fresh connection may take, after a fuzzed one
// drops, to answer Ping and take root row 1's lock.
const wireFuzzBound = 10 * time.Second

// commandScript packs command payloads as FuzzWireCommands reads them: each
// a length byte, then that many bytes.
func commandScript(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = append(b, byte(len(p)))
		b = append(b, p...)
	}
	return b
}

// executePacket is a COM_STMT_EXECUTE of statement id with n parameters: their
// bound types (nil when the execute reuses the last ones) and values' bytes.
func executePacket(id uint32, n int, types []byte, values []byte) []byte {
	b := []byte{comStmtExecute}
	b = binary.LittleEndian.AppendUint32(b, id)
	b = append(b, 0)                           // flags
	b = binary.LittleEndian.AppendUint32(b, 1) // iteration count
	b = append(b, make([]byte, (n+7)/8)...)    // NULL bitmap
	if types == nil {
		return append(append(b, 0), values...)
	}
	b = append(b, 1)
	b = append(b, types...)
	return append(b, values...)
}

// FuzzWireCommands sends one connection arbitrary command packets — a length
// byte, then the payload, whose first byte is the command — while draining
// whatever comes back, and then drops it without COM_QUIT. Whatever the
// commands left behind — an open transaction holding root locks, prepared
// statements rebound any number of ways, an admission slot — the server must
// reclaim: a fresh connection answers Ping and takes root row 1's lock,
// retrying a lock timeout, within wireFuzzBound. Run it longer when touching
// the command dispatch or the prepared-statement paths:
//
//	go test -fuzz FuzzWireCommands -fuzztime 60s -run '^$' ./internal/server/
func FuzzWireCommands(f *testing.F) {
	env := startServer(f, Config{})
	for _, sys := range env.systems {
		sys.Locks.MaxAttempts = 2000 // a lock left held times out fast
	}
	update := []byte("\x03UPDATE Root SET RVal = 'held' WHERE RID = 1")
	f.Add(commandScript([]byte{comPing}))
	f.Add(commandScript([]byte("\x03BEGIN"), update))
	f.Add(commandScript([]byte("\x03SET autocommit = 0"), update, []byte{comPing}))
	f.Add(commandScript([]byte("\x03SET synergy_mode = 'mvcc'"), []byte("\x03BEGIN"), update))
	// Prepared: bind types, rebind, reuse them, send too few of them.
	intType := []byte{typeLonglong, 0}
	strType := []byte{typeVarString, 0}
	one := binary.LittleEndian.AppendUint64(nil, 1)
	val := append([]byte{4}, "held"...)
	f.Add(commandScript(
		[]byte("\x03BEGIN"),
		append([]byte{comStmtPrepare}, "UPDATE Root SET RVal = ? WHERE RID = ?"...),
		executePacket(1, 2, append(strType, intType...), append(val, one...)),
		executePacket(1, 2, nil, append(val, one...)),
		executePacket(1, 2, append(strType, intType...), append(val, one...)),
		executePacket(1, 2, strType, val),
		[]byte{comStmtClose, 1, 0, 0, 0},
		executePacket(1, 2, nil, nil),
	))
	f.Add(commandScript(
		append([]byte{comStmtPrepare}, "SELECT * FROM Root WHERE RID = ?"...),
		executePacket(1, 1, intType, one),
		executePacket(1, 1, nil, one),
		[]byte{comStmtExecute, 1},
		[]byte{0x7f},
	))
	f.Fuzz(func(t *testing.T, script []byte) {
		c := env.dial(t, "hier")
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, c.nc)
			close(drained)
		}()
		for len(script) > 0 {
			n := min(int(script[0]), len(script)-1)
			payload := script[1 : 1+n]
			script = script[1+n:]
			if n == 0 {
				continue
			}
			c.pc.resetSeq()
			if c.pc.writePacket(payload) != nil || c.pc.flush() != nil {
				break // the server hung up
			}
		}
		c.nc.Close()
		<-drained

		fresh := env.dial(t, "hier")
		deadline := time.Now().Add(wireFuzzBound)
		for {
			if err := fresh.Ping(); err != nil {
				t.Fatalf("Ping after a fuzzed connection: %v", err)
			}
			err := fresh.Begin()
			if err == nil {
				err = fresh.Exec("UPDATE Root SET RVal = 'fresh' WHERE RID = 1")
			}
			if err == nil {
				err = fresh.Commit()
			}
			if err == nil {
				return
			}
			var me *MySQLError
			if !errors.As(err, &me) || me.Code != errLockWait || time.Now().After(deadline) {
				t.Fatalf("root row 1's lock after a fuzzed connection: %v", err)
			}
			fresh.Rollback()
		}
	})
}

// fuzzArgs reads execute arguments out of fuzz bytes: each a kind byte — NULL,
// int64, float64 or string — then the value's 8 bytes, or a length byte and
// that many bytes of string.
func fuzzArgs(data []byte) []schema.Value {
	var args []schema.Value
	for len(data) > 0 {
		kind := data[0] % 4
		data = data[1:]
		switch {
		case kind == 0:
			args = append(args, nil)
		case kind == 3:
			n := 0
			if len(data) > 0 {
				n, data = min(int(data[0]), len(data)-1), data[1:]
			}
			args = append(args, string(data[:n]))
			data = data[n:]
		default:
			var w [8]byte
			data = data[copy(w[:], data):]
			u := binary.LittleEndian.Uint64(w[:])
			if kind == 1 {
				args = append(args, int64(u))
			} else {
				args = append(args, math.Float64frombits(u))
			}
		}
	}
	return args
}

// FuzzExecuteParams holds the parameter codec to a round trip: the server's
// decodeParams reads back, from the COM_STMT_EXECUTE payload the client's
// appendExecute builds, every argument it was given — int64, float64 (bit for
// bit), string and NULL, any number of them — unboxed into schema.Args, and
// binds their types. The input is a sequence of packets, each a length byte
// and that many bytes of arguments (fuzzArgs), built in one reused buffer and
// decoded through one string block, as a connection decodes its EXECUTEs:
// after every decode, each earlier packet's string parameters still read what
// was sent, since neither a later packet nor a later cut rewrites them. Seeds
// cover the NULL bitmap's byte boundary (8 and 9 parameters), empty strings
// and strings that fill blocks.
//
//	go test -fuzz FuzzExecuteParams -fuzztime 60s -run '^$' ./internal/server/
func FuzzExecuteParams(f *testing.F) {
	seed := func(args ...[]byte) []byte {
		b := bytes.Join(args, nil)
		return append([]byte{byte(len(b))}, b...)
	}
	null, empty := []byte{0}, []byte{3, 0}
	i64 := append([]byte{1}, binary.LittleEndian.AppendUint64(nil, 1<<40+7)...)
	f64 := append([]byte{2}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(-2.5))...)
	str := []byte{3, 5, 'h', 'e', 'l', 'l', 'o'}
	long := append([]byte{3, 200}, bytes.Repeat([]byte{'x'}, 200)...)
	f.Add([]byte{})
	f.Add(seed(i64, f64, str, null))
	f.Add(seed(null, null, null, null, null, null, null, null))
	f.Add(seed(null, null, null, null, null, null, null, null, null))
	f.Add(seed(str, empty, i64, empty, null, f64, str, empty))
	f.Add(append(seed(str, empty, i64, empty, null, f64, str, empty, null), seed(str, str, null)...))
	f.Add(bytes.Repeat(seed(str, i64, str), 40))
	f.Add(bytes.Join([][]byte{seed(long), seed(str, long), seed(long), seed(empty, long), seed(long), seed(str)}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		type decoded struct {
			args []schema.Value
			got  []schema.Arg
		}
		var strs phoenix.StringBlock
		var done []decoded
		var p []byte
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			args := fuzzArgs(data[1 : 1+n])
			data = data[1+n:]
			var err error
			if p, err = appendExecute(p[:0], 7, args); err != nil {
				t.Fatal(err)
			}
			if id := binary.LittleEndian.Uint32(p[1:5]); p[0] != comStmtExecute || id != 7 {
				t.Fatalf("header %x: command or statement id lost", p[:10])
			}
			got := make([]schema.Arg, len(args))
			var pt paramTypes
			if len(args) > 0 {
				if err := decodeParams(p[10:], got, &pt, &strs); err != nil {
					t.Fatalf("decode %v: %v", args, err)
				}
			}
			if len(pt.types) != len(args) {
				t.Fatalf("%d types bound for %d params", len(pt.types), len(args))
			}
			done = append(done, decoded{args, got})
			for k, d := range done {
				for i, v := range d.args {
					// An Arg holds a float's bits, so == compares floats by bits.
					if want, _ := schema.ArgOf(v); d.got[i] != want {
						t.Fatalf("packet %d of %d, param %d of %d: got %#v, want %#v", k, len(done), i, len(d.args), d.got[i].Value(), v)
					}
				}
			}
		}
	})
}
