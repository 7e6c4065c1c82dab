package synergy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

// encodeParams is the reference rendering of a statement's parameters: the
// walParam list json.Marshal writes into a record.
func encodeParams(params []schema.Value) ([]walParam, error) {
	out := make([]walParam, len(params))
	for i, p := range params {
		switch x := p.(type) {
		case int64:
			out[i] = walParam{T: "i", V: strconv.FormatInt(x, 10)}
		case float64:
			out[i] = walParam{T: "f", V: strconv.FormatFloat(x, 'g', -1, 64)}
		case string:
			out[i] = walParam{T: "s", V: x}
		case nil:
			out[i] = walParam{T: "n"}
		default:
			return nil, fmt.Errorf("synergy: unsupported parameter type %T", p)
		}
	}
	return out, nil
}

// encodeStatements is the reference rendering of a transaction's statement
// records, one json.Marshal per line. The slave appends them by hand
// (appendStatementRecord); FuzzWALRecord holds the two to the same bytes.
func encodeStatements(txid int64, stmts []sqlparser.Statement, paramsList [][]schema.Value) ([]byte, error) {
	var log []byte
	for i, stmt := range stmts {
		ps, err := encodeParams(paramsList[i])
		if err != nil {
			return nil, err
		}
		rec, err := json.Marshal(walRecord{TxID: txid, SQL: stmt.String(), Params: ps})
		if err != nil {
			return nil, err
		}
		log = append(log, rec...)
		log = append(log, '\n')
	}
	return log, nil
}

// FuzzWALRecord: the records a slave appends by hand are byte for byte what
// json.Marshal makes of the same walRecord, newline included — for any
// transaction id, any SQL text (quotes, backslashes, control bytes, the HTML
// characters, U+2028 and U+2029, invalid UTF-8) and any parameter list of
// int64, float64, string and NULL, whose kinds kinds spells out, and for the
// commit and abort records. The slave is fed the parameters unboxed
// (schema.Arg), the reference their boxed values, so a log written from
// either replays alike. Run it longer when touching appendJSONString or the
// record layout:
//
//	go test -fuzz FuzzWALRecord -fuzztime 60s -run '^$' ./internal/synergy/
func FuzzWALRecord(f *testing.F) {
	f.Add(int64(1), "INSERT INTO T (A, B) VALUES (?, 'x')", []byte{0, 1, 2, 3}, int64(7), 2.5, "O'Brien")
	f.Add(int64(0), "", []byte{}, int64(0), 0.0, "")
	f.Add(int64(-42), "<a href=\"x\">&amp;</a>\\\b\f\n\r\t\x00\x1f\x7f", []byte{2, 2}, int64(-1), -0.0, "  ")
	f.Add(int64(1<<62), "\xff\xfe bad \xc3 utf8 \xe2\x80", []byte{1, 1, 3}, int64(1<<63-1), 1e300, "\xed\xa0\x80 surrogate")
	f.Add(int64(9), "é日本 \U0001F600", []byte{2, 0, 1}, int64(-9), 1e-7, "<>&'\"")
	f.Fuzz(func(t *testing.T, txid int64, sql string, kinds []byte, i int64, fl float64, s string) {
		params, args := make([]schema.Value, len(kinds)), make([]schema.Arg, len(kinds))
		for k, kind := range kinds {
			switch kind % 4 {
			case 0:
				params[k] = i + int64(k)
			case 1:
				params[k] = fl * float64(k+1)
			case 2:
				params[k] = s[:len(s)*k/len(kinds)]
			case 3:
				params[k] = nil
			}
			args[k], _ = schema.ArgOf(params[k])
		}
		ps, err := encodeParams(params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(walRecord{TxID: txid, SQL: sql, Params: ps})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendStatementRecord([]byte("head"), txid, appendJSONString(nil, sql), args)
		if !bytes.Equal(got[len("head"):], want) {
			t.Fatalf("statement record:\n got  %q\n want %q", got[len("head"):], want)
		}
		for _, commit := range []bool{true, false} {
			want, _ := json.Marshal(walRecord{TxID: txid, Commit: commit, Abort: !commit})
			want = append(want, '\n')
			if got := appendOutcomeRecord(nil, txid, commit); !bytes.Equal(got, want) {
				t.Fatalf("outcome record (commit %v):\n got  %q\n want %q", commit, got, want)
			}
		}
	})
}
