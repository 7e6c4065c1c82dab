package server

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestPrepareReturnsResultShape: COM_STMT_PREPARE answers, as MySQL does, with
// the result's column count and one definition per column, and they are the
// definitions every execute's result set carries, byte for byte — for every
// wire-golden shape (Q1–Q11, R1–R4, the scan workload's statements, the
// aggregate, literal and all-NULL shapes). A write has no result and
// describes none.
func TestPrepareReturnsResultShape(t *testing.T) {
	data := tpcw.Generate(40, 7)
	c := serveSystem(t, wireSystem(t, data))
	for _, sh := range wireShapes(data) {
		st, err := c.Prepare(sh.sql)
		if err != nil {
			t.Fatalf("%s: prepare: %v", sh.id, err)
		}
		names, defs := st.last.names, bytes.Clone(st.last.defs)
		if len(names) == 0 {
			t.Fatalf("%s: the prepare response describes no columns", sh.id)
		}
		rs, err := st.Query(sh.params...)
		if err != nil {
			t.Fatalf("%s: %v", sh.id, err)
		}
		if !bytes.Equal(st.last.defs, defs) || !reflect.DeepEqual(rs.Columns, names) {
			t.Errorf("%s: prepared columns %v, the execute's %v (definitions equal: %v)",
				sh.id, names, rs.Columns, bytes.Equal(st.last.defs, defs))
		}
		st.Close()
	}
	st, err := c.Prepare("UPDATE Item SET i_stock = ? WHERE i_id = ?")
	if err != nil || st.last.names != nil {
		t.Fatalf("a prepared UPDATE describes columns %v (err %v)", st.last.names, err)
	}
}

// TestPrepareReportsCompileErrors: a SELECT naming an unknown table or column
// fails at COM_STMT_PREPARE with the code its first execute used to return,
// and no statement is registered. A write still binds at execute.
func TestPrepareReportsCompileErrors(t *testing.T) {
	env := startServer(t, Config{})
	c := env.dial(t, "hier")
	for sql, code := range map[string]uint16{
		"SELECT * FROM Nope WHERE x = ?":                                   errUnknownTable,
		"SELECT Nope FROM Root":                                            errUnknownCol,
		"SELECT * FROM Root r, Leaf l WHERE r.RID = l.Nope AND l.LVal = ?": errUnknownCol,
		"SELECT t.RVal FROM (SELECT RID FROM Root) t":                      errUnknownCol,
		"SELECT * FROM Root r WHERE q.RID = ?":                             errUnknownTable,
	} {
		_, err := c.Prepare(sql)
		var me *MySQLError
		if !errors.As(err, &me) || me.Code != code {
			t.Errorf("PREPARE %s: %v, want error %d", sql, err, code)
		}
	}
	if n, err := c.SysVar("synergy_prepared_stmts"); err != nil || n != int64(0) {
		t.Fatalf("%v statements registered after failed prepares (err %v)", n, err)
	}
	st, err := c.Prepare("INSERT INTO Nonexistent (X) VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	var me *MySQLError
	if err := st.Exec(int64(1)); !errors.As(err, &me) || me.Code != errUnknownTable {
		t.Fatalf("EXECUTE of an INSERT into an unknown table: %v, want error %d", err, errUnknownTable)
	}
}

// TestPreparedSurvivesBackendSwitch: a statement prepared and executed on one
// backend keeps working after SET synergy_mode moves the connection — to an
// MVCC backend, to one deployed without views, where the view rewrite
// differs, and back — and on each returns what a statement prepared there
// afresh returns: the same columns and the same rows.
func TestPreparedSurvivesBackendSwitch(t *testing.T) {
	c := serveBackends(t,
		Backend{Name: "hier", System: deploySystem(t, synergy.Config{})},
		Backend{Name: "base", System: deploySystem(t, synergy.Config{DisableViews: true})},
		Backend{Name: "mvcc", System: deploySystem(t, synergy.Config{Concurrency: synergy.MVCC})},
	)
	cases := []struct {
		sql string
		arg schema.Value
	}{
		{testSelect, "l2"},
		{"SELECT RVal FROM Root WHERE RID = ?", int64(3)},
		{"SELECT l.LID, r.RVal FROM Root r, Leaf l WHERE r.RID = l.L_RID AND r.RID >= ? ORDER BY l.LID DESC", int64(2)},
	}
	stmts := make([]*ClientStmt, len(cases))
	for i, tc := range cases {
		st, err := c.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Query(tc.arg); err != nil {
			t.Fatal(err)
		}
		stmts[i] = st
	}
	for _, mode := range []string{"base", "mvcc", "base", "hier"} {
		if err := c.Exec(fmt.Sprintf("SET synergy_mode = '%s'", mode)); err != nil {
			t.Fatal(err)
		}
		for i, tc := range cases {
			fresh, err := c.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(tc.arg)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Close()
			for run := 0; run < 2; run++ {
				got, err := stmts[i].Query(tc.arg)
				if err != nil {
					t.Fatalf("%s, %s, run %d: %v", mode, tc.sql, run, err)
				}
				if len(want.Rows) == 0 || !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s, %s, run %d:\n prepared before the switch %v %v\n prepared afresh           %v %v",
						mode, tc.sql, run, got.Columns, got.Rows, want.Columns, want.Rows)
				}
			}
		}
	}
}

// TestPreparedParamsSurviveTxn runs prepared INSERTs inside one BEGIN…COMMIT,
// on every backend, and reads every row back after COMMIT — and, where the
// deployment has a transaction layer, every statement's parameters from the
// WAL record COMMIT wrote. An open transaction keeps every statement's params
// until it commits, so no later execute may write an earlier one's: not its
// window of the connection's parameter block, and not the bytes of its string
// parameters. Two Root inserts check the strings: the second string is the
// longer while both EXECUTE packets are shorter than the PREPARE's, so a
// string left in the connection's input buffer would be overwritten by the
// second packet. Then 24 Leaf inserts bind an int, a float and a string each,
// 72 parameters more than one block of paramBlockLen holds, so the
// transaction's parameters span two blocks. The ints are above 255 (Go boxes
// smaller ones without allocating); the floats are integral, as an INT column
// takes them.
func TestPreparedParamsSurviveTxn(t *testing.T) {
	env := startServer(t, Config{})
	for i, mode := range []string{"hier", "mvcc", "occ"} {
		t.Run(mode, func(t *testing.T) {
			c := env.dial(t, mode)
			st, err := c.Prepare("INSERT INTO Root (RID, RVal) VALUES (?, ?)")
			if err != nil {
				t.Fatal(err)
			}
			leaf, err := c.Prepare("INSERT INTO Leaf (LID, L_RID, LVal) VALUES (?, ?, ?)")
			if err != nil {
				t.Fatal(err)
			}
			rows := []struct {
				rid int64
				val string
			}{
				{int64(1000 + 10*i), "v1-" + mode},
				{int64(1001 + 10*i), "v2-" + mode + "-long"},
			}
			type leafRow struct {
				lid  int64
				root float64
				val  string
			}
			var leaves []leafRow
			for k := range 24 {
				leaves = append(leaves, leafRow{int64(1000 + 100*i + k), float64(1 + k%4), fmt.Sprintf("leaf-%s-%02d%s", mode, k, strings.Repeat("x", k%5))})
			}
			if 3*len(leaves) <= paramBlockLen {
				t.Fatalf("%d parameters fit one block of %d", 3*len(leaves), paramBlockLen)
			}
			if err := c.Begin(); err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if err := st.Exec(r.rid, r.val); err != nil {
					t.Fatal(err)
				}
			}
			for _, l := range leaves {
				if err := leaf.Exec(l.lid, l.root, l.val); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Commit(); err != nil {
				t.Fatal(err)
			}
			read, err := c.Prepare("SELECT RVal FROM Root WHERE RID = ?")
			if err != nil {
				t.Fatal(err)
			}
			logs := env.systems[mode].Txn != nil
			wal := walText(t, env.systems[mode])
			for _, r := range rows {
				rs, err := read.Query(r.rid)
				if err != nil {
					t.Fatal(err)
				}
				if len(rs.Rows) != 1 || rs.Rows[0]["RVal"] != r.val {
					t.Fatalf("RID %d after COMMIT: %v, want RVal %q", r.rid, rs.Rows, r.val)
				}
				logged := fmt.Sprintf(`"params":[{"t":"i","v":"%d"},{"t":"s","v":%q}]`, r.rid, r.val)
				if logs && !strings.Contains(wal, logged) {
					t.Fatalf("the WAL holds no statement with %s:\n%s", logged, wal)
				}
			}
			readLeaf, err := c.Prepare("SELECT L_RID, LVal FROM Leaf WHERE LID = ?")
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range leaves {
				rs, err := readLeaf.Query(l.lid)
				if err != nil {
					t.Fatal(err)
				}
				if len(rs.Rows) != 1 || rs.Rows[0]["L_RID"] != int64(l.root) || rs.Rows[0]["LVal"] != l.val {
					t.Fatalf("LID %d after COMMIT: %v, want L_RID %d and LVal %q", l.lid, rs.Rows, int64(l.root), l.val)
				}
				logged := fmt.Sprintf(`"params":[{"t":"i","v":"%d"},{"t":"f","v":"%g"},{"t":"s","v":%q}]`, l.lid, l.root, l.val)
				if logs && !strings.Contains(wal, logged) {
					t.Fatalf("the WAL holds no statement with %s:\n%s", logged, wal)
				}
			}
		})
	}
}

// walText is every transaction-layer slave's WAL of sys, concatenated.
func walText(t *testing.T, sys *synergy.System) string {
	t.Helper()
	if sys.Txn == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range sys.Txn.Slaves() {
		data, err := sys.FS.ReadAll(sim.NewCtx(), "/synergy/wal/"+s.ID+".log")
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.String()
}
