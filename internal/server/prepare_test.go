package server

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"synergy/internal/schema"
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
