package server

import (
	"database/sql"
	"fmt"
	"strings"
	"testing"
	"time"
)

// rowsOpenBound is how long TestCommandRefusedWhileRowsOpen's body may take.
// A client that sends a command while rows are unread reads the rows as the
// command's response and then waits for one that never comes.
const rowsOpenBound = 10 * time.Second

// refusedWhileRowsOpen reports whether err is the client's refusal of a
// command sent while a result set is streaming.
func refusedWhileRowsOpen(err error) bool {
	return err != nil && strings.Contains(err.Error(), "result set is still streaming")
}

// TestCommandRefusedWhileRowsOpen sends commands while a result set is still
// streaming, on a raw Client and inside a database/sql Tx's rows.Next loop (a
// common Go idiom). Each command must be refused with an error naming the
// cause, and the open rows must stay intact: all four of Leaf's rows, no
// error, and then a working statement and COMMIT on the same connection. The
// body runs under its own deadline, so a client that sends the command anyway
// fails the test rather than hanging it.
func TestCommandRefusedWhileRowsOpen(t *testing.T) {
	env := startServer(t, Config{})
	for _, tc := range []struct {
		name string
		body func(addr string) error
	}{
		{"client", rowsOpenClient},
		{"database-sql", rowsOpenTx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The body reports through the channel, never through t: at its
			// deadline the test ends while the body may still be blocked.
			done := make(chan error, 1)
			go func() { done <- tc.body(env.addr) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(rowsOpenBound):
				t.Fatalf("a command sent while rows were open hung the connection (%v)", rowsOpenBound)
			}
		})
	}
}

// rowsOpenClient drives the refusal through a raw Client: every command kind
// while one of four rows has been read.
func rowsOpenClient(addr string) error {
	c, err := Dial("inproc", addr, "test", "hier")
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Prepare("UPDATE Root SET RVal = ? WHERE RID = ?")
	if err != nil {
		return err
	}
	rows, err := c.QueryStream("SELECT * FROM Leaf")
	if err != nil {
		return err
	}
	if !rows.Next() {
		return fmt.Errorf("no first row: %v", rows.Err())
	}
	for name, send := range map[string]func() error{
		"Exec":        func() error { return c.Exec("UPDATE Root SET RVal = 'x' WHERE RID = 1") },
		"Ping":        c.Ping,
		"Query":       func() error { _, err := c.Query("SELECT @@version"); return err },
		"QueryStream": func() error { _, err := c.QueryStream("SELECT * FROM Root"); return err },
		"Prepare":     func() error { _, err := c.Prepare("SELECT * FROM Root"); return err },
		"Stmt.Exec":   func() error { return st.Exec("x", int64(1)) },
		"Stmt.Close":  st.Close,
	} {
		if err := send(); !refusedWhileRowsOpen(err) {
			return fmt.Errorf("%s with rows open: got %v, want the refusal", name, err)
		}
	}
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n != 4 {
		return fmt.Errorf("open rows after the refusals: %d rows (err %v), want 4", n, err)
	}
	if err := st.Exec("after", int64(1)); err != nil {
		return fmt.Errorf("statement after the rows: %v", err)
	}
	rs, err := c.Query("SELECT RVal FROM Root WHERE RID = 1")
	if err != nil {
		return fmt.Errorf("query after the rows: %v", err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0]["RVal"] != "after" {
		return fmt.Errorf("query after the rows: %v, want RVal after", rs.Rows)
	}
	return st.Close()
}

// rowsOpenTx drives it through database/sql: tx.Exec inside rows.Next.
func rowsOpenTx(addr string) error {
	db, err := sql.Open("synergy", fmt.Sprintf("app@inproc(%s)?mode=hier", addr))
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	rows, err := tx.Query("SELECT LID FROM Leaf")
	if err != nil {
		return err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
		if n == 1 {
			_, err := tx.Exec("UPDATE Root SET RVal = ? WHERE RID = ?", "in-loop", int64(2))
			if !refusedWhileRowsOpen(err) {
				return fmt.Errorf("tx.Exec with rows open: got %v, want the refusal", err)
			}
		}
	}
	if err := rows.Err(); err != nil || n != 4 {
		return fmt.Errorf("open rows after the refusal: %d rows (err %v), want 4", n, err)
	}
	var val string
	if err := tx.QueryRow("SELECT RVal FROM Root WHERE RID = ?", int64(2)).Scan(&val); err != nil {
		return fmt.Errorf("QueryRow after the rows: %v", err)
	}
	if val != "r2" {
		return fmt.Errorf("QueryRow after the rows: RVal %q, want r2", val)
	}
	return tx.Commit()
}
