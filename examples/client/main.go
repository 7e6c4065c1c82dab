// Command client is the runnable serving-layer example: it connects to a
// Synergy wire server through the standard library's database/sql with the
// "synergy" driver and a mysql-style DSN, and runs a multi-statement
// transaction — BEGIN, a placeholder INSERT, a SELECT that reads the
// transaction's own write, COMMIT — in each of the three concurrency modes.
//
// By default it is self-contained: it deploys the Company schema in process
// (one system per mode) and serves it over an in-process listener. Point
// -dsn at a running synergy-server to go over TCP instead:
//
//	go run ./examples/client
//	go run ./examples/client -dsn 'app@tcp(127.0.0.1:4306)'
//
// The DSN's mode parameter picks the backend, e.g.
// "app@inproc(example)?mode=occ&reads=watermark".
package main

import (
	"database/sql"
	"fmt"
	"os"

	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/synergy"
)

func main() {
	base := ""
	if len(os.Args) > 2 && os.Args[1] == "-dsn" {
		base = os.Args[2]
	}
	if err := run(base); err != nil {
		fmt.Fprintln(os.Stderr, "client:", err)
		os.Exit(1)
	}
}

func run(base string) error {
	if base == "" {
		var err error
		if base, err = startStandalone(); err != nil {
			return err
		}
		fmt.Println("serving Company schema in process (no -dsn given)")
	}
	for i, mode := range []string{"hierarchical", "mvcc", "occ"} {
		if err := demo(fmt.Sprintf("%s?mode=%s&reads=stale", base, mode), mode, int64(100+i)); err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
	}
	return nil
}

// demo runs one multi-statement transaction through database/sql.
func demo(dsnStr, mode string, hours int64) error {
	db, err := sql.Open("synergy", dsnStr)
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetMaxOpenConns(1) // the wire session is stateful

	fmt.Printf("\n== %s (%s)\n", mode, dsnStr)
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	// A placeholder write: employee 3 joins project 3 at a distinctive
	// hours value so the read below finds exactly this row.
	if _, err := tx.Exec("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)",
		int64(3), int64(3), hours); err != nil {
		tx.Rollback()
		return err
	}
	// W3 of the Company workload, reading the transaction's own write.
	rows, err := tx.Query("SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID and wo.Hours = ?", hours)
	if err != nil {
		tx.Rollback()
		return err
	}
	cols, _ := rows.Columns()
	n := 0
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			rows.Close()
			tx.Rollback()
			return err
		}
		fmt.Printf("  row: ")
		for i, c := range cols {
			fmt.Printf("%s=%v ", c, vals[i])
		}
		fmt.Println()
		n++
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Printf("  committed; in-transaction read saw %d row(s) including the uncommitted insert\n", n)

	// The session's accumulated simulated cost, via the charge-free
	// introspection variable.
	var micros int64
	if err := db.QueryRow("SELECT @@synergy_sim_micros").Scan(&micros); err != nil {
		return err
	}
	fmt.Printf("  session simulated cost so far: %d us\n", micros)
	return nil
}

// startStandalone deploys the Company schema per mode and serves it over an
// in-process listener, returning the base DSN.
func startStandalone() (string, error) {
	var backends []server.Backend
	for _, m := range []struct {
		name string
		mode synergy.ConcurrencyMode
	}{
		{"hierarchical", synergy.Hierarchical},
		{"mvcc", synergy.MVCC},
		{"occ", synergy.OCC},
	} {
		sys, err := deploy(m.mode)
		if err != nil {
			return "", err
		}
		backends = append(backends, server.Backend{Name: m.name, System: sys})
	}
	srv, err := server.New(server.Config{Backends: backends, Default: "hierarchical"})
	if err != nil {
		return "", err
	}
	l, err := server.ListenInproc("example")
	if err != nil {
		return "", err
	}
	go srv.Serve(l)
	return "app@inproc(example)", nil
}

// deploy stands up one Company-schema system with the shell's dataset.
func deploy(mode synergy.ConcurrencyMode) (*synergy.System, error) {
	workload := append(schema.CompanyWorkload(), "UPDATE Employee SET EName = ? WHERE EID = ?")
	cfg := synergy.Config{Concurrency: mode}
	if mode != synergy.Hierarchical {
		cfg.MaxVersions = 16
	}
	sys, err := synergy.New(schema.Company(), schema.CompanyRoots(), workload, cfg)
	if err != nil {
		return nil, err
	}
	var addresses, departments, employees, projects, worksOn []schema.Row
	for a := int64(1); a <= 8; a++ {
		addresses = append(addresses, schema.Row{"AID": a, "Street": fmt.Sprintf("%d Main St", a), "City": "Nashville", "Zip": fmt.Sprintf("%05d", 37000+a)})
	}
	for d := int64(1); d <= 3; d++ {
		departments = append(departments, schema.Row{"DNo": d, "DName": fmt.Sprintf("dept-%d", d)})
	}
	for e := int64(1); e <= 12; e++ {
		employees = append(employees, schema.Row{
			"EID": e, "EName": fmt.Sprintf("employee-%d", e),
			"EHome_AID": (e % 8) + 1, "EOffice_AID": ((e + 3) % 8) + 1, "E_DNo": (e % 3) + 1,
		})
	}
	for p := int64(1); p <= 4; p++ {
		projects = append(projects, schema.Row{"PNo": p, "PName": fmt.Sprintf("project-%d", p), "P_DNo": (p % 3) + 1})
	}
	for e := int64(1); e <= 12; e++ {
		for p := int64(1); p <= 2; p++ {
			worksOn = append(worksOn, schema.Row{"WO_EID": e, "WO_PNo": p, "Hours": e*5 + p})
		}
	}
	for table, rows := range map[string][]schema.Row{
		"Address": addresses, "Department": departments, "Employee": employees,
		"Project": projects, "Works_On": worksOn,
	} {
		if err := sys.LoadBase(table, rows); err != nil {
			return nil, err
		}
	}
	if err := sys.BuildViews(); err != nil {
		return nil, err
	}
	return sys, nil
}
