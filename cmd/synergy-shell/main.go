// Command synergy-shell is an interactive SQL shell against a Synergy
// deployment of the Company example schema (Figure 2), pre-loaded with a
// small dataset. It shows the design (rooted trees, selected views,
// rewrites) and executes ad-hoc statements on one synergy.Session, printing
// the simulated response time of each.
//
// Usage:
//
//	synergy-shell
//	> SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID and e.EID = 3
//	> BEGIN
//	> INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (3, 3, 12)
//	> COMMIT
//	> \design
//	> \quit
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

func main() {
	sys, err := deploy()
	if err != nil {
		fmt.Fprintln(os.Stderr, "synergy-shell:", err)
		os.Exit(1)
	}
	fmt.Println("Synergy shell — Company schema (Figure 2). \\design shows the design, \\quit exits.")
	sess := sys.NewSession()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\design`:
			fmt.Println(sys.Design.Summary())
		default:
			execute(sess, line)
		}
		fmt.Print("> ")
	}
}

func execute(sess *synergy.Session, line string) {
	ctx := sim.NewCtx()
	done, err := run(ctx, sess, line)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s in %v (simulated)\n", done, ctx.Elapsed())
}

// run executes one line on the session — transaction control or a SQL
// statement — and says what it did.
func run(ctx *sim.Ctx, sess *synergy.Session, line string) (string, error) {
	switch strings.ToUpper(strings.TrimSuffix(line, ";")) {
	case "BEGIN":
		return "ok", sess.Begin(ctx)
	case "COMMIT":
		return "ok", sess.Commit(ctx)
	case "ROLLBACK":
		return "ok", sess.Rollback(ctx)
	}
	stmt, err := sqlparser.Parse(line)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return "ok", sess.Exec(ctx, stmt, nil)
	}
	rs, err := sess.Query(ctx, sel, nil)
	if err != nil {
		return "", err
	}
	printRows(rs.Columns, rs.Rows)
	return fmt.Sprintf("%d row(s)", len(rs.Rows)), nil
}

func printRows(cols []string, rows []schema.Row) {
	if len(rows) == 0 {
		return
	}
	if len(cols) == 0 {
		for c := range rows[0] {
			cols = append(cols, c)
		}
		sort.Strings(cols)
	}
	fmt.Println(strings.Join(cols, "\t"))
	max := len(rows)
	if max > 25 {
		max = 25
	}
	for _, r := range rows[:max] {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = fmt.Sprintf("%v", r[c])
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	if len(rows) > max {
		fmt.Printf("... (%d more)\n", len(rows)-max)
	}
}

func deploy() (*synergy.System, error) {
	workload := append(schema.CompanyWorkload(), "UPDATE Employee SET EName = ? WHERE EID = ?")
	sys, err := synergy.New(schema.Company(), schema.CompanyRoots(), workload, synergy.Config{})
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
