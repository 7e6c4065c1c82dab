// Command synergy-shell is an interactive SQL shell against a Synergy
// deployment of the Company example schema (Figure 2), pre-loaded with
// schema.CompanySample. It shows the design (rooted trees, selected views,
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
	for _, t := range schema.CompanySample() {
		if err := sys.LoadBase(t.Table, t.Rows); err != nil {
			return nil, err
		}
	}
	if err := sys.BuildViews(); err != nil {
		return nil, err
	}
	return sys, nil
}
