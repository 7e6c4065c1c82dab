// Bookstore: the TPC-W online bookstore on the Synergy public API.
//
// Deploys the full TPC-W schema (the workload the paper's introduction
// motivates), loads a generated database, and drives a browsing-and-buying
// session: best sellers, book detail, cart manipulation, order placement —
// printing the simulated response time of every interaction.
//
//	go run ./examples/bookstore
package main

import (
	"fmt"
	"log"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

func main() {
	const customers = 200
	fmt.Printf("deploying Synergy over TPC-W (%d customers, %d items)...\n\n",
		customers, 10*customers)

	sys, err := synergy.New(tpcw.Schema(), tpcw.Roots(), tpcw.WorkloadSQL(), synergy.Config{
		BaseIndexes: tpcw.BaseIndexes(),
	})
	if err != nil {
		log.Fatal(err)
	}
	data := tpcw.Generate(customers, 2024)
	for _, table := range data.TableNames() {
		if err := sys.LoadBase(table, data.Tables[table]); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("materialized views:")
	for _, v := range sys.Design.Views {
		fmt.Printf("  %s\n", v.DisplayName())
	}
	fmt.Println()

	sess := sys.NewSession()
	run := func(label, sql string, params ...schema.Value) {
		ctx := sim.NewCtx()
		stmt := sqlparser.MustParse(sql)
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			rs, err := sess.Query(ctx, sel, params)
			if err != nil {
				log.Fatalf("%s: %v", label, err)
			}
			fmt.Printf("%-28s %4d row(s) in %10v\n", label, len(rs.Rows), ctx.Elapsed())
			return
		}
		if err := sess.Exec(ctx, stmt, params); err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-28s %15s in %10v (locks: %d)\n", label, "ok", ctx.Elapsed(), ctx.Snapshot().Locks)
	}

	// A browsing session.
	q4, _ := tpcw.StatementByID("Q4")
	run("browse subject (Q4)", q4.SQL, "HISTORY")
	q6, _ := tpcw.StatementByID("Q6")
	run("book detail (Q6)", q6.SQL, int64(17))
	q10, _ := tpcw.StatementByID("Q10")
	run("best sellers (Q10)", q10.SQL, "COMPUTERS")

	// Cart.
	cartID := data.NextCartID()
	run("new cart (W6)", "INSERT INTO Shopping_cart (sc_id, sc_time) VALUES (?, ?)", cartID, int64(19500))
	run("add to cart (W7)", "INSERT INTO Shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?)",
		cartID, int64(17), int64(2))
	q8, _ := tpcw.StatementByID("Q8")
	run("view cart (Q8)", q8.SQL, cartID)

	// Checkout: order + line + payment + customer update.
	orderID := data.NextOrderID()
	run("place order (W1)", `INSERT INTO Orders (o_id, o_c_id, o_date, o_sub_total, o_tax, o_total,
		o_ship_type, o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		orderID, int64(5), int64(19800), 29.99, 2.47, 32.46, "AIR", int64(19805), int64(9), int64(9), "PENDING")
	run("order line (W3)", "INSERT INTO Order_line (ol_o_id, ol_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (?, ?, ?, ?, ?, ?)",
		orderID, int64(1), int64(17), int64(2), 0.0, "gift wrap")
	run("payment (W2)", `INSERT INTO CC_Xacts (cx_o_id, cx_type, cx_num, cx_name, cx_expire,
		cx_auth_id, cx_xact_amt, cx_xact_date, cx_co_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		orderID, "VISA", "4111111111111111", "PAT DOE", int64(21000), "AUTH0987654321", 32.46, int64(19800), int64(1))
	run("buy confirm (W13)", "UPDATE Customer SET c_balance = ?, c_ytd_pmt = ?, c_last_login = ?, c_login = ? WHERE c_id = ?",
		-32.46, 132.46, int64(19800), int64(3), int64(5))

	// The new order is visible through the Customer-Orders view.
	q2, _ := tpcw.StatementByID("Q2")
	run("latest order (Q2)", q2.SQL, tpcw.Uname(5))
	q1, _ := tpcw.StatementByID("Q1")
	run("order contents (Q1)", q1.SQL, orderID)

	fmt.Printf("\ndatabase size: %.1f MB across %d NoSQL tables\n",
		float64(sys.DatabaseBytes())/1e6, len(sys.Store.Tables()))
}
