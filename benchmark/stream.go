package main

import (
	"bytes"
	"fmt"

	"synergy/internal/core"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

// Statement classes. Latencies and per-layer medians are kept per class so
// a 0.1 ms point read and an 80 ms best-seller join never share a median.
const (
	classPoint = "point" // single-table read answered by a get or a short index probe
	classJoin  = "join"  // Q1-Q11
	classScan  = "scan"  // reads whose cost is a table scan
	classWrite = "write"
)

// stmtDef is one statement text of a workload. Every connection prepares
// each def once (text defs go over COM_QUERY instead and carry no params).
type stmtDef struct {
	id    string
	sql   string
	class string
	text  bool
}

// readback names the row and column a write leaves behind, so the checks
// can read it back after the run. col == "" means the row must be gone.
type readback struct {
	table string
	key   []schema.Value
	col   string
	want  schema.Value
}

// op is one generated statement: a def plus its parameters.
type op struct {
	def    int
	params []schema.Value
	// wantRows is the result's known cardinality, -1 when it depends on
	// what the other connection wrote meanwhile.
	wantRows int
	// root and rootKey are the lock root a write falls under, resolved
	// through Design.LockChain over the generated data; root is "" for
	// relations outside every rooted tree.
	root    string
	rootKey int64
	back    *readback
}

// unit is what a connection executes without interleaving anything else: an
// autocommit statement, or a BEGIN..COMMIT transaction.
type unit struct {
	name string
	txn  bool
	ops  []op
}

// statements counts the wire statements of the unit, BEGIN/COMMIT included.
func (u *unit) statements() int {
	if u.txn {
		return len(u.ops) + 2
	}
	return len(u.ops)
}

// stream is the complete input of one run: the statement texts and, per
// connection, the units it will execute in order. It is generated up front,
// single-threaded, from the seed alone; the engine only ever sees the SQL
// and parameters in it.
type stream struct {
	defs  []stmtDef
	conns [][]unit
	// deckLen is the number of units in one deck: every deckLen consecutive
	// units of a connection hold the workload's mix exactly.
	deckLen int
}

// encode renders one connection's stream as bytes, for the determinism test.
func (s *stream) encode(w int) []byte {
	var b bytes.Buffer
	for _, u := range s.conns[w] {
		fmt.Fprintf(&b, "%s txn=%v\n", u.name, u.txn)
		for _, o := range u.ops {
			fmt.Fprintf(&b, " %s %v rows=%d root=%s/%d\n", s.defs[o.def].id, o.params, o.wantRows, o.root, o.rootKey)
		}
	}
	return b.Bytes()
}

// mixEntry is one line of a workload's mix: a unit generator and how many
// times it appears in every deck. The stream is a sequence of shuffled
// decks, so the mix holds exactly over every deck-length window and only
// the order and the parameters vary with the seed — a run that cuts the
// stream anywhere sees the documented shares to within one deck.
type mixEntry struct {
	name  string
	count int
	make  func(g *gen, w int, rng *sim.RNG) unit
}

// gen holds what the unit generators draw from: the generated data, the
// design (for lock roots), the per-connection write partitions and the
// per-connection fresh-id counters.
type gen struct {
	conns  int
	card   tpcw.Cardinalities
	design *core.Design
	defs   []stmtDef
	defIdx map[string]int

	// parent[table][pk] holds the integer columns of a row, enough to walk
	// any lock chain upward. Rows the stream itself inserts are added as it
	// generates them.
	parent map[string]map[int64]map[string]int64

	// Write partitions: ids whose lock root id % conns == w.
	items     [][]int64 // by author of the item
	customers [][]int64
	countries [][]int64
	carts     [][]int64 // Shopping_cart has no root; partitioned by sc_id
	// Fresh ids, per connection.
	nextOrder, nextCust, nextAddr, nextCart []int64

	// overlap lifts the rule that a connection only writes under its own
	// roots; only the contention probe sets it.
	overlap bool

	// scan workload
	scanRows     int
	scanDiscount float64
	scanMatches  int // rows with c_discount > scanDiscount
	scanGroups   int // distinct c_birthdate values
}

func (g *gen) def(id string) int {
	i, ok := g.defIdx[id]
	if !ok {
		panic("benchmark: unknown statement " + id)
	}
	return i
}

func (g *gen) addDef(d stmtDef) {
	g.defIdx[d.id] = len(g.defs)
	g.defs = append(g.defs, d)
}

// lockRoot resolves the root relation and root row id that a write to row
// (its integer columns) of table must lock, by walking Design.LockChain
// child foreign key -> parent primary key, exactly as the engine's
// resolveRootKey does at run time.
func (g *gen) lockRoot(table string, row map[string]int64) (string, int64) {
	root, ok := g.design.RootOf(table)
	if !ok || root == "" {
		return "", 0
	}
	chain, ok := g.design.LockChain(table)
	if !ok {
		return "", 0
	}
	if len(chain) == 0 {
		return root, row[g.design.Schema.Relation(table).PK[0]]
	}
	cur := row
	for i := len(chain) - 1; i >= 0; i-- {
		fk := cur[chain[i].FK[0]]
		if i == 0 {
			return root, fk
		}
		cur, ok = g.parent[chain[i].Parent][fk]
		if !ok {
			panic(fmt.Sprintf("benchmark: %s row %d missing while resolving the lock root of %s", chain[i].Parent, fk, table))
		}
	}
	return root, 0
}

// write builds a write op and stamps its lock root. row carries the integer
// columns of the written row (for UPDATE/DELETE: of the row as stored).
func (g *gen) write(w int, id, table string, row map[string]int64, back *readback, params ...schema.Value) op {
	root, key := g.lockRoot(table, row)
	if root != "" && int(key%int64(g.conns)) != w && !g.overlap {
		panic(fmt.Sprintf("benchmark: %s on connection %d falls under %s/%d, another connection's root", id, w, root, key))
	}
	return op{def: g.def(id), params: params, wantRows: -1, root: root, rootKey: key, back: back}
}

func (g *gen) read(id string, wantRows int, params ...schema.Value) op {
	return op{def: g.def(id), params: params, wantRows: wantRows}
}

func single(name string, o op) unit { return unit{name: name, ops: []op{o}} }

func pick(rng *sim.RNG, ids []int64) int64 { return ids[rng.Intn(len(ids))] }

// freshID hands out the next id above the loaded range with id % conns == w.
func (g *gen) freshID(next []int64, w int) int64 {
	id := next[w]
	next[w] += int64(g.conns)
	return id
}

func firstFresh(base int64, conns, w int) int64 {
	id := base + 1
	for int(id%int64(conns)) != w {
		id++
	}
	return id
}

// --------------------------------------------------------------------------
// TPC-W generators

// newTPCWGen indexes the generated database for the unit generators.
func newTPCWGen(data *tpcw.Data, conns int) (*gen, error) {
	w, err := core.ParseWorkload(tpcw.WorkloadSQL())
	if err != nil {
		return nil, err
	}
	design, err := core.BuildDesign(tpcw.Schema(), tpcw.Roots(), w)
	if err != nil {
		return nil, err
	}
	g := &gen{conns: conns, card: data.Card, design: design, defIdx: map[string]int{},
		parent: map[string]map[int64]map[string]int64{}}
	for _, st := range tpcw.AllStatements() {
		class := classWrite
		switch st.Kind {
		case tpcw.KindJoin:
			class = classJoin
		case tpcw.KindRead:
			class = classPoint
		}
		g.addDef(stmtDef{id: st.ID, sql: st.SQL, class: class})
	}

	// Integer columns of every relation that is a parent on some lock
	// chain, keyed by primary key.
	for _, t := range []string{"Item", "Orders", "Address"} {
		rel := design.Schema.Relation(t)
		idx := make(map[int64]map[string]int64, len(data.Tables[t]))
		for _, r := range data.Tables[t] {
			ints := map[string]int64{}
			for _, fk := range rel.FKs {
				ints[fk.Cols[0]] = r[fk.Cols[0]].(int64)
			}
			idx[r[rel.PK[0]].(int64)] = ints
		}
		g.parent[t] = idx
	}

	g.items = make([][]int64, conns)
	for i := int64(1); i <= int64(data.Card.Items); i++ {
		_, a := g.lockRoot("Item", map[string]int64{"i_id": i, "i_a_id": g.parent["Item"][i]["i_a_id"]})
		g.items[a%int64(conns)] = append(g.items[a%int64(conns)], i)
	}
	byMod := func(n int) [][]int64 {
		out := make([][]int64, conns)
		for i := int64(1); i <= int64(n); i++ {
			out[i%int64(conns)] = append(out[i%int64(conns)], i)
		}
		return out
	}
	g.customers = byMod(data.Card.Customers)
	g.countries = byMod(data.Card.Countries)
	g.carts = byMod(data.Card.Carts)
	for w := 0; w < conns; w++ {
		g.nextOrder = append(g.nextOrder, firstFresh(int64(data.Card.Orders), conns, w))
		g.nextCust = append(g.nextCust, firstFresh(int64(data.Card.Customers), conns, w))
		g.nextAddr = append(g.nextAddr, firstFresh(int64(data.Card.Addresses), conns, w))
		g.nextCart = append(g.nextCart, firstFresh(int64(data.Card.Carts), conns, w))
	}
	return g, nil
}

func (g *gen) anyCust(rng *sim.RNG) int64  { return int64(rng.IntRange(1, g.card.Customers)) }
func (g *gen) anyItem(rng *sim.RNG) int64  { return int64(rng.IntRange(1, g.card.Items)) }
func (g *gen) anyOrder(rng *sim.RNG) int64 { return int64(rng.IntRange(1, g.card.Orders)) }
func (g *gen) anyCart(rng *sim.RNG) int64  { return int64(rng.IntRange(1, g.card.Carts)) }
func anySubject(rng *sim.RNG) string       { return tpcw.Subjects[rng.Intn(len(tpcw.Subjects))] }

// Reads draw from the whole loaded key space, so they meet the other
// connection's dirty marks and snapshots. The cardinalities are the known
// ones of the issue: R1/R2/Q3/Q6/Q7 return one row, R4 the 92 countries.
func (g *gen) tpcwRead(id string, rng *sim.RNG) op {
	switch id {
	case "Q1", "Q7":
		want := -1
		if id == "Q7" {
			want = 1
		}
		return g.read(id, want, g.anyOrder(rng))
	case "Q2":
		return g.read(id, -1, tpcw.Uname(g.anyCust(rng)))
	case "Q3", "R2":
		return g.read(id, 1, tpcw.Uname(g.anyCust(rng)))
	case "Q4", "Q5", "Q10":
		return g.read(id, -1, anySubject(rng))
	case "Q6", "R1":
		return g.read(id, 1, g.anyItem(rng))
	case "Q9":
		return g.read(id, -1, g.anyItem(rng))
	case "Q8", "R3":
		return g.read(id, -1, g.anyCart(rng))
	case "Q11":
		i := g.anyItem(rng)
		return g.read(id, -1, i, i)
	case "R4":
		return g.read(id, 92)
	}
	panic("benchmark: no read generator for " + id)
}

func readEntry(id string, count int) mixEntry {
	return mixEntry{name: id, count: count, make: func(g *gen, w int, rng *sim.RNG) unit {
		return single(id, g.tpcwRead(id, rng))
	}}
}

func money(rng *sim.RNG) float64 { return float64(rng.IntRange(1000, 99999)) / 100 }

func (g *gen) w1(w int, rng *sim.RNG, oid, cid int64) op {
	sub := money(rng)
	g.parent["Orders"][oid] = map[string]int64{"o_c_id": cid}
	return g.write(w, "W1", "Orders", map[string]int64{"o_id": oid, "o_c_id": cid},
		&readback{"Orders", []schema.Value{oid}, "o_c_id", cid},
		oid, cid, int64(rng.IntRange(19000, 20000)), sub, sub*0.0825, sub*1.0825, "AIR",
		int64(rng.IntRange(19000, 20100)), int64(rng.IntRange(1, g.card.Addresses)),
		int64(rng.IntRange(1, g.card.Addresses)), "PENDING")
}

func (g *gen) w2(w int, rng *sim.RNG, oid int64) op {
	name := rng.String(10, 25)
	return g.write(w, "W2", "CC_Xacts", map[string]int64{"cx_o_id": oid},
		&readback{"CC_Xacts", []schema.Value{oid}, "cx_name", name},
		oid, "VISA", rng.String(16, 16), name, int64(rng.IntRange(20000, 22000)), rng.String(15, 15),
		money(rng), int64(rng.IntRange(19000, 20000)), int64(rng.IntRange(1, g.card.Countries)))
}

func (g *gen) w3(w int, rng *sim.RNG, oid, line, item int64) op {
	qty := int64(rng.IntRange(1, 10))
	return g.write(w, "W3", "Order_line", map[string]int64{"ol_o_id": oid, "ol_i_id": item},
		&readback{"Order_line", []schema.Value{oid, line}, "ol_qty", qty},
		oid, line, item, qty, float64(rng.IntRange(0, 30))/100, rng.String(20, 50))
}

func (g *gen) w4(w int, rng *sim.RNG, addr int64) op {
	id := g.freshID(g.nextCust, w)
	pass := rng.String(8, 8)
	return g.write(w, "W4", "Customer", map[string]int64{"c_id": id},
		&readback{"Customer", []schema.Value{id}, "c_passwd", pass},
		id, tpcw.Uname(id), pass, rng.String(5, 12), rng.String(5, 14), addr,
		rng.String(10, 12), rng.String(12, 20), int64(19500), int64(19600), int64(0), int64(21000),
		0.1, 0.0, 0.0, int64(1980), rng.String(60, 120))
}

func (g *gen) w5(w int, rng *sim.RNG) (op, int64) {
	id := g.freshID(g.nextAddr, w)
	co := pick(rng, g.countries[w])
	city := rng.String(6, 14)
	return g.write(w, "W5", "Address", map[string]int64{"addr_id": id, "addr_co_id": co},
		&readback{"Address", []schema.Value{id}, "addr_city", city},
		id, rng.String(12, 24), rng.String(0, 12), city, rng.String(2, 2), rng.String(5, 5), co), id
}

func (g *gen) w6(w int, rng *sim.RNG, cart int64) op {
	t := int64(rng.IntRange(19000, 20000))
	return g.write(w, "W6", "Shopping_cart", map[string]int64{"sc_id": cart},
		&readback{"Shopping_cart", []schema.Value{cart}, "sc_time", t}, cart, t)
}

func (g *gen) itemRow(item int64) map[string]int64 {
	return map[string]int64{"i_id": item, "i_a_id": g.parent["Item"][item]["i_a_id"]}
}

func (g *gen) w7(w int, rng *sim.RNG, cart, item int64) op {
	qty := int64(rng.IntRange(1, 5))
	return g.write(w, "W7", "Shopping_cart_line", map[string]int64{"scl_sc_id": cart, "scl_i_id": item},
		&readback{"Shopping_cart_line", []schema.Value{cart, item}, "scl_qty", qty}, cart, item, qty)
}

func (g *gen) w8(w int, cart, item int64) op {
	return g.write(w, "W8", "Shopping_cart_line", map[string]int64{"scl_sc_id": cart, "scl_i_id": item},
		&readback{"Shopping_cart_line", []schema.Value{cart, item}, "", nil}, cart, item)
}

func (g *gen) w9(w int, rng *sim.RNG, item int64) op {
	stock := int64(rng.IntRange(10, 30))
	return g.write(w, "W9", "Item", g.itemRow(item),
		&readback{"Item", []schema.Value{item}, "i_stock", stock}, stock, item)
}

func (g *gen) w11(w int, rng *sim.RNG, cart int64) op {
	t := int64(rng.IntRange(19000, 20000))
	return g.write(w, "W11", "Shopping_cart", map[string]int64{"sc_id": cart},
		&readback{"Shopping_cart", []schema.Value{cart}, "sc_time", t}, t, cart)
}

func (g *gen) w12(w int, rng *sim.RNG, cart, item int64) op {
	qty := int64(rng.IntRange(1, 9))
	return g.write(w, "W12", "Shopping_cart_line", map[string]int64{"scl_sc_id": cart, "scl_i_id": item},
		&readback{"Shopping_cart_line", []schema.Value{cart, item}, "scl_qty", qty}, qty, cart, item)
}

func (g *gen) w13(w int, rng *sim.RNG, cust int64) op {
	login := int64(rng.IntRange(0, 100))
	return g.write(w, "W13", "Customer", map[string]int64{"c_id": cust},
		&readback{"Customer", []schema.Value{cust}, "c_login", login},
		float64(rng.IntRange(-100, 1000)), float64(rng.IntRange(0, 10000))/10,
		int64(rng.IntRange(19000, 20000)), login, cust)
}

// buyConfirm is the TPC-W buy-confirm interaction as one transaction:
// BEGIN; R2; Q8; W1; W3 x3; W2; W9; W13; COMMIT. Customer, order and items
// all sit under this connection's roots.
func buyConfirm(g *gen, w int, rng *sim.RNG) unit {
	items := [3]int64{pick(rng, g.items[w]), pick(rng, g.items[w]), pick(rng, g.items[w])}
	return g.buyConfirmOn(w, rng, pick(rng, g.customers[w]), items)
}

func (g *gen) buyConfirmOn(w int, rng *sim.RNG, cust int64, items [3]int64) unit {
	oid := g.freshID(g.nextOrder, w)
	u := unit{name: "buy-confirm", txn: true}
	u.ops = append(u.ops, g.read("R2", 1, tpcw.Uname(cust)), g.read("Q8", -1, g.anyCart(rng)), g.w1(w, rng, oid, cust))
	for line, item := range items {
		u.ops = append(u.ops, g.w3(w, rng, oid, int64(line+1), item))
	}
	u.ops = append(u.ops, g.w2(w, rng, oid), g.w9(w, rng, items[2]), g.w13(w, rng, cust))
	return u
}

// cartFlow fills and edits a fresh cart in one transaction: W6; W7 x2; W12;
// W11; W8 — the later statements read the transaction's own buffered rows.
func cartFlow(g *gen, w int, rng *sim.RNG) unit {
	cart := g.freshID(g.nextCart, w)
	a := pick(rng, g.items[w])
	b := pick(rng, g.items[w])
	for b == a {
		b = pick(rng, g.items[w])
	}
	return unit{name: "cart", txn: true, ops: []op{
		g.w6(w, rng, cart), g.w7(w, rng, cart, a), g.w7(w, rng, cart, b),
		g.w12(w, rng, cart, a), g.w11(w, rng, cart), g.w8(w, cart, b),
	}}
}

// register creates an address and a customer living there: W5; W4.
func register(g *gen, w int, rng *sim.RNG) unit {
	addr, id := g.w5(w, rng)
	return unit{name: "register", txn: true, ops: []op{addr, g.w4(w, rng, id)}}
}

// browseMix is the TPC-W browsing mix: 70 joins, 24 point reads and 6
// autocommit writes per 100 statements. Join weights follow the browsing
// interactions (product detail and the subject searches most, order
// display least). The weights keep the read p50 inside the 5-13 ms group
// (Q2 Q9 R1 Q7 Q6 Q5 Q4) and the p90 inside the slow group (Q1 Q11 Q10),
// away from the gaps between groups.
func browseMix() []mixEntry {
	return []mixEntry{
		readEntry("Q1", 4), readEntry("Q2", 4), readEntry("Q3", 6), readEntry("Q4", 8),
		readEntry("Q5", 8), readEntry("Q6", 12), readEntry("Q7", 4), readEntry("Q8", 4),
		readEntry("Q9", 8), readEntry("Q10", 8), readEntry("Q11", 4),
		readEntry("R1", 10), readEntry("R2", 6), readEntry("R3", 4), readEntry("R4", 4),
		{name: "W7", count: 2, make: func(g *gen, w int, rng *sim.RNG) unit {
			return single("W7", g.w7(w, rng, pick(rng, g.carts[w]), pick(rng, g.items[w])))
		}},
		{name: "W4", count: 1, make: func(g *gen, w int, rng *sim.RNG) unit {
			return single("W4", g.w4(w, rng, int64(rng.IntRange(1, g.card.Addresses))))
		}},
		{name: "W11", count: 1, make: func(g *gen, w int, rng *sim.RNG) unit {
			return single("W11", g.w11(w, rng, pick(rng, g.carts[w])))
		}},
		{name: "W9", count: 1, make: func(g *gen, w int, rng *sim.RNG) unit {
			return single("W9", g.w9(w, rng, pick(rng, g.items[w])))
		}},
		{name: "W13", count: 1, make: func(g *gen, w int, rng *sim.RNG) unit {
			return single("W13", g.w13(w, rng, pick(rng, g.customers[w])))
		}},
	}
}

// orderMix is the TPC-W ordering mix. A deck holds 3 buy-confirm (11 wire
// statements each), 3 cart (8) and 2 register (4) transactions — 65
// statements inside transactions — beside 65 autocommit reads: half and
// half. Two thirds of the autocommit reads are the sub-millisecond ones
// (R3 Q8 R2), so the read p50 sits inside that group and the p90 inside the
// R1/Q6 group.
func orderMix() []mixEntry {
	return []mixEntry{
		{name: "buy-confirm", count: 3, make: buyConfirm},
		{name: "cart", count: 3, make: cartFlow},
		{name: "register", count: 2, make: register},
		readEntry("R3", 16), readEntry("Q8", 12), readEntry("R2", 16),
		readEntry("R1", 12), readEntry("Q6", 9),
	}
}

// --------------------------------------------------------------------------
// scan generators

// newScanGen prepares the Customer-only scan workload over the generated
// customer rows.
func newScanGen(rows []schema.Row, conns int) (*gen, error) {
	w, err := core.ParseWorkload(nil)
	if err != nil {
		return nil, err
	}
	design, err := core.BuildDesign(customerOnlySchema(), []string{"Customer"}, w)
	if err != nil {
		return nil, err
	}
	g := &gen{conns: conns, design: design, defIdx: map[string]int{}, scanRows: len(rows), scanDiscount: 0.4}
	births := map[int64]bool{}
	for _, r := range rows {
		if r["c_discount"].(float64) > g.scanDiscount {
			g.scanMatches++
		}
		births[r["c_birthdate"].(int64)] = true
	}
	// W4 registers customers born in 1980 with a 0.1 discount: they join an
	// existing group once 1980 is present and never pass the filter.
	births[1980] = true
	g.scanGroups = len(births)
	g.customers = make([][]int64, conns)
	for i := int64(1); i <= int64(len(rows)); i++ {
		g.customers[i%int64(conns)] = append(g.customers[i%int64(conns)], i)
	}
	for w := 0; w < conns; w++ {
		g.nextCust = append(g.nextCust, firstFresh(int64(len(rows)), conns, w))
	}
	for _, id := range []string{"W4", "W13"} {
		st, _ := tpcw.StatementByID(id)
		g.addDef(stmtDef{id: id, sql: st.SQL, class: classWrite})
	}
	g.addDef(stmtDef{id: "S1", sql: "SELECT * FROM Customer", class: classScan, text: true})
	g.addDef(stmtDef{id: "S2", sql: "SELECT c_id, c_uname, c_balance FROM Customer WHERE c_discount > ?", class: classScan})
	g.addDef(stmtDef{id: "S3", sql: "SELECT c_birthdate, COUNT(*) AS n, SUM(c_balance) AS bal FROM Customer GROUP BY c_birthdate", class: classScan})
	g.addDef(stmtDef{id: "S4", sql: "SELECT * FROM Customer WHERE c_id >= ? AND c_id < ?", class: classScan})
	g.addDef(stmtDef{id: "S5", sql: "SELECT c_id, c_uname FROM Customer LIMIT 100", class: classPoint})
	return g, nil
}

// scanRangeRows is the width of an S4 primary-key range.
const scanRangeRows = 1000

// scanMix is one round of the scan workload per deck: a full SELECT * over
// the text protocol, a projected and filtered scan, two GROUP BY
// aggregates (blocking, so materialized before the first row), four
// primary-key ranges of 1,000 rows, two LIMIT 100 and a trickle of writes
// that keeps a live memstore beside the store files. Two aggregates per
// round put the read p90 inside the aggregate group, and the p50 inside
// the group of the six single-pass scans.
func scanMix() []mixEntry {
	limit := func(n int) int {
		if n < scanRangeRows {
			return n
		}
		return scanRangeRows
	}
	return []mixEntry{
		{name: "S1", count: 1, make: func(g *gen, w int, rng *sim.RNG) unit { return single("S1", g.read("S1", -1)) }},
		{name: "S2", count: 1, make: func(g *gen, w int, rng *sim.RNG) unit {
			return single("S2", g.read("S2", g.scanMatches, g.scanDiscount))
		}},
		{name: "S3", count: 2, make: func(g *gen, w int, rng *sim.RNG) unit { return single("S3", g.read("S3", g.scanGroups)) }},
		{name: "S4", count: 4, make: func(g *gen, w int, rng *sim.RNG) unit {
			n := limit(g.scanRows)
			lo := int64(rng.IntRange(1, g.scanRows-n+1))
			return single("S4", g.read("S4", n, lo, lo+int64(n)))
		}},
		{name: "S5", count: 2, make: func(g *gen, w int, rng *sim.RNG) unit {
			n := 100
			if g.scanRows < n {
				n = g.scanRows
			}
			return single("S5", g.read("S5", n))
		}},
		{name: "W13", count: 4, make: func(g *gen, w int, rng *sim.RNG) unit {
			return single("W13", g.w13(w, rng, pick(rng, g.customers[w])))
		}},
		{name: "W4", count: 2, make: func(g *gen, w int, rng *sim.RNG) unit { return single("W4", g.w4(w, rng, 1)) }},
	}
}

// --------------------------------------------------------------------------

// generate builds every connection's stream: shuffled decks of the mix until
// each connection holds at least stmts statements and at least minDecks decks.
func generate(g *gen, mix []mixEntry, seed int64, stmts, minDecks int) *stream {
	var deck []int
	for i, e := range mix {
		for k := 0; k < e.count; k++ {
			deck = append(deck, i)
		}
	}
	root := sim.NewRNG(seed).Derive("stream")
	s := &stream{conns: make([][]unit, g.conns), deckLen: len(deck)}
	for w := 0; w < g.conns; w++ {
		rng := root.Derive(fmt.Sprintf("conn-%d", w))
		for n, d := 0, 0; n < stmts || d < minDecks; d++ {
			for _, k := range rng.Perm(len(deck)) {
				u := mix[deck[k]].make(g, w, rng)
				n += u.statements()
				s.conns[w] = append(s.conns[w], u)
			}
		}
	}
	s.defs = g.defs
	return s
}
