package tpcw

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/tuning"
)

// Subjects are the 24 item subjects of the TPC-W specification.
var Subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
	"HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
	"NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
	"ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
	"YOUTH", "TRAVEL",
}

// Cardinalities scale with NUM_CUST per §IX-D1: NUM_ITEMS = 10 x NUM_CUST
// and the Customer:Orders ratio is 10 (the paper raises it from 0.9).
type Cardinalities struct {
	Customers int
	Items     int
	Authors   int
	Addresses int
	Orders    int
	Countries int
	Carts     int
}

// CardinalitiesFor derives the table sizes for a customer count.
func CardinalitiesFor(numCust int) Cardinalities {
	return Cardinalities{
		Customers: numCust,
		Items:     10 * numCust,
		Authors:   10 * numCust / 4, // TPC-W: NUM_ITEMS/4 authors
		Addresses: 2 * numCust,
		Orders:    10 * numCust,
		Countries: 92,
		Carts:     numCust/5 + 1,
	}
}

// Data is a generated database plus the id spaces the workload draws
// parameters from.
type Data struct {
	Card   Cardinalities
	Tables map[string][]schema.Row
	// CartLines samples existing (sc_id, i_id) pairs for W8/W12.
	CartLines [][2]int64
	// seq hands out fresh ids for insert statements.
	seqOrder, seqCust, seqAddr, seqCart, seqOL atomic.Int64
	// Uname returns the deterministic user name of a customer id.
}

// Uname is the deterministic c_uname of a customer id.
func Uname(cID int64) string { return fmt.Sprintf("user%08d", cID) }

// GenerateCustomers builds just the Customer table's rows for a customer
// count, byte-identical to what Generate(numCust, seed) would put there:
// every table's value stream derives independently from the seed, so one
// table can be produced without paying for the rest of the database. The
// large-scan bench uses it to load a single wide table of controllable size.
func GenerateCustomers(numCust int, seed int64) []schema.Row {
	return generateCustomers(sim.NewRNG(seed), CardinalitiesFor(numCust))
}

func generateCustomers(rng *sim.RNG, card Cardinalities) []schema.Row {
	cg := rng.Derive("customer")
	customers := make([]schema.Row, 0, card.Customers)
	for i := 1; i <= card.Customers; i++ {
		customers = append(customers, schema.Row{
			"c_id": int64(i), "c_uname": Uname(int64(i)),
			"c_passwd": cg.String(8, 8),
			"c_fname":  cg.String(5, 12), "c_lname": cg.String(5, 14),
			"c_addr_id": int64(cg.IntRange(1, card.Addresses)),
			"c_phone":   cg.String(10, 12), "c_email": cg.String(12, 20),
			"c_since": int64(cg.IntRange(10000, 19000)), "c_last_login": int64(cg.IntRange(19000, 20000)),
			"c_login": int64(cg.IntRange(0, 100)), "c_expiration": int64(cg.IntRange(20000, 21000)),
			"c_discount": float64(cg.IntRange(0, 50)) / 100,
			"c_balance":  float64(cg.IntRange(-100, 1000)), "c_ytd_pmt": float64(cg.IntRange(0, 10000)) / 10,
			"c_birthdate": int64(cg.IntRange(1920, 2005)), "c_data": cg.String(60, 120),
		})
	}
	return customers
}

// Generate builds the database deterministically from a seed. Each table's
// value stream derives from the seed on its own (sim.RNG.Derive), so the
// streams are drawn on goroutines of their own and come out the same.
func Generate(numCust int, seed int64) *Data {
	card := CardinalitiesFor(numCust)
	rng := sim.NewRNG(seed)
	d := &Data{Card: card, Tables: map[string][]schema.Row{}}
	var authors, addresses, customers, items, orders, orderLines, ccx, carts, cartLines []schema.Row
	var wg sync.WaitGroup
	for _, stream := range []func(){
		func() { authors = generateAuthors(rng, card) },
		func() { addresses = generateAddresses(rng, card) },
		func() { customers = generateCustomers(rng, card) },
		func() { items = generateItems(rng, card) },
		func() { orders, orderLines, ccx = generateOrders(rng, card) },
		func() { carts, cartLines, d.CartLines = generateCarts(rng, card) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream()
		}()
	}

	countries := make([]schema.Row, 0, card.Countries)
	for i := 1; i <= card.Countries; i++ {
		countries = append(countries, schema.Row{
			"co_id":       int64(i),
			"co_name":     fmt.Sprintf("country-%02d", i),
			"co_exchange": 1 + rng.Derive("co").Float64(),
			"co_currency": "CUR",
		})
	}
	wg.Wait()
	d.Tables["Country"] = countries
	d.Tables["Author"] = authors
	d.Tables["Address"] = addresses
	d.Tables["Customer"] = customers
	d.Tables["Item"] = items
	d.Tables["Orders"] = orders
	d.Tables["Order_line"] = orderLines
	d.Tables["CC_Xacts"] = ccx
	d.Tables["Shopping_cart"] = carts
	d.Tables["Shopping_cart_line"] = cartLines

	d.seqOrder.Store(int64(card.Orders))
	d.seqCust.Store(int64(card.Customers))
	d.seqAddr.Store(int64(card.Addresses))
	d.seqCart.Store(int64(card.Carts))
	return d
}

func generateAuthors(rng *sim.RNG, card Cardinalities) []schema.Row {
	ag := rng.Derive("author")
	authors := make([]schema.Row, 0, card.Authors)
	for i := 1; i <= card.Authors; i++ {
		authors = append(authors, schema.Row{
			"a_id":    int64(i),
			"a_fname": ag.String(6, 12),
			"a_lname": ag.String(6, 14),
			"a_mname": ag.String(1, 2),
			"a_dob":   int64(ag.IntRange(1900, 1995)),
			"a_bio":   ag.String(60, 120),
		})
	}
	return authors
}

func generateAddresses(rng *sim.RNG, card Cardinalities) []schema.Row {
	adg := rng.Derive("address")
	addresses := make([]schema.Row, 0, card.Addresses)
	for i := 1; i <= card.Addresses; i++ {
		addresses = append(addresses, schema.Row{
			"addr_id":      int64(i),
			"addr_street1": adg.String(12, 24),
			"addr_street2": adg.String(0, 12),
			"addr_city":    adg.String(6, 14),
			"addr_state":   adg.String(2, 2),
			"addr_zip":     adg.String(5, 5),
			"addr_co_id":   int64(adg.IntRange(1, card.Countries)),
		})
	}
	return addresses
}

func generateItems(rng *sim.RNG, card Cardinalities) []schema.Row {
	ig := rng.Derive("item")
	items := make([]schema.Row, 0, card.Items)
	for i := 1; i <= card.Items; i++ {
		items = append(items, schema.Row{
			"i_id": int64(i), "i_title": ig.String(10, 30),
			"i_a_id":      int64(ig.IntRange(1, card.Authors)),
			"i_pub_date":  int64(ig.IntRange(8000, 20000)),
			"i_publisher": ig.String(8, 20), "i_subject": Subjects[ig.Intn(len(Subjects))],
			"i_desc":     ig.String(50, 100),
			"i_related1": int64(ig.IntRange(1, card.Items)), "i_related2": int64(ig.IntRange(1, card.Items)),
			"i_related3": int64(ig.IntRange(1, card.Items)), "i_related4": int64(ig.IntRange(1, card.Items)),
			"i_related5":  int64(ig.IntRange(1, card.Items)),
			"i_thumbnail": ig.String(20, 30), "i_image": ig.String(20, 30),
			"i_srp": float64(ig.IntRange(100, 9999)) / 100, "i_cost": float64(ig.IntRange(50, 9000)) / 100,
			"i_avail": int64(ig.IntRange(19000, 20000)), "i_stock": int64(ig.IntRange(10, 30)),
			"i_isbn": ig.String(13, 13), "i_page": int64(ig.IntRange(20, 9999)),
			"i_backing": "HARDBACK", "i_dimensions": ig.String(10, 20),
		})
	}
	return items
}

// generateOrders draws Orders, Order_line and CC_Xacts from one stream.
func generateOrders(rng *sim.RNG, card Cardinalities) (orders, orderLines, ccx []schema.Row) {
	og := rng.Derive("orders")
	orders = make([]schema.Row, 0, card.Orders)
	orderLines = make([]schema.Row, 0, card.Orders*3)
	ccx = make([]schema.Row, 0, card.Orders)
	for o := 1; o <= card.Orders; o++ {
		cID := int64(og.IntRange(1, card.Customers))
		sub := float64(og.IntRange(1000, 99999)) / 100
		orders = append(orders, schema.Row{
			"o_id": int64(o), "o_c_id": cID,
			"o_date": int64(og.IntRange(19000, 20000)), "o_sub_total": sub,
			"o_tax": sub * 0.0825, "o_total": sub * 1.0825,
			"o_ship_type": "AIR", "o_ship_date": int64(og.IntRange(19000, 20100)),
			"o_bill_addr_id": int64(og.IntRange(1, card.Addresses)),
			"o_ship_addr_id": int64(og.IntRange(1, card.Addresses)),
			"o_status":       "SHIPPED",
		})
		nLines := og.IntRange(1, 5)
		for l := 1; l <= nLines; l++ {
			orderLines = append(orderLines, schema.Row{
				"ol_o_id": int64(o), "ol_id": int64(l),
				"ol_i_id":     int64(og.IntRange(1, card.Items)),
				"ol_qty":      int64(og.IntRange(1, 10)),
				"ol_discount": float64(og.IntRange(0, 30)) / 100,
				"ol_comments": og.String(20, 50),
			})
		}
		ccx = append(ccx, schema.Row{
			"cx_o_id": int64(o), "cx_type": "VISA",
			"cx_num": og.String(16, 16), "cx_name": og.String(10, 25),
			"cx_expire": int64(og.IntRange(20000, 22000)), "cx_auth_id": og.String(15, 15),
			"cx_xact_amt": sub * 1.0825, "cx_xact_date": int64(og.IntRange(19000, 20000)),
			"cx_co_id": int64(og.IntRange(1, card.Countries)),
		})
	}
	return orders, orderLines, ccx
}

// generateCarts draws Shopping_cart and Shopping_cart_line from one stream,
// and samples the first 1,000 cart lines for the workload's parameters.
func generateCarts(rng *sim.RNG, card Cardinalities) (carts, cartLines []schema.Row, sample [][2]int64) {
	sg := rng.Derive("cart")
	carts = make([]schema.Row, 0, card.Carts)
	for c := 1; c <= card.Carts; c++ {
		carts = append(carts, schema.Row{"sc_id": int64(c), "sc_time": int64(sg.IntRange(19000, 20000))})
		n := sg.IntRange(1, 4)
		seen := map[int64]bool{}
		for l := 0; l < n; l++ {
			iID := int64(sg.IntRange(1, card.Items))
			if seen[iID] {
				continue
			}
			seen[iID] = true
			cartLines = append(cartLines, schema.Row{
				"scl_sc_id": int64(c), "scl_i_id": iID, "scl_qty": int64(sg.IntRange(1, 5)),
			})
			if len(sample) < 1000 {
				sample = append(sample, [2]int64{int64(c), iID})
			}
		}
	}
	return carts, cartLines, sample
}

// TableNames lists the generated tables in sorted order — the order loaders
// use, because split order decides region placement and load stamps and a
// range over Tables differs run to run.
func (d *Data) TableNames() []string {
	names := make([]string, 0, len(d.Tables))
	for n := range d.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fresh id generators for insert statements.
func (d *Data) NextOrderID() int64    { return d.seqOrder.Add(1) }
func (d *Data) NextCustomerID() int64 { return d.seqCust.Add(1) }
func (d *Data) NextAddressID() int64  { return d.seqAddr.Add(1) }
func (d *Data) NextCartID() int64     { return d.seqCart.Add(1) }

// Stats summarizes the generated database for the tuning advisor.
func (d *Data) Stats() tuning.Stats {
	st := tuning.Stats{Rows: map[string]int64{}, AvgRowBytes: map[string]int64{}}
	for table, rows := range d.Tables {
		st.Rows[table] = int64(len(rows))
		if len(rows) == 0 {
			continue
		}
		var bytes int64
		sample := rows
		if len(sample) > 100 {
			sample = sample[:100]
		}
		for _, r := range sample {
			for k, v := range r {
				bytes += int64(len(k))
				if s, ok := v.(string); ok {
					bytes += int64(len(s))
				} else {
					bytes += 8
				}
			}
		}
		st.AvgRowBytes[table] = bytes / int64(len(sample))
	}
	return st
}
