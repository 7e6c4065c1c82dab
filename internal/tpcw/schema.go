// Package tpcw implements the TPC-W transactional web benchmark as the
// paper's evaluation uses it (§IX-D1): the relational schema, a
// deterministic data generator with the paper's cardinalities (NUM_ITEMS =
// 10 x NUM_CUST, Customer:Orders = 1:10), the extracted SQL statement set —
// join queries Q1-Q11 (Figure 15), write statements W1-W13 (Figure 16) and
// the point reads the servlets issue — plus the Customer/Order/Order_line
// micro-benchmark of §IX-B (Figures 8 and 9).
package tpcw

import (
	"synergy/internal/newsql"
	"synergy/internal/schema"
	"synergy/internal/synergy"
)

// Roots is Q_TPC-W = {Author, Customer, Country} (§IX-D2).
func Roots() []string { return []string{"Author", "Customer", "Country"} }

// Schema builds the TPC-W relational schema. Attribute names follow the
// benchmark specification; i_related1..5 are intentionally NOT declared as
// foreign keys (they would make the schema graph cyclic; the paper assumes
// acyclic schemas, §V).
func Schema() *schema.Schema {
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name: "Country",
		Columns: []schema.Column{
			{Name: "co_id", Type: schema.TInt},
			{Name: "co_name", Type: schema.TString},
			{Name: "co_exchange", Type: schema.TFloat},
			{Name: "co_currency", Type: schema.TString},
		},
		PK: []string{"co_id"},
	})
	s.AddRelation(&schema.Relation{
		Name: "Author",
		Columns: []schema.Column{
			{Name: "a_id", Type: schema.TInt},
			{Name: "a_fname", Type: schema.TString},
			{Name: "a_lname", Type: schema.TString},
			{Name: "a_mname", Type: schema.TString},
			{Name: "a_dob", Type: schema.TInt},
			{Name: "a_bio", Type: schema.TString},
		},
		PK: []string{"a_id"},
	})
	s.AddRelation(&schema.Relation{
		Name: "Address",
		Columns: []schema.Column{
			{Name: "addr_id", Type: schema.TInt},
			{Name: "addr_street1", Type: schema.TString},
			{Name: "addr_street2", Type: schema.TString},
			{Name: "addr_city", Type: schema.TString},
			{Name: "addr_state", Type: schema.TString},
			{Name: "addr_zip", Type: schema.TString},
			{Name: "addr_co_id", Type: schema.TInt},
		},
		PK:  []string{"addr_id"},
		FKs: []schema.ForeignKey{{Cols: []string{"addr_co_id"}, RefTable: "Country"}},
	})
	s.AddRelation(&schema.Relation{
		Name: "Customer",
		Columns: []schema.Column{
			{Name: "c_id", Type: schema.TInt},
			{Name: "c_uname", Type: schema.TString},
			{Name: "c_passwd", Type: schema.TString},
			{Name: "c_fname", Type: schema.TString},
			{Name: "c_lname", Type: schema.TString},
			{Name: "c_addr_id", Type: schema.TInt},
			{Name: "c_phone", Type: schema.TString},
			{Name: "c_email", Type: schema.TString},
			{Name: "c_since", Type: schema.TInt},
			{Name: "c_last_login", Type: schema.TInt},
			{Name: "c_login", Type: schema.TInt},
			{Name: "c_expiration", Type: schema.TInt},
			{Name: "c_discount", Type: schema.TFloat},
			{Name: "c_balance", Type: schema.TFloat},
			{Name: "c_ytd_pmt", Type: schema.TFloat},
			{Name: "c_birthdate", Type: schema.TInt},
			{Name: "c_data", Type: schema.TString},
		},
		PK:  []string{"c_id"},
		FKs: []schema.ForeignKey{{Cols: []string{"c_addr_id"}, RefTable: "Address"}},
	})
	s.AddRelation(&schema.Relation{
		Name: "Item",
		Columns: []schema.Column{
			{Name: "i_id", Type: schema.TInt},
			{Name: "i_title", Type: schema.TString},
			{Name: "i_a_id", Type: schema.TInt},
			{Name: "i_pub_date", Type: schema.TInt},
			{Name: "i_publisher", Type: schema.TString},
			{Name: "i_subject", Type: schema.TString},
			{Name: "i_desc", Type: schema.TString},
			{Name: "i_related1", Type: schema.TInt},
			{Name: "i_related2", Type: schema.TInt},
			{Name: "i_related3", Type: schema.TInt},
			{Name: "i_related4", Type: schema.TInt},
			{Name: "i_related5", Type: schema.TInt},
			{Name: "i_thumbnail", Type: schema.TString},
			{Name: "i_image", Type: schema.TString},
			{Name: "i_srp", Type: schema.TFloat},
			{Name: "i_cost", Type: schema.TFloat},
			{Name: "i_avail", Type: schema.TInt},
			{Name: "i_stock", Type: schema.TInt},
			{Name: "i_isbn", Type: schema.TString},
			{Name: "i_page", Type: schema.TInt},
			{Name: "i_backing", Type: schema.TString},
			{Name: "i_dimensions", Type: schema.TString},
		},
		PK:  []string{"i_id"},
		FKs: []schema.ForeignKey{{Cols: []string{"i_a_id"}, RefTable: "Author"}},
	})
	s.AddRelation(&schema.Relation{
		Name: "Orders",
		Columns: []schema.Column{
			{Name: "o_id", Type: schema.TInt},
			{Name: "o_c_id", Type: schema.TInt},
			{Name: "o_date", Type: schema.TInt},
			{Name: "o_sub_total", Type: schema.TFloat},
			{Name: "o_tax", Type: schema.TFloat},
			{Name: "o_total", Type: schema.TFloat},
			{Name: "o_ship_type", Type: schema.TString},
			{Name: "o_ship_date", Type: schema.TInt},
			{Name: "o_bill_addr_id", Type: schema.TInt},
			{Name: "o_ship_addr_id", Type: schema.TInt},
			{Name: "o_status", Type: schema.TString},
		},
		PK: []string{"o_id"},
		FKs: []schema.ForeignKey{
			{Cols: []string{"o_c_id"}, RefTable: "Customer"},
			{Cols: []string{"o_bill_addr_id"}, RefTable: "Address"},
			{Cols: []string{"o_ship_addr_id"}, RefTable: "Address"},
		},
	})
	s.AddRelation(&schema.Relation{
		Name: "Order_line",
		Columns: []schema.Column{
			{Name: "ol_o_id", Type: schema.TInt},
			{Name: "ol_id", Type: schema.TInt},
			{Name: "ol_i_id", Type: schema.TInt},
			{Name: "ol_qty", Type: schema.TInt},
			{Name: "ol_discount", Type: schema.TFloat},
			{Name: "ol_comments", Type: schema.TString},
		},
		PK: []string{"ol_o_id", "ol_id"},
		FKs: []schema.ForeignKey{
			{Cols: []string{"ol_o_id"}, RefTable: "Orders"},
			{Cols: []string{"ol_i_id"}, RefTable: "Item"},
		},
	})
	s.AddRelation(&schema.Relation{
		Name: "CC_Xacts",
		Columns: []schema.Column{
			{Name: "cx_o_id", Type: schema.TInt},
			{Name: "cx_type", Type: schema.TString},
			{Name: "cx_num", Type: schema.TString},
			{Name: "cx_name", Type: schema.TString},
			{Name: "cx_expire", Type: schema.TInt},
			{Name: "cx_auth_id", Type: schema.TString},
			{Name: "cx_xact_amt", Type: schema.TFloat},
			{Name: "cx_xact_date", Type: schema.TInt},
			{Name: "cx_co_id", Type: schema.TInt},
		},
		PK: []string{"cx_o_id"},
		FKs: []schema.ForeignKey{
			{Cols: []string{"cx_o_id"}, RefTable: "Orders"},
			{Cols: []string{"cx_co_id"}, RefTable: "Country"},
		},
	})
	s.AddRelation(&schema.Relation{
		Name: "Shopping_cart",
		Columns: []schema.Column{
			{Name: "sc_id", Type: schema.TInt},
			{Name: "sc_time", Type: schema.TInt},
		},
		PK: []string{"sc_id"},
	})
	s.AddRelation(&schema.Relation{
		Name: "Shopping_cart_line",
		Columns: []schema.Column{
			{Name: "scl_sc_id", Type: schema.TInt},
			{Name: "scl_i_id", Type: schema.TInt},
			{Name: "scl_qty", Type: schema.TInt},
		},
		PK: []string{"scl_sc_id", "scl_i_id"},
		FKs: []schema.ForeignKey{
			{Cols: []string{"scl_sc_id"}, RefTable: "Shopping_cart"},
			{Cols: []string{"scl_i_id"}, RefTable: "Item"},
		},
	})
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// BaseIndexes lists the base-table covered indexes the input schema ships
// with — the access paths the workload's filters need, and one its ordering
// needs: IX_Orders_date, keyed (o_date, o_id), which Q10/Q11's
// newest-3,333-orders subquery reads backwards instead of sorting Orders.
func BaseIndexes() []synergy.IndexSpec {
	return []synergy.IndexSpec{
		{Table: "Customer", Name: "IX_Customer_uname", On: []string{"c_uname"}},
		{Table: "Item", Name: "IX_Item_subject", On: []string{"i_subject"}},
		{Table: "Item", Name: "IX_Item_author", On: []string{"i_a_id"}},
		{Table: "Orders", Name: "IX_Orders_customer", On: []string{"o_c_id"}},
		{Table: "Orders", Name: "IX_Orders_date", On: []string{"o_date"}},
		{Table: "Order_line", Name: "IX_Order_line_item", On: []string{"ol_i_id"}},
	}
}

// PartitionSchemes returns the three VoltDB partitioning schemes used to
// profile the maximum number of TPC-W joins (§IX-D2); under any single
// scheme fewer than half the joins are supported.
func PartitionSchemes() []newsql.Scheme {
	return []newsql.Scheme{
		{
			// Customer-centric: supports Q2 (customer x orders) and
			// Q11 (order_line self-join on ol_o_id).
			Name: "S1-customer",
			PartitionBy: map[string]string{
				"Customer": "c_id", "Orders": "o_c_id", "CC_Xacts": "cx_o_id",
				"Order_line": "ol_o_id", "Address": "addr_id",
				"Item": "i_id", "Author": "a_id",
				"Shopping_cart": "sc_id", "Shopping_cart_line": "scl_sc_id",
			},
		},
		{
			// Catalog-centric: supports Q4, Q5, Q6 (author x item).
			Name: "S2-catalog",
			PartitionBy: map[string]string{
				"Customer": "c_id", "Orders": "o_id", "CC_Xacts": "cx_o_id",
				"Order_line": "ol_o_id", "Address": "addr_id",
				"Item": "i_a_id", "Author": "a_id",
				"Shopping_cart": "sc_id", "Shopping_cart_line": "scl_sc_id",
			},
		},
		{
			// Item-centric: supports Q1 (item x order_line) and Q8
			// (item x shopping_cart_line).
			Name: "S3-item",
			PartitionBy: map[string]string{
				"Customer": "c_id", "Orders": "o_id", "CC_Xacts": "cx_o_id",
				"Order_line": "ol_i_id", "Address": "addr_id",
				"Item": "i_id", "Author": "a_id",
				"Shopping_cart": "sc_id", "Shopping_cart_line": "scl_i_id",
			},
		},
	}
}
