package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// checkSamples is how many queries or write units each sampled check reads.
const checkSamples = 50

// runChecks verifies the deployment after the measured phase, with the
// traffic stopped. Failures land in the report and clear its correct flag.
func runChecks(rep *runReport, l *live, recs []*recorder, cfg runConfig) {
	rng := sim.NewRNG(cfg.seed).Derive("checks")
	rep.check("last_write_readable", checkReadback(l, recs, rng))
	if cfg.spec.scanOnly {
		rep.check("scan_hashes_equal", checkScanHashes(l, recs))
	} else {
		rep.check("views_equal_base", checkViews(l, rng))
	}
}

// modeRead returns the read options an autocommit read runs with under the
// deployment's concurrency mode — a snapshot transaction under MVCC, the
// dirty-read restart protocol under hierarchical locking — and a func
// settling them.
func modeRead(sys *synergy.System, ctx *sim.Ctx) (phoenix.QueryOpts, func()) {
	if sys.Concurrency() == synergy.MVCC {
		tx := sys.MVCCServer.Begin(ctx)
		// A read-only transaction writes nothing, so its commit cannot conflict.
		return phoenix.QueryOpts{Read: tx.ReadOpts()}, func() { _ = sys.MVCCServer.Commit(ctx, tx) }
	}
	return phoenix.QueryOpts{DirtyCheck: true}, func() {}
}

// canonical renders a result set as sorted row strings over cols.
func canonical(rs *phoenix.ResultSet, cols []string) []string {
	out := make([]string, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		var b strings.Builder
		for _, c := range cols {
			fmt.Fprintf(&b, "%s=%v|", c, r[c])
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

// checkViews runs sampled join queries twice — through sys.Query, which
// answers them from the materialized views, and through the bare engine on
// the statement as written, which joins the base tables — and requires the
// same rows: after all the write traffic the views still equal their
// definition. Q1-Q8 are the view-answered joins whose ORDER BY/LIMIT cannot
// tie.
func checkViews(l *live, rng *sim.RNG) error {
	sys := l.d.sys
	ids := []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"}
	parsed := map[string]*sqlparser.SelectStmt{}
	for i := 0; i < checkSamples; i++ {
		id := ids[i%len(ids)]
		o := l.g.tpcwRead(id, rng)
		sel := parsed[id]
		if sel == nil {
			var err error
			if sel, err = sqlparser.ParseSelect(l.g.defs[o.def].sql); err != nil {
				return err
			}
			parsed[id] = sel
		}
		ctx := sim.NewCtx()
		viaViews, err := sys.Query(ctx, sel, o.params)
		if err != nil {
			return fmt.Errorf("%s %v through the views: %w", id, o.params, err)
		}
		opts, done := modeRead(sys, ctx)
		viaBase, err := sys.Engine.QueryOpts(ctx, sel, o.params, opts)
		done()
		if err != nil {
			return fmt.Errorf("%s %v over the base tables: %w", id, o.params, err)
		}
		// The rewrite renames the aliases of a relation joined twice (Q7's
		// two addresses come back as v1.*, v2.*), so the comparison runs
		// over the columns both results name the same.
		inViews := map[string]bool{}
		for _, c := range viaViews.Columns {
			inViews[c] = true
		}
		var cols []string
		for _, c := range viaBase.Columns {
			if inViews[c] {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			return fmt.Errorf("%s: the two results share no column name", id)
		}
		a, b := canonical(viaViews, cols), canonical(viaBase, cols)
		if len(a) != len(b) {
			return fmt.Errorf("%s %v: %d rows through the views, %d over the base tables", id, o.params, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				return fmt.Errorf("%s %v: row %d differs: views %q, base %q", id, o.params, k, a[k], b[k])
			}
		}
	}
	return nil
}

// checkReadback reads back what committed write units left behind: for
// every row, the last committed write to it (a connection's later units
// overwrite its earlier ones; connections never share a row), sampled.
func checkReadback(l *live, recs []*recorder, rng *sim.RNG) error {
	sys := l.d.sys
	final := map[string]*readback{}
	var order []string
	for _, r := range recs {
		for _, u := range r.committed {
			for i := range u.ops {
				b := u.ops[i].back
				if b == nil {
					continue
				}
				k := b.table + "/" + schema.EncodeKey(b.key...)
				if _, seen := final[k]; !seen {
					order = append(order, k)
				}
				final[k] = b
			}
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("no committed write to read back")
	}
	for i := 0; i < checkSamples; i++ {
		b := final[order[rng.Intn(len(order))]]
		info, err := sys.Catalog.Table(b.table)
		if err != nil {
			return err
		}
		ctx := sim.NewCtx()
		opts, done := modeRead(sys, ctx)
		row, found, err := sys.Engine.GetRow(ctx, info, opts.Read, b.key...)
		done()
		if err != nil {
			return fmt.Errorf("reading back %s %v: %w", b.table, b.key, err)
		}
		switch {
		case b.col == "" && found:
			return fmt.Errorf("%s %v was deleted by a committed unit but is still there", b.table, b.key)
		case b.col != "" && !found:
			return fmt.Errorf("%s %v was written by a committed unit but is missing", b.table, b.key)
		case b.col != "" && row[b.col] != b.want:
			return fmt.Errorf("%s %v: %s reads %v, last committed write set %v", b.table, b.key, b.col, row[b.col], b.want)
		}
	}
	return nil
}

// checkScanHashes has every connection run the full scan once more, now that
// no write intervenes: the row packets must hash (fnv64a) to the same value
// on every connection, and the row count must be the loaded rows plus the
// committed registrations.
func checkScanHashes(l *live, recs []*recorder) error {
	want := l.g.scanRows
	for _, r := range recs {
		for _, u := range r.committed {
			if u.name == "W4" {
				want++
			}
		}
	}
	full := l.g.read("S1", -1)
	var first uint64
	for w, cl := range l.clients {
		cl.hash = fnv.New64a()
		rows, _, _, err := cl.query(&full)
		sum := cl.hash.Sum64()
		cl.hash = nil
		if err != nil {
			return fmt.Errorf("connection %d: %w", w, err)
		}
		if rows != want {
			return fmt.Errorf("connection %d: full scan returned %d rows, want %d", w, rows, want)
		}
		if w == 0 {
			first = sum
		} else if sum != first {
			return fmt.Errorf("connection %d: full scan hashes to %016x, connection 0 to %016x", w, sum, first)
		}
	}
	return nil
}
