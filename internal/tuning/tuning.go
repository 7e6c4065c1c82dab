// Package tuning is the schema-relationships-UNAWARE view advisor behind the
// MVCC-UA system (§IX-D2). The paper obtained MVCC-UA's views by running the
// SQL Server 2012 Database Engine Tuning Advisor over the profiled workload;
// this package implements the same role with the published algorithm that
// tool descends from: the workload-driven, benefit/storage greedy selection
// of Agrawal, Chaudhuri and Narasayya (VLDB 2000) [16].
//
// The advisor is intentionally oblivious to key/foreign-key structure: it
// scores one whole-query view per join query (aggregated when the query
// aggregates), trading unbounded storage and maintenance cost for read
// benefit — exactly the design point the paper contrasts Synergy against
// (§III-3). What it chooses is which queries get a view: the ones with the
// best benefit per byte under the budget. The view MVCC-UA deploys for a
// chosen query is that query's join path (internal/bench), not the aggregate
// candidate, because an item-grain aggregate cannot answer Q10's
// newest-orders window. The size estimate of an aggregate candidate is still
// the aggregate's, so the ranking prices a narrower view than the one
// deployed.
package tuning

import (
	"fmt"
	"sort"
	"strings"

	"synergy/internal/sqlparser"
)

// Stats summarizes the database the advisor tunes for.
type Stats struct {
	// Rows per table.
	Rows map[string]int64
	// AvgRowBytes per table.
	AvgRowBytes map[string]int64
}

func (s Stats) rows(table string) int64 {
	if n, ok := s.Rows[table]; ok {
		return n
	}
	return 1
}

func (s Stats) rowBytes(table string) int64 {
	if n, ok := s.AvgRowBytes[table]; ok {
		return n
	}
	return 100
}

// Candidate is a syntactically relevant view for one workload query: the
// query's full join result, aggregated when the query aggregates.
type Candidate struct {
	Query     *sqlparser.SelectStmt
	QueryName string
	Tables    []string
	Aggregate bool
	// EstRows and EstBytes estimate the materialized size.
	EstRows  int64
	EstBytes int64
	// Benefit estimates the per-execution scan saving (rows examined on
	// base tables minus rows examined on the view).
	Benefit float64
}

// Name renders a stable identifier.
func (c *Candidate) Name() string {
	return "UA_" + c.QueryName + "_" + strings.Join(c.Tables, "_")
}

// Advisor selects views under a storage budget.
type Advisor struct {
	// Budget is the storage allowance in bytes (the tuning advisor's
	// standard knob). Zero means 10% of the base database size.
	Budget int64
}

// Candidates enumerates per-query join materializations, the syntactically
// relevant views of [16] restricted (as [16] §4 does for practicality) to
// one view per query covering all its joined tables.
func Candidates(workload map[string]*sqlparser.SelectStmt, stats Stats) []*Candidate {
	names := make([]string, 0, len(workload))
	for n := range workload {
		names = append(names, n)
	}
	sort.Strings(names)

	var out []*Candidate
	for _, qn := range names {
		sel := workload[qn]
		var tables []string
		derived := false
		for _, ref := range sel.From {
			if ref.Sub != nil {
				derived = true
				for _, sub := range ref.Sub.From {
					if sub.Sub == nil {
						tables = append(tables, sub.Name)
					}
				}
				continue
			}
			tables = append(tables, ref.Name)
		}
		if len(tables) < 2 && !derived {
			continue // nothing joined: no view candidate
		}
		c := &Candidate{Query: sel, QueryName: qn, Tables: tables, Aggregate: len(sel.GroupBy) > 0}
		c.EstRows, c.EstBytes = estimateSize(sel, tables, stats)
		c.Benefit = estimateBenefit(sel, tables, stats, c.EstRows)
		out = append(out, c)
	}
	return out
}

// estimateSize sizes the materialized result: FK-join results are bounded by
// the largest participating table; aggregation collapses the fact table to
// the next-largest (dimension) cardinality with one narrow row per group.
func estimateSize(sel *sqlparser.SelectStmt, tables []string, stats Stats) (rows, bytes int64) {
	var maxRows, secondRows, widthSum int64
	for _, t := range tables {
		r := stats.rows(t)
		if r > maxRows {
			secondRows = maxRows
			maxRows = r
		} else if r > secondRows {
			secondRows = r
		}
		widthSum += stats.rowBytes(t)
	}
	rows = maxRows
	if len(sel.GroupBy) > 0 {
		if secondRows > 0 {
			rows = secondRows
		}
		widthSum = 64
	}
	return rows, rows * widthSum
}

// estimateBenefit scores a candidate: executing the query on base tables
// scans roughly the sum of the joined tables; on the view it scans the view
// (or an indexed fraction when the query filters).
func estimateBenefit(sel *sqlparser.SelectStmt, tables []string, stats Stats, viewRows int64) float64 {
	var baseScan int64
	for _, t := range tables {
		baseScan += stats.rows(t)
	}
	viewScan := viewRows
	if len(sel.FilterPredicates()) > 0 {
		viewScan = viewRows/1000 + 1 // filter served by a view index
	}
	return float64(baseScan - viewScan)
}

// Recommend greedily picks candidates by benefit-per-byte under the budget
// (the knapsack heuristic of [16] §6.2).
func Recommend(cands []*Candidate, stats Stats, budget int64) []*Candidate {
	if budget <= 0 {
		var base int64
		for t := range stats.Rows {
			base += stats.rows(t) * stats.rowBytes(t)
		}
		budget = base / 10 // default: 10% of the database
	}
	sorted := append([]*Candidate(nil), cands...)
	sort.SliceStable(sorted, func(i, j int) bool {
		di := density(sorted[i])
		dj := density(sorted[j])
		if di != dj {
			return di > dj
		}
		return sorted[i].Name() < sorted[j].Name()
	})
	var out []*Candidate
	var used int64
	for _, c := range sorted {
		if c.Benefit <= 0 || c.EstBytes <= 0 {
			continue
		}
		if used+c.EstBytes > budget {
			continue
		}
		out = append(out, c)
		used += c.EstBytes
	}
	return out
}

func density(c *Candidate) float64 {
	if c.EstBytes <= 0 {
		return 0
	}
	return c.Benefit / float64(c.EstBytes)
}

// Describe renders a recommendation report.
func Describe(recs []*Candidate) string {
	var b strings.Builder
	for _, c := range recs {
		fmt.Fprintf(&b, "%s: tables=%s rows≈%d bytes≈%d benefit≈%.0f\n",
			c.QueryName, strings.Join(c.Tables, ","), c.EstRows, c.EstBytes, c.Benefit)
	}
	return b.String()
}
