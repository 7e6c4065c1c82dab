package synergy

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"synergy/internal/core"
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// bulkFile is one physical table's rows ready to load, sorted by key.
type bulkFile struct {
	table string
	rows  []hbase.BulkRow
}

// LoadBase bulk-loads rows into a base table (and its base indexes),
// creating lock-table entries for root relations. Rows need not be sorted.
func (sys *System) LoadBase(table string, rows []schema.Row) error {
	info, err := sys.Catalog.Table(table)
	if err != nil {
		return err
	}
	encoded := make([][]hbase.Cell, len(rows))
	for i, r := range rows {
		encoded[i] = phoenix.RowToCells(r)
	}
	files, err := prepareLoad(info, encoded)
	if err != nil {
		return err
	}
	if err := sys.install(files); err != nil {
		return err
	}
	// §VIII-A: "a lock table entry is created when a tuple is inserted
	// into the root relation".
	if sys.isRoot(table) {
		return sys.Locks.BulkCreateEntries(table, files[0].rows)
	}
	return nil
}

// BuildViews materializes every selected view (and its view-indexes) from
// the loaded base tables, then major-compacts everything — the population
// procedure of §IX-D1. Views are prepared on up to GOMAXPROCS goroutines and
// installed by this one in Design.Views order (see the package comment).
func (sys *System) BuildViews() error {
	if sys.cfg.DisableViews {
		return sys.MajorCompactAll()
	}
	type prepared struct {
		files []bulkFile
		err   error
	}
	views, width := sys.Design.Views, runtime.GOMAXPROCS(0)
	ready := make([]chan prepared, len(views))
	started := 0
	for i, v := range views {
		for ; started < len(views) && started < i+width; started++ {
			v, ch := views[started], make(chan prepared, 1)
			ready[started] = ch
			go func() {
				files, err := sys.prepareView(v)
				ch <- prepared{files, err}
			}()
		}
		p := <-ready[i]
		if p.err == nil {
			p.err = sys.install(p.files)
		}
		if p.err != nil {
			for _, ch := range ready[i+1 : started] {
				<-ch // wait out what had started
			}
			return fmt.Errorf("synergy: building %s: %w", v.DisplayName(), p.err)
		}
	}
	return sys.MajorCompactAll()
}

// cellSlab cuts the cell slices of joined rows from blocks of slabCells, so a
// view row costs no allocation of its own.
type cellSlab []hbase.Cell

const slabCells = 4096

// join cuts a view row from the slab: a parent's cells under a child's
// (phoenix.MergeCells, the merge view maintenance builds the same row with).
func (s *cellSlab) join(parent, child []hbase.Cell) []hbase.Cell {
	if n := len(parent) + len(child); cap(*s)-len(*s) < n {
		*s = make([]hbase.Cell, 0, max(n, slabCells))
	}
	start := len(*s)
	*s = phoenix.MergeCells(*s, parent, child)
	return (*s)[start:len(*s):len(*s)]
}

// prepareView computes a view's contents by joining down its path, one scan
// per relation, and prepares them for loading. A level's joined rows are
// indexed by the relation's row key and the next relation's rows probe that
// index with the key of their foreign-key cells.
func (sys *System) prepareView(v *core.View) ([]bulkFile, error) {
	info, err := sys.Catalog.Table(v.Name())
	if err != nil {
		return nil, err
	}
	ctx := sim.NewCtx() // population cost is not a measured response time
	var parents map[string][]hbase.Cell
	var rows [][]hbase.Cell
	var child []hbase.Cell
	var fk []byte
	for i, rel := range v.Relations {
		sc, err := sys.Engine.Client().Scan(ctx, rel, hbase.ScanSpec{})
		if err != nil {
			return nil, err
		}
		last := i == len(v.Relations)-1
		var joined map[string][]hbase.Cell
		if !last {
			joined = make(map[string][]hbase.Cell, sys.Store.RowEstimate(rel))
		}
		var slab cellSlab
		for r, ok := sc.Next(ctx); ok; r, ok = sc.Next(ctx) {
			child = phoenix.AppendRowCells(child[:0], r)
			var parent []hbase.Cell
			if i > 0 {
				fk, _ = phoenix.AppendKeyOfCells(fk[:0], child, v.Edges[i-1].FK)
				if parent = parents[string(fk)]; parent == nil {
					continue // inner join: the foreign key is dangling, or NULL, which keys no row
				}
			}
			if row := slab.join(parent, child); last {
				rows = append(rows, row)
			} else {
				joined[r.Key] = row
			}
		}
		parents = joined
	}
	return prepareLoad(info, rows)
}

// prepareLoad keys and sorts encoded rows for a table and, after it, every
// index on it. The keys of a file are cut from one string and a covered index
// entry is the row's own cell slice, so a row costs no allocation here.
func prepareLoad(info *phoenix.TableInfo, rows [][]hbase.Cell) ([]bulkFile, error) {
	files := make([]bulkFile, 1+len(info.Indexes))
	ends := make([]int, len(rows))
	var keys, key []byte
	for f := range files {
		var idx *phoenix.IndexInfo
		file := bulkFile{info.Name, make([]hbase.BulkRow, len(rows))}
		if f > 0 {
			idx = info.Indexes[f-1]
			file.table = idx.Name
		}
		keys = keys[:0]
		for i, row := range rows {
			key, file.rows[i].Cells = key[:0], row
			if idx != nil {
				key, _ = phoenix.AppendKeyOfCells(key, row, idx.On)
				file.rows[i].Cells = phoenix.IndexCells(info, idx, row)
			}
			var null bool
			if key, null = phoenix.AppendKeyOfCells(key, row, info.Key); null {
				return nil, fmt.Errorf("%w: a %s row lacks one of %v", phoenix.ErrKeyNotSpecified, info.Name, info.Key)
			}
			keys = append(keys, key...)
			ends[i] = len(keys)
		}
		all, at := string(keys), 0
		for i := range file.rows {
			file.rows[i].Key, at = all[at:ends[i]], ends[i]
		}
		slices.SortFunc(file.rows, func(a, b hbase.BulkRow) int { return strings.Compare(a.Key, b.Key) })
		files[f] = file
	}
	return files, nil
}

// install bulk-loads prepared files in order.
func (sys *System) install(files []bulkFile) error {
	for _, f := range files {
		if err := sys.Store.BulkLoad(f.table, f.rows); err != nil {
			return err
		}
	}
	return nil
}

// MajorCompactAll compacts every table (§IX: done after population).
func (sys *System) MajorCompactAll() error {
	for _, t := range sys.Store.Tables() {
		if err := sys.Store.MajorCompact(t); err != nil {
			return err
		}
	}
	return nil
}
