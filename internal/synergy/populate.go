package synergy

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"synergy/internal/core"
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// LoadBase bulk-loads rows into a base table (and its base indexes),
// creating lock-table entries for root relations. Rows need not be sorted.
// The rows are encoded in GOMAXPROCS chunks and the table's files built on
// the worker pool; the files attach in order: the table, its indexes, its
// lock table, each at the next of the stamps reserved for them up front.
func (sys *System) LoadBase(table string, rows []schema.Row) error {
	info, err := sys.Catalog.Table(table)
	if err != nil {
		return err
	}
	encoded := make([][]hbase.Cell, len(rows))
	width := runtime.GOMAXPROCS(0)
	chunk := (len(rows) + width - 1) / width
	var encode []func() error
	for lo := 0; lo < len(rows); lo += chunk {
		hi := min(lo+chunk, len(rows))
		encode = append(encode, func() error {
			info.EncodeRows(encoded[lo:hi], rows[lo:hi])
			return nil
		})
	}
	runPool(encode)

	// §VIII-A: "a lock table entry is created when a tuple is inserted
	// into the root relation".
	root := sys.isRoot(table)
	n := 1 + len(info.Indexes)
	files := make([]*hbase.BulkFiles, n, n+1)
	if root {
		files = files[:n+1]
	}
	ts := sys.Store.ReserveTS(len(files))
	jobs := make([]func() error, n)
	for f := range jobs {
		jobs[f] = func() (err error) {
			var keyed []hbase.BulkRow
			files[f], keyed, err = sys.buildFile(info, f, encoded, ts+int64(f))
			if err == nil && f == 0 && root {
				files[n], err = sys.Store.BuildBulk(LockTableName(table), ts+int64(n), freeEntries(keyed))
			}
			return err
		}
	}
	if err := runPool(jobs); err != nil {
		return err
	}
	return sys.attach(files)
}

// BuildViews materializes every selected view (and its view-indexes) from
// the loaded base tables, then major-compacts everything — the population
// procedure of §IX-D1. Every view file's stamp is reserved up front, in
// Design.Views order; each view's join and files are built on the worker
// pool, the views with the most base rows to scan first; and the built files
// attach in Design.Views order, up to the first view that failed (see the
// package comment).
func (sys *System) BuildViews() error {
	if sys.cfg.DisableViews {
		return sys.MajorCompactAll()
	}
	views := sys.Design.Views
	infos := make([]*phoenix.TableInfo, len(views))
	errs := make([]error, len(views))
	stamps := make([]int64, len(views))
	weight := make([]int, len(views))
	order := make([]int, len(views))
	nfiles := 0
	for i, v := range views {
		if infos[i], errs[i] = sys.Catalog.Table(v.Name()); errs[i] == nil {
			stamps[i] = int64(nfiles)
			nfiles += 1 + len(infos[i].Indexes)
		}
		for _, rel := range v.Relations {
			weight[i] += sys.Store.RowEstimate(rel) // the join's work
		}
		order[i] = i
	}
	ts := sys.Store.ReserveTS(nfiles)
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weight[b], weight[a]) })

	built := make([][]*hbase.BulkFiles, len(views))
	jobs := make([]func() error, len(views))
	for k, i := range order {
		jobs[k] = func() error {
			if errs[i] == nil {
				built[i], errs[i] = sys.buildView(views[i], infos[i], ts+stamps[i])
			}
			return errs[i]
		}
	}
	runPool(jobs)
	for i, v := range views {
		if errs[i] != nil {
			return fmt.Errorf("synergy: building %s: %w", v.DisplayName(), errs[i])
		}
		if err := sys.attach(built[i]); err != nil {
			return err
		}
	}
	return sys.MajorCompactAll()
}

// runPool runs jobs on up to GOMAXPROCS goroutines, each taking the next job
// not yet taken, and returns, once all have returned, the first job's error
// that is not nil.
func runPool(jobs []func() error) error {
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				errs[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// buildView computes a view's contents by joining down its path, one scan
// per relation, and builds its files: the view's at stamp ts, then each
// index's at the stamps after it. A level's joined rows are indexed by the
// relation's row key and the next relation's rows probe that index with the
// key of their foreign-key cells.
func (sys *System) buildView(v *core.View, info *phoenix.TableInfo, ts int64) ([]*hbase.BulkFiles, error) {
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
	files := make([]*hbase.BulkFiles, 1+len(info.Indexes))
	for f := range files {
		var err error
		if files[f], _, err = sys.buildFile(info, f, rows, ts+int64(f)); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// buildFile keys a table's encoded rows for its file f, 0 the table's own
// and f > 0 its (f-1)th index's, and builds the file at stamp ts. It
// returns the keyed rows too.
func (sys *System) buildFile(info *phoenix.TableInfo, f int, rows [][]hbase.Cell, ts int64) (*hbase.BulkFiles, []hbase.BulkRow, error) {
	name, idx := info.Name, (*phoenix.IndexInfo)(nil)
	if f > 0 {
		idx = info.Indexes[f-1]
		name = idx.Name
	}
	keyed, err := keyRows(info, idx, rows)
	if err != nil {
		return nil, nil, err
	}
	file, err := sys.Store.BuildBulk(name, ts, keyed)
	return file, keyed, err
}

// keyRows keys a table's encoded rows for one of its files, the table's own
// (idx nil) or an index's, sorted by key. The keys are cut from one string
// and a covered index entry is the row's own cell slice, so a row costs no
// allocation here.
func keyRows(info *phoenix.TableInfo, idx *phoenix.IndexInfo, rows [][]hbase.Cell) ([]hbase.BulkRow, error) {
	out := make([]hbase.BulkRow, len(rows))
	ends := make([]int, len(rows))
	var keys, key []byte
	for i, row := range rows {
		key, out[i].Cells = key[:0], row
		if idx != nil {
			key, _ = phoenix.AppendKeyOfCells(key, row, idx.On)
			out[i].Cells = phoenix.IndexCells(info, idx, row, nil)
		}
		var null bool
		if key, null = phoenix.AppendKeyOfCells(key, row, info.Key); null {
			return nil, fmt.Errorf("%w: a %s row lacks one of %v", phoenix.ErrKeyNotSpecified, info.Name, info.Key)
		}
		keys = append(keys, key...)
		ends[i] = len(keys)
	}
	all, at := string(keys), 0
	for i := range out {
		out[i].Key, at = all[at:ends[i]], ends[i]
	}
	// Rows already in strictly ascending key order, as generated base rows
	// are, are what the sort would leave; equal keys keep the sort's order.
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			slices.SortFunc(out, func(a, b hbase.BulkRow) int { return strings.Compare(a.Key, b.Key) })
			break
		}
	}
	return out, nil
}

// attach installs built files in order.
func (sys *System) attach(files []*hbase.BulkFiles) error {
	for _, f := range files {
		if err := sys.Store.Attach(f); err != nil {
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
