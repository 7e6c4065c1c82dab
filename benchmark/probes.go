package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"synergy/internal/hbase"
	"synergy/internal/mvcc"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// The unit probes fill in what no depth of the peel isolates: one exported
// call of one package, timed in a loop on the live deployment with the
// traffic stopped.

// timeEach runs f n times and returns the per-call microseconds.
func timeEach(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, nil
}

func runProbes(rep *runReport, l *live) error {
	sys := l.d.sys
	hc := sys.Engine.Client()
	rng := sim.NewRNG(rep.Seed).Derive("probes")

	// The point-read table: Item where there is one, Customer otherwise.
	table, pk, rows := "Item", "i_id", l.g.card.Items
	if l.g.scanRows > 0 {
		table, pk, rows = "Customer", "c_id", l.g.scanRows
	}

	// server: prepare round trip, admission counters.
	var prepares []float64
	for _, cl := range l.clients {
		prepares = append(prepares, cl.prepareUS...)
	}
	rep.emit("server.prepare_us_p50", "us", median(prepares))
	adm := l.d.srv.Stats().Admission
	rep.emit("server.admission_queued", "count", float64(adm.Queued))
	rep.emit("server.admission_rejected", "count", float64(adm.Rejected))
	var admErr error
	if adm.Rejected != 0 {
		admErr = fmt.Errorf("%d statements rejected by the admission gate with %d connections", adm.Rejected, conns)
	}
	rep.check("admission_idle", admErr)

	// server: row encoding, on full scans of Customer — wire against
	// session, alternating, over the same rows.
	scanSQL := "SELECT * FROM Customer"
	scanSel, err := sqlparser.ParseSelect(scanSQL)
	if err != nil {
		return err
	}
	var wireUS, sessUS []float64
	var scanRows, scanBytes int64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		rs, err := l.clients[0].c.QueryStream(scanSQL)
		if err != nil {
			return err
		}
		scanRows, scanBytes = 0, 0
		for rs.Next() {
			scanRows++
			scanBytes += int64(len(rs.RawBytes())) + 4
		}
		if err := rs.Close(); err != nil {
			return err
		}
		wireUS = append(wireUS, us(time.Since(t0)))

		ctx := sim.NewCtx()
		t0 = time.Now()
		cur, err := sys.QueryStream(ctx, scanSel, nil)
		if err != nil {
			return err
		}
		if _, err := drain(ctx, cur, nil); err != nil {
			return err
		}
		sessUS = append(sessUS, us(time.Since(t0)))
	}
	rep.emit("server.encode_ns_per_row", "ns", ratio((median(wireUS)-median(sessUS))*1000, float64(scanRows)))
	rep.emit("server.bytes_per_row", "bytes", ratio(float64(scanBytes), float64(scanRows)))

	// sqlparser: the 28 TPC-W texts.
	texts := tpcw.WorkloadSQL()
	parse, err := timeEach(200, func(int) error {
		for _, sql := range texts {
			if _, err := sqlparser.Parse(sql); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.emit("sqlparser.parse_us_per_stmt", "us", median(parse)/float64(len(texts)))

	// synergy: one uncontended lock cycle on an existing root row.
	lockKey := schema.EncodeKey(int64(1))
	lock, err := timeEach(200, func(int) error {
		ctx := sim.NewCtx()
		if err := sys.Locks.Acquire(ctx, "Customer", lockKey); err != nil {
			return err
		}
		return sys.Locks.Release(ctx, "Customer", lockKey)
	})
	if err != nil {
		return err
	}
	rep.emit("synergy.lock_pair_us", "us", median(lock))

	// phoenix: the per-statement floor — plan plus one get that finds
	// nothing.
	pointSel, err := sqlparser.ParseSelect(fmt.Sprintf("SELECT * FROM %s WHERE %s = ?", table, pk))
	if err != nil {
		return err
	}
	absent := []schema.Value{int64(1) << 40}
	empty, err := timeEach(200, func(int) error {
		ctx := sim.NewCtx()
		opts, done := modeRead(sys, ctx)
		defer done()
		cur, err := sys.Engine.QueryStreamOpts(ctx, pointSel, absent, opts)
		if err != nil {
			return err
		}
		n, err := drain(ctx, cur, nil)
		if err == nil && n != 0 {
			err = fmt.Errorf("absent key returned %d rows", n)
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.emit("phoenix.exec_us_empty_point", "us", median(empty))

	// hbase: point gets on random keys of the point-read table.
	var got []hbase.RowResult
	gets, err := timeEach(200, func(int) error {
		res, err := hc.Get(sim.NewCtx(), table, schema.EncodeKey(int64(rng.IntRange(1, rows))), hbase.ReadOpts{})
		if err == nil && res.Empty() {
			err = fmt.Errorf("loaded %s row missing", table)
		}
		got = append(got, res.Clone())
		return err
	})
	if err != nil {
		return err
	}
	rep.emit("hbase.get_us_p50", "us", median(gets))

	// phoenix: the row codec, over the rows just fetched.
	const codecRounds = 50
	decoded := make([]schema.Row, len(got))
	t0 := time.Now()
	for k := 0; k < codecRounds; k++ {
		for i, res := range got {
			decoded[i] = phoenix.CellsToRow(res)
		}
	}
	rep.emit("phoenix.decode_ns_per_row", "ns", float64(time.Since(t0).Nanoseconds())/float64(codecRounds*len(got)))
	var cells int
	t0 = time.Now()
	for k := 0; k < codecRounds; k++ {
		for _, row := range decoded {
			cells += len(phoenix.RowToCells(row))
		}
	}
	rep.emit("phoenix.encode_ns_per_row", "ns", float64(time.Since(t0).Nanoseconds())/float64(codecRounds*len(got)))
	if cells == 0 {
		return fmt.Errorf("row codec probe encoded nothing")
	}

	// hbase: a full client scan of Customer.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	sc, err := hc.Scan(sim.NewCtx(), "Customer", hbase.ScanSpec{})
	if err != nil {
		return err
	}
	ctx := sim.NewCtx()
	var scanned int
	for {
		if _, ok := sc.Next(ctx); !ok {
			break
		}
		scanned++
	}
	sc.Close(ctx)
	took := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rep.emit("hbase.scan_rows_per_s", "rows/s", ratio(float64(scanned), took.Seconds()))
	rep.emit("hbase.scan_allocs_per_krow", "count", ratio(float64(m1.Mallocs-m0.Mallocs), float64(scanned)/1000))

	// hbase: batched puts into a scratch table.
	const scratch, batch = "zz_benchmark_scratch", 64
	if !sys.Store.HasTable(scratch) {
		if err := sys.Store.CreateTable(hbase.TableSpec{Name: scratch}); err != nil {
			return err
		}
	}
	payload := []byte("0123456789abcdef0123456789abcdef")
	muts, err := timeEach(50, func(i int) error {
		b := make([]hbase.Mutation, batch)
		for k := range b {
			b[k] = hbase.Mutation{Table: scratch, Key: schema.EncodeKey(int64(i*batch + k)),
				Cells: []hbase.Cell{{Qualifier: "v", Value: payload}}}
		}
		return hc.MutateBatch(sim.NewCtx(), b)
	})
	if err != nil {
		return err
	}
	rep.emit("hbase.mutate_us_per_mutation", "us", median(muts)/batch)

	// hbase: regions and the share of bytes that are not base tables.
	base := map[string]bool{}
	for _, t := range l.d.baseTables {
		base[t] = true
	}
	var regions int
	var baseBytes, total int64
	for _, t := range sys.Store.Tables() {
		if t == scratch {
			continue
		}
		regions += sys.Store.RegionCount(t)
		n := sys.Store.TableBytes(t)
		total += n
		if base[t] {
			baseBytes += n
		}
	}
	rep.emit("hbase.regions", "count", float64(regions))
	rep.emit("hbase.view_bytes_share", "fraction", ratio(float64(total-baseBytes), float64(total)))

	// mvcc: an empty begin/commit pair, on the deployment's transaction
	// server or, where there is none, on a standalone one (same code).
	srv := sys.MVCCServer
	if srv == nil {
		srv = mvcc.NewServer(sys.Store.Costs())
	}
	pair, err := timeEach(200, func(int) error {
		ctx := sim.NewCtx()
		return srv.Commit(ctx, srv.Begin(ctx))
	})
	if err != nil {
		return err
	}
	rep.emit("mvcc.begin_commit_pair_us", "us", median(pair))
	var conflictShare float64
	if sys.MVCCServer != nil {
		st := sys.MVCCServer.Stats()
		conflictShare = ratio(float64(st.Conflicts), float64(st.Begun))
	}
	rep.emit("mvcc.conflict_share", "fraction", conflictShare)

	// changefeed: every lane is off in all four workloads.
	var published int64
	if sys.Feed != nil {
		published = sys.Feed.Published()
	}
	rep.emit("changefeed.published", "count", float64(published))
	var feedErr error
	if published != 0 {
		feedErr = fmt.Errorf("%d deltas published with synchronous maintenance", published)
	}
	rep.check("changefeed_idle", feedErr)
	return nil
}

// contentionProbe is the one place connections share lock roots: every
// connection runs buy-confirm transactions over the same 8 customers and 8
// items, so root locks collide under hierarchical locking and commits
// conflict under MVCC. Its error share is reported per mechanism and gates
// nothing — today's failures there are scheduler-dependent engine defects
// (ROADMAP item 1), and this is where their fixes will show.
func contentionProbe(rep *runReport, l *live, cfg runConfig) error {
	share := map[synergy.ConcurrencyMode]float64{}
	if !cfg.spec.scanOnly && cfg.spec.name != "browse" {
		const hot = 8
		txns := cfg.scale.contendedTxns
		g := l.g
		g.overlap = true
		defer func() { g.overlap = false }()
		units := make([][]unit, conns)
		for w := 0; w < conns; w++ {
			rng := sim.NewRNG(cfg.seed).Derive(fmt.Sprintf("contention-%d", w))
			for i := 0; i < txns; i++ {
				// Every transaction takes its locks in one global order —
				// the customer, then the items' authors ascending — so
				// colliding transactions wait for each other and never
				// deadlock.
				items := [3]int64{int64(rng.IntRange(1, hot)), int64(rng.IntRange(1, hot)), int64(rng.IntRange(1, hot))}
				sort.Slice(items[:], func(i, j int) bool {
					return g.itemRow(items[i])["i_a_id"] < g.itemRow(items[j])["i_a_id"]
				})
				units[w] = append(units[w], g.buyConfirmOn(w, rng, int64(rng.IntRange(1, hot)), items))
			}
		}
		recs := make([]recorder, conns)
		errs := make([]error, conns)
		var wg sync.WaitGroup
		for w := range l.clients {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, errs[w] = l.clients[w].run(units[w], txns, 0, budget{}, &recs[w])
			}(w)
		}
		wg.Wait()
		var failed int
		for w := range recs {
			if errs[w] != nil {
				return errs[w]
			}
			failed += txns - len(recs[w].committed)
		}
		share[cfg.spec.mode] = float64(failed) / float64(conns*txns)
		rep.Samples["contended_txns"] = conns * txns
	}
	rep.emit("synergy.contended_txn_error_share", "fraction", share[synergy.Hierarchical])
	rep.emit("mvcc.contended_txn_error_share", "fraction", share[synergy.MVCC])
	return nil
}

// heapPerConn measures what a connection holds on the server: live heap with
// the connections open minus live heap after they closed, per connection.
// It closes the clients, so it runs last.
func heapPerConn(rep *runReport, l *live) {
	var open, closed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&open)
	n := len(l.clients)
	for _, cl := range l.clients {
		cl.c.Close()
	}
	l.clients = nil
	for deadline := time.Now().Add(2 * time.Second); l.d.srv.Stats().LiveConns > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&closed)
	rep.emit("server.heap_kib_per_conn", "KiB", (float64(open.HeapAlloc)-float64(closed.HeapAlloc))/1024/float64(n))
}
