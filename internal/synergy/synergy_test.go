package synergy

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"synergy/internal/core"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// companySystem deploys the Company schema with a small deterministic
// dataset: 4 addresses, 2 departments, 6 employees, 2 projects, works_on
// rows, dependents.
func companySystem(t *testing.T) *System {
	t.Helper()
	return companySystemWith(t, Config{})
}

// companySystemWith is companySystem deployed with cfg.
func companySystemWith(t testing.TB, cfg Config) *System {
	t.Helper()
	workload := append(schema.CompanyWorkload(),
		"UPDATE Employee SET EName = ? WHERE EID = ?", // forces a maintenance index
	)
	sys, err := New(schema.Company(), schema.CompanyRoots(), workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var addresses, departments, employees, projects, worksOn, dependents []schema.Row
	for a := int64(1); a <= 4; a++ {
		addresses = append(addresses, schema.Row{
			"AID": a, "Street": fmt.Sprintf("street-%d", a), "City": "Springfield", "Zip": fmt.Sprintf("%05d", a),
		})
	}
	for d := int64(1); d <= 2; d++ {
		departments = append(departments, schema.Row{"DNo": d, "DName": fmt.Sprintf("dept-%d", d)})
	}
	for e := int64(1); e <= 6; e++ {
		employees = append(employees, schema.Row{
			"EID": e, "EName": fmt.Sprintf("emp-%d", e),
			"EHome_AID": (e % 4) + 1, "EOffice_AID": ((e + 1) % 4) + 1, "E_DNo": (e % 2) + 1,
		})
	}
	for p := int64(1); p <= 2; p++ {
		projects = append(projects, schema.Row{"PNo": p, "PName": fmt.Sprintf("proj-%d", p), "P_DNo": p})
	}
	for e := int64(1); e <= 6; e++ {
		for p := int64(1); p <= 2; p++ {
			worksOn = append(worksOn, schema.Row{"WO_EID": e, "WO_PNo": p, "Hours": (e*10 + p)})
		}
	}
	dependents = append(dependents, schema.Row{"DP_EID": int64(1), "DPName": "kid", "DPHome_AID": int64(2)})

	for table, rows := range map[string][]schema.Row{
		"Address": addresses, "Department": departments, "Employee": employees,
		"Project": projects, "Works_On": worksOn, "Dependent": dependents,
	} {
		if err := sys.LoadBase(table, rows); err != nil {
			t.Fatalf("load %s: %v", table, err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func companyW1(t *testing.T, sys *System, eid int64) []schema.Row {
	t.Helper()
	sel := sys.Design.Workload.Selects()[0]
	rs, err := sys.Query(sim.NewCtx(), sel, []schema.Value{eid})
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows
}

func TestViewContentsMatchBaseJoin(t *testing.T) {
	sys := companySystem(t)
	// W1 for employee 3: home address is (3 % 4) + 1 = 4.
	rows := companyW1(t, sys, 3)
	if len(rows) != 1 {
		t.Fatalf("W1 rows = %d, want 1", len(rows))
	}
	if rows[0]["Street"] != "street-4" || rows[0]["EName"] != "emp-3" {
		t.Fatalf("W1 row = %v", rows[0])
	}
}

func TestW2JoinsViewWithBaseTable(t *testing.T) {
	sys := companySystem(t)
	sel := sys.Design.Workload.Selects()[1]
	rs, err := sys.Query(sim.NewCtx(), sel, []schema.Value{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Department 1: employees with E_DNo == 1 are 2, 4, 6; each has 2
	// works_on rows.
	if len(rs.Rows) != 6 {
		t.Fatalf("W2 rows = %d, want 6", len(rs.Rows))
	}
	for _, r := range rs.Rows {
		if r["DName"] != "dept-1" {
			t.Fatalf("W2 row = %v", r)
		}
	}
}

func TestW3UsesViewIndex(t *testing.T) {
	sys := companySystem(t)
	sel := sys.Design.Workload.Selects()[2]
	rs, err := sys.Query(sim.NewCtx(), sel, []schema.Value{int64(31)})
	if err != nil {
		t.Fatal(err)
	}
	// Hours = 31 is employee 3, project 1.
	if len(rs.Rows) != 1 || rs.Rows[0]["EID"].(int64) != 3 {
		t.Fatalf("W3 rows = %v", rs.Rows)
	}
}

func TestInsertMaintainsViews(t *testing.T) {
	sys := companySystem(t)
	ctx := sim.NewCtx()
	// New employee 7 living at address 1.
	ins := sqlparser.MustParse("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) VALUES (?, ?, ?, ?, ?)")
	if err := sys.Exec(ctx, ins, []schema.Value{int64(7), "emp-7", int64(1), int64(2), int64(1)}); err != nil {
		t.Fatal(err)
	}
	rows := companyW1(t, sys, 7)
	if len(rows) != 1 || rows[0]["Street"] != "street-1" {
		t.Fatalf("view row after insert = %v", rows)
	}
	// Insert a works_on row: the view tuple needs the k-1 = 1 read of
	// Employee (§VII-A2).
	ins2 := sqlparser.MustParse("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)")
	if err := sys.Exec(ctx, ins2, []schema.Value{int64(7), int64(1), int64(99)}); err != nil {
		t.Fatal(err)
	}
	sel := sys.Design.Workload.Selects()[2]
	rs, _ := sys.Query(sim.NewCtx(), sel, []schema.Value{int64(99)})
	if len(rs.Rows) != 1 || rs.Rows[0]["EName"] != "emp-7" {
		t.Fatalf("Employee-Works_On after insert = %v", rs.Rows)
	}
}

func TestSingleLockPerTransaction(t *testing.T) {
	sys := companySystem(t)
	ctx := sim.NewCtx()
	ins := sqlparser.MustParse("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)")
	if err := sys.Exec(ctx, ins, []schema.Value{int64(2), int64(3), int64(55)}); err != nil {
		t.Fatal(err)
	}
	// The paper's core invariant (§III-2, §VIII-A): one lock per write
	// transaction.
	if got := ctx.Snapshot().Locks; got != 1 {
		t.Fatalf("locks per transaction = %d, want exactly 1", got)
	}
}

func TestDeletePropagatesToViews(t *testing.T) {
	sys := companySystem(t)
	ctx := sim.NewCtx()
	del := sqlparser.MustParse("DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?")
	if err := sys.Exec(ctx, del, []schema.Value{int64(3), int64(1)}); err != nil {
		t.Fatal(err)
	}
	sel := sys.Design.Workload.Selects()[2]
	rs, _ := sys.Query(sim.NewCtx(), sel, []schema.Value{int64(31)})
	if len(rs.Rows) != 0 {
		t.Fatalf("deleted works_on still in view: %v", rs.Rows)
	}
}

func TestUpdatePropagatesByViewKey(t *testing.T) {
	sys := companySystem(t)
	ctx := sim.NewCtx()
	up := sqlparser.MustParse("UPDATE Employee SET EName = ? WHERE EID = ?")
	if err := sys.Exec(ctx, up, []schema.Value{"renamed", int64(3)}); err != nil {
		t.Fatal(err)
	}
	// Address-Employee (last = Employee): by view key.
	rows := companyW1(t, sys, 3)
	if len(rows) != 1 || rows[0]["EName"] != "renamed" {
		t.Fatalf("Address-Employee after update = %v", rows)
	}
	// Employee-Works_On: multi-row via maintenance index.
	sel := sys.Design.Workload.Selects()[2]
	rs, _ := sys.Query(sim.NewCtx(), sel, []schema.Value{int64(31)})
	if len(rs.Rows) != 1 || rs.Rows[0]["EName"] != "renamed" {
		t.Fatalf("Employee-Works_On after update = %v", rs.Rows)
	}
}

func TestUpdateMultiRowUsesMaintenanceIndex(t *testing.T) {
	sys := companySystem(t)
	// The design must have derived a maintenance index for updates on
	// Employee within Employee-Works_On.
	var found bool
	for _, ix := range sys.Design.ViewIndexes {
		if ix.Maintenance && ix.View.DisplayName() == "Employee-Works_On" {
			found = true
		}
	}
	if !found {
		t.Fatal("maintenance index missing from design")
	}
}

func TestNoDirtyRowEverVisible(t *testing.T) {
	sys := companySystem(t)
	sel := sys.Design.Workload.Selects()[2] // scans Employee-Works_On via index or view
	full, err := sqlparser.ParseSelect("SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID and wo.Hours > 0")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: repeatedly rename employee 2 (multi-row view update)
		defer wg.Done()
		up := sqlparser.MustParse("UPDATE Employee SET EName = ? WHERE EID = ?")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("name-%d", i)
			if err := sys.Exec(sim.NewCtx(), up, []schema.Value{name, int64(2)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 30; i++ {
		ctx := sim.NewCtx()
		rs, err := sys.Query(ctx, full, nil)
		if err != nil {
			t.Fatalf("reader error (restart budget exceeded?): %v", err)
		}
		for _, r := range rs.Rows {
			if r[phoenix.DirtyQualifier] != nil {
				t.Fatalf("dirty marker leaked into results: %v", r)
			}
		}
		_ = sel
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentWritersSerializeOnRootLock(t *testing.T) {
	sys := companySystem(t)
	// Employees 2 and 6 share home address 3 -> same root row lock.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			up := sqlparser.MustParse("UPDATE Employee SET EName = ? WHERE EID = ?")
			eid := int64(2)
			if i%2 == 0 {
				eid = 6
			}
			if err := sys.Exec(sim.NewCtx(), up, []schema.Value{fmt.Sprintf("w%d", i), eid}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	// Both employees must have a consistent final name in base and views.
	for _, eid := range []int64{2, 6} {
		base, _ := sqlparser.ParseSelect("SELECT EName FROM Employee WHERE EID = ?")
		rs, err := sys.Engine.Query(sim.NewCtx(), base, []schema.Value{eid})
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("base read: %v %v", rs, err)
		}
		want := rs.Rows[0]["EName"]
		viewRows := companyW1(t, sys, eid)
		if len(viewRows) != 1 || viewRows[0]["EName"] != want {
			t.Fatalf("view/base divergence for %d: %v vs %v", eid, viewRows, want)
		}
	}
}

func TestReleaseWithoutHoldFails(t *testing.T) {
	sys := companySystem(t)
	if err := sys.Locks.Release(sim.NewCtx(), "Address", schema.EncodeKey(int64(1))); err == nil {
		t.Fatal("release of a free lock should fail")
	}
}

func TestRootKeyResolution(t *testing.T) {
	sys := companySystem(t)
	stmt := sqlparser.MustParse("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)")
	plan, err := core.PlanWrite(sys.Design, stmt)
	if err != nil {
		t.Fatal(err)
	}
	row := phoenix.RowToCells(schema.Row{"WO_EID": int64(3), "WO_PNo": int64(1), "Hours": int64(1)})
	key, err := sys.resolveRootKey(sim.NewCtx(), sys.Engine.Client(), nil, nil, plan, schema.EncodeKey(int64(3), int64(1)), row)
	if err != nil {
		t.Fatal(err)
	}
	// Employee 3's home address is 4.
	if want := schema.EncodeKey(int64(4)); key != want {
		t.Fatalf("root key = %q, want address 4", key)
	}
}

func TestTxnLayerFailover(t *testing.T) {
	sys := companySystem(t)
	ctx := sim.NewCtx()

	// Arm the crash hook on every slave so whichever gets the statement
	// dies after WAL append, before execution.
	for _, s := range sys.Txn.Slaves() {
		s.KillBeforeNextExec()
	}
	ins := sqlparser.MustParse("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) VALUES (?, ?, ?, ?, ?)")
	params := []schema.Value{int64(42), "phoenix-rise", int64(1), int64(1), int64(1)}
	if err := sys.Exec(ctx, ins, params); err == nil {
		t.Fatal("expected mid-transaction crash")
	}

	// The insert must not be visible yet.
	if rows := companyW1(t, sys, 42); len(rows) != 0 {
		t.Fatalf("uncommitted write visible before recovery: %v", rows)
	}

	// Master detects the dead slave and replays its WAL.
	recovered, err := sys.Txn.DetectAndRecover(sim.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if recovered == 0 {
		t.Fatal("no slave recovered")
	}
	rows := companyW1(t, sys, 42)
	if len(rows) != 1 || rows[0]["EName"] != "phoenix-rise" {
		t.Fatalf("WAL replay lost the write: %v", rows)
	}

	// The layer keeps accepting work afterwards.
	up := sqlparser.MustParse("UPDATE Employee SET EName = ? WHERE EID = ?")
	if err := sys.Exec(sim.NewCtx(), up, []schema.Value{"post-recovery", int64(42)}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReplaysQuotedLiteral: a slave logs the statement it runs as
// its printed text, and recovery parses that text again, so a string literal
// holding a quote must print with the quote doubled to come back whole.
func TestRecoveryReplaysQuotedLiteral(t *testing.T) {
	sys := companySystem(t)
	for _, s := range sys.Txn.Slaves() {
		s.KillBeforeNextExec()
	}
	ins := sqlparser.MustParse("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) VALUES (62, 'O''Brien', 1, 1, 1)")
	if err := sys.Exec(sim.NewCtx(), ins, nil); err == nil {
		t.Fatal("expected mid-transaction crash")
	}
	n, err := sys.Txn.DetectAndRecover(sim.NewCtx())
	if err != nil || n != 1 {
		t.Fatalf("recovered %d slaves, err %v; want 1, nil", n, err)
	}
	if rows := companyW1(t, sys, 62); len(rows) != 1 || rows[0]["EName"] != "O'Brien" {
		t.Fatalf("WAL replay of a quoted literal: %v, want EName O'Brien", rows)
	}
}

// TestRecoveryKeepsUnreplayedSlave: a dead slave whose WAL does not replay
// stays on the roster, dead, and the other dead slaves still recover in the
// same pass — none of their unfinished transactions is lost.
func TestRecoveryKeepsUnreplayedSlave(t *testing.T) {
	sys := companySystem(t)
	slaves := sys.Txn.Slaves()
	for _, s := range slaves {
		s.KillBeforeNextExec()
	}
	ins := sqlparser.MustParse("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) VALUES (?, ?, ?, ?, ?)")
	for _, eid := range []int64{51, 52} {
		params := []schema.Value{eid, fmt.Sprintf("crashed-%d", eid), int64(1), int64(1), int64(1)}
		if err := sys.Exec(sim.NewCtx(), ins, params); err == nil {
			t.Fatalf("insert %d: expected mid-transaction crash", eid)
		}
	}
	if slaves[0].Alive() || slaves[1].Alive() {
		t.Fatal("both slaves should be down")
	}
	survivor, lost := int64(51), int64(52)
	if wal, err := sys.FS.ReadAll(sim.NewCtx(), slaves[1].walPath); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(wal), "crashed-52") {
		survivor, lost = lost, survivor
	}
	// The first slave's log ends in a line no replay can parse.
	if err := sys.FS.Append(sim.NewCtx(), slaves[0].walPath, []byte("not a record\n")); err != nil {
		t.Fatal(err)
	}

	n, err := sys.Txn.DetectAndRecover(sim.NewCtx())
	if err == nil || n != 1 {
		t.Fatalf("first pass recovered %d slaves, error %v; want 1 and the first slave's replay error", n, err)
	}
	if rows := companyW1(t, sys, survivor); len(rows) != 1 {
		t.Fatalf("the second slave's unfinished insert was not replayed: %v", rows)
	}
	if rows := companyW1(t, sys, lost); len(rows) != 0 {
		t.Fatalf("a log that does not parse replayed a transaction: %v", rows)
	}
	if n, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err == nil || n != 0 {
		t.Fatalf("second pass recovered %d slaves, error %v; want 0 and the same replay error", n, err)
	}
	roster := sys.Txn.Slaves()
	if !slices.Contains(roster, slaves[0]) || slices.Contains(roster, slaves[1]) {
		t.Fatal("the roster should keep the unreplayed slave and drop the recovered one")
	}
}

// TestRecoveryResumesReplay: a replay that fails partway is resumed by the
// next pass from the transaction that failed; what it already re-executed
// runs once.
func TestRecoveryResumesReplay(t *testing.T) {
	sys := companySystem(t)
	for _, s := range sys.Txn.Slaves() {
		s.KillBeforeNextExec()
	}
	ins := sqlparser.MustParse("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) VALUES (?, ?, ?, ?, ?)")
	params := []schema.Value{int64(61), "resumed-61", int64(1), int64(1), int64(1)}
	if err := sys.Exec(sim.NewCtx(), ins, params); err == nil {
		t.Fatal("expected mid-transaction crash")
	}
	var dead *Slave
	for _, s := range sys.Txn.Slaves() {
		if !s.Alive() {
			dead = s
		}
	}
	// A second unfinished transaction that parses but cannot execute.
	bad := sqlparser.MustParse("INSERT INTO NoSuchTable (X) VALUES (?)")
	pending, err := encodeStatements(dead.seq.Add(1), []sqlparser.Statement{bad}, [][]schema.Value{{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.appendWAL(sim.NewCtx(), pending, +1); err != nil {
		t.Fatal(err)
	}

	for pass := 1; pass <= 2; pass++ {
		if n, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err == nil || n != 0 {
			t.Fatalf("pass %d recovered %d slaves, error %v; want 0 and the replay error", pass, n, err)
		}
	}
	if rows := companyW1(t, sys, 61); len(rows) != 1 {
		t.Fatalf("the replayable insert was not replayed: %v", rows)
	}
	wal, err := sys.FS.ReadAll(sim.NewCtx(), dead.heir.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(wal), "resumed-61"); n != 1 {
		t.Fatalf("the replayed insert ran %d times over two passes, want 1", n)
	}
}

// TestCommittedWALNotReplayed: neither an autocommitted write nor an
// interactive transaction is replayed once committed. The interactive commit
// logs the whole transaction, its statements and then its commit record, in
// one append to one slave's WAL.
func TestCommittedWALNotReplayed(t *testing.T) {
	sys := companySystem(t)
	ins := sqlparser.MustParse("INSERT INTO Department (DNo, DName) VALUES (?, ?)")
	if err := sys.Exec(sim.NewCtx(), ins, []schema.Value{int64(9), "dept-9"}); err != nil {
		t.Fatal(err)
	}
	wals := func() map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, s := range sys.Txn.Slaves() {
			data, err := sys.FS.ReadAll(sim.NewCtx(), s.walPath)
			if err != nil {
				t.Fatal(err)
			}
			out[s.walPath] = string(data)
		}
		return out
	}
	before := wals()
	stmts := []sqlparser.Statement{ins, sqlparser.MustParse("UPDATE Employee SET EName = ? WHERE EID = ?")}
	params := [][]schema.Value{{int64(10), "dept-10"}, {"renamed", int64(1)}}
	sess := sys.NewSession()
	if err := sess.Begin(sim.NewCtx()); err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		if err := sess.Exec(sim.NewCtx(), stmt, params[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Commit(sim.NewCtx()); err != nil {
		t.Fatal(err)
	}
	grown := 0
	for path, log := range wals() {
		added, ok := strings.CutPrefix(log, before[path])
		if !ok {
			t.Fatalf("%s was rewritten by the commit", path)
		}
		if added == "" {
			continue
		}
		grown++
		var recs []walRecord
		for _, line := range strings.Split(strings.TrimSuffix(added, "\n"), "\n") {
			var rec walRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		if len(recs) != len(stmts)+1 || !recs[len(stmts)].Commit {
			t.Fatalf("%s gained %d records %+v, want %d statements and a commit record", path, len(recs), recs, len(stmts))
		}
		for i, rec := range recs {
			if rec.TxID != recs[0].TxID || i < len(stmts) && rec.SQL != stmts[i].String() {
				t.Fatalf("%s record %d is %+v, want transaction %d's record of %q", path, i, rec, recs[0].TxID, stmts[min(i, len(stmts)-1)])
			}
		}
	}
	if grown != 1 {
		t.Fatalf("the commit appended to %d WALs, want 1", grown)
	}
	// Kill all slaves; recovery must not duplicate the committed insert
	// (idempotent here, but replay of committed txids must be skipped —
	// observable via the WAL length of the replacement slaves).
	for _, s := range sys.Txn.Slaves() {
		s.Kill()
	}
	if _, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err != nil {
		t.Fatal(err)
	}
	for _, s := range sys.Txn.Slaves() {
		n, err := sys.FS.Length(s.walPath)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("replacement slave WAL not empty (%d bytes): committed records were replayed", n)
		}
	}
}

// TestWALRollsOnlyPastFinishedTransactions: a slave's WAL is rolled once it
// is past walRollBytes and every transaction in it has its outcome record —
// and not a record earlier. Finished transactions push the log over the size
// twice: the first time nothing is pending and the log starts over; the
// second time one transaction has been logged but not finished, the log
// keeps growing past the size, and recovery still finds and replays it.
func TestWALRollsOnlyPastFinishedTransactions(t *testing.T) {
	sys := companySystem(t)
	s := sys.Txn.Slaves()[0]
	walLen := func() int64 {
		t.Helper()
		n, err := sys.FS.Length(s.walPath)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	up := sqlparser.MustParse("UPDATE Department SET DName = ? WHERE DNo = ?")
	bigName := strings.Repeat("n", walRollBytes/4)
	finishBig := func() {
		t.Helper()
		if err := s.ExecuteTxn(sim.NewCtx(), []sqlparser.Statement{up}, [][]schema.Value{{bigName, int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}

	rolled := false
	for i := 0; i < 6 && !rolled; i++ {
		before := walLen()
		finishBig()
		if rolled = walLen() < before; rolled && before < walRollBytes-walRollBytes/4-1024 {
			t.Fatalf("WAL rolled at %d bytes, below the roll size", before)
		}
	}
	if !rolled || walLen() != 0 {
		t.Fatalf("WAL holds %d bytes after six finished %d-byte transactions; it never rolled", walLen(), len(bigName))
	}

	// A transaction accepted and logged, its slave gone before executing it.
	ins := sqlparser.MustParse("INSERT INTO Employee (EID, EName, EHome_AID, EOffice_AID, E_DNo) VALUES (?, ?, ?, ?, ?)")
	pending, err := encodeStatements(s.seq.Add(1), []sqlparser.Statement{ins},
		[][]schema.Value{{int64(77), "logged-not-run", int64(1), int64(1), int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.appendWAL(sim.NewCtx(), pending, +1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		finishBig()
	}
	if n := walLen(); n < walRollBytes {
		t.Fatalf("WAL holds %d bytes: it rolled with a transaction unfinished", n)
	}
	s.Kill()
	if n, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err != nil || n != 1 {
		t.Fatalf("recovered %d slaves: %v", n, err)
	}
	if rows := companyW1(t, sys, 77); len(rows) != 1 || rows[0]["EName"] != "logged-not-run" {
		t.Fatalf("the unfinished transaction was not replayed from the long log: %v", rows)
	}
}

func TestDatabaseBytesGrowWithViews(t *testing.T) {
	baseline, err := New(schema.Company(), schema.CompanyRoots(), schema.CompanyWorkload(), Config{DisableViews: true})
	if err != nil {
		t.Fatal(err)
	}
	withViews := companySystem(t)
	// Same base rows into baseline.
	var employees []schema.Row
	for e := int64(1); e <= 6; e++ {
		employees = append(employees, schema.Row{
			"EID": e, "EName": fmt.Sprintf("emp-%d", e),
			"EHome_AID": (e % 4) + 1, "EOffice_AID": ((e + 1) % 4) + 1, "E_DNo": (e % 2) + 1,
		})
	}
	if err := baseline.LoadBase("Employee", employees); err != nil {
		t.Fatal(err)
	}
	if withViews.DatabaseBytes() <= baseline.DatabaseBytes() {
		t.Fatal("views should increase disk utilization (Table III)")
	}
}
