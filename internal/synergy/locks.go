package synergy

import (
	"errors"
	"fmt"
	"runtime"

	"synergy/internal/hbase"
	"synergy/internal/sim"
)

// lockQualifier is the single boolean column of a lock table (§VIII-A).
const lockQualifier = "l"

var (
	lockFree = []byte("0")
	lockHeld = []byte("1")
)

// ErrLockTimeout reports that a contended acquire exhausted
// LockManager.MaxAttempts; the serving layer maps it to MySQL error 1205.
var ErrLockTimeout = errors.New("synergy: lock wait timeout")

// LockTableName returns the lock table of a root relation.
func LockTableName(root string) string { return "LK_" + root }

// LockManager implements the hierarchical locking of §VIII-A: one lock table
// per root relation, with rows keyed like the root's rows and a boolean
// in-use column, acquired and released via checkAndPut.
type LockManager struct {
	store  *hbase.HCluster
	client *hbase.Client
	costs  *sim.Costs
	// tables names the lock table of each root (LockTableName), written by
	// CreateLockTables before any lock is taken and only read after.
	tables map[string]string
	// MaxAttempts bounds the acquire retry loop.
	MaxAttempts int
}

// NewLockManager builds a manager with a warm store client.
func NewLockManager(store *hbase.HCluster) *LockManager {
	return &LockManager{
		store:       store,
		client:      store.NewWarmClient(),
		costs:       store.Costs(),
		MaxAttempts: 100_000,
	}
}

// CreateLockTables creates one lock table per root.
func (lm *LockManager) CreateLockTables(roots []string) error {
	if lm.tables == nil {
		lm.tables = make(map[string]string, len(roots))
	}
	for _, r := range roots {
		if err := lm.store.CreateTable(hbase.TableSpec{Name: LockTableName(r)}); err != nil {
			return err
		}
		lm.tables[r] = LockTableName(r)
	}
	return nil
}

// table is LockTableName(root), built once per root.
func (lm *LockManager) table(root string) string {
	if t, ok := lm.tables[root]; ok {
		return t
	}
	return LockTableName(root)
}

// BulkCreateEntries creates free lock entries for bulk-loaded root rows,
// given sorted by key as they were loaded.
func (lm *LockManager) BulkCreateEntries(root string, rows []hbase.BulkRow) error {
	return lm.store.BulkLoad(LockTableName(root), freeEntries(rows))
}

// freeEntries are the free lock entries of rows, in their order.
func freeEntries(rows []hbase.BulkRow) []hbase.BulkRow {
	free := []hbase.Cell{{Qualifier: lockQualifier, Value: lockFree}}
	entries := make([]hbase.BulkRow, len(rows))
	for i, r := range rows {
		entries[i] = hbase.BulkRow{Key: r.Key, Cells: free}
	}
	return entries
}

// EnsureEntryDeferred folds the lock-table entry for a freshly inserted
// root row into the transaction's buffered mutator: the entry rides the
// commit flush as a create-if-absent CheckAndPut batch entry, replacing
// the three standalone lock RPCs the eager protocol pays per root insert
// (Acquire's guaranteed-miss checkAndPut plus its create-if-absent
// follow-up at statement time, and the Release checkAndPut at commit).
//
// The deferral is sound because a buffered transaction's new root row is
// unpublished until the mutator flushes: no concurrent transaction can
// resolve the group's key from the store, so there is nothing for the
// self-held lock to serialize during the transaction. Two guards keep the
// protocol airtight around that argument. First, a marked multi-row
// update's phase barrier publishes everything buffered mid-transaction —
// the transaction promotes every deferred entry to a held lock (AcquireNew)
// before its first barrier, restoring "row published ⟹ lock held until
// commit". Second, the deferred write is conditional: if a concurrent
// Acquire created the entry meanwhile (it falls back to create-if-absent, so
// acquirability never depended on the entry existing), the commit-time
// CheckAndPut(absent → free) no-ops instead of clobbering a held lock with a
// free one.
//
// Like the paper's insert applicability rule, this assumes inserts carry
// fresh keys: an insert that silently upserts a live, contended root key
// serializes against the group's writers only under SequentialWrites.
func (lm *LockManager) EnsureEntryDeferred(ctx *sim.Ctx, m *hbase.BufferedMutator, root, key string) error {
	return m.CheckAndPut(ctx, lm.table(root), key, lockQualifier, nil,
		hbase.Cell{Qualifier: lockQualifier, Value: lockFree}, nil)
}

// ReleaseDeferred buffers the release of a held lock into m: a conditional
// held→free put that ships with m's next flush, when freed learns whether
// the lock was held. A transaction frees all its locks this way in one flush
// (Tx.releaseLocks) and names each one that was not with errNotHeld.
func (lm *LockManager) ReleaseDeferred(ctx *sim.Ctx, m *hbase.BufferedMutator, root, key string, freed *bool) error {
	return m.CheckAndPut(ctx, lm.table(root), key, lockQualifier, lockHeld,
		hbase.Cell{Qualifier: lockQualifier, Value: lockFree}, freed)
}

// errNotHeld reports the release of a lock that was not held: freed from
// under its holder, or never taken.
func errNotHeld(root, key string) error {
	return fmt.Errorf("synergy: release of %s/%q: lock not held", root, key)
}

// AcquireNew takes the lock on a root key whose entry is expected to be
// absent — the promotion path for a deferred fresh-root-insert entry (see
// EnsureEntryDeferred). It tries create-if-absent first, so the expected
// case is one checkAndPut instead of a guaranteed-miss attempt against a
// missing entry followed by the creating one; if the entry does exist
// after all, it falls back to the contended acquire loop.
func (lm *LockManager) AcquireNew(ctx *sim.Ctx, root, key string) error {
	ok, err := lm.client.CheckAndPut(ctx, lm.table(root), key, lockQualifier, nil,
		hbase.Cell{Qualifier: lockQualifier, Value: lockHeld})
	if err != nil {
		return err
	}
	if ok {
		ctx.CountLock()
		return nil
	}
	return lm.acquire(ctx, lm.client, root, key)
}

// Acquire takes the lock on a root row key, spinning with capped exponential
// simulated backoff while contended (§IX-C uses the same checkAndPut
// mechanism). The client
// may be cold — the Figure 11 experiment measures exactly that path via
// AcquireWith.
func (lm *LockManager) Acquire(ctx *sim.Ctx, root, key string) error {
	return lm.acquire(ctx, lm.client, root, key)
}

// AcquireWith acquires using a caller-supplied (possibly cold) client.
func (lm *LockManager) AcquireWith(ctx *sim.Ctx, client *hbase.Client, root, key string) error {
	return lm.acquire(ctx, client, root, key)
}

// backoff returns the simulated wait before retry number attempt (0-based):
// the shared capped exponential schedule of Costs.LockBackoff.
func (lm *LockManager) backoff(attempt int) sim.Micros {
	return lm.costs.LockBackoff(attempt)
}

func (lm *LockManager) acquire(ctx *sim.Ctx, client *hbase.Client, root, key string) error {
	tbl := lm.table(root)
	for attempt := 0; attempt < lm.MaxAttempts; attempt++ {
		ok, err := client.CheckAndPut(ctx, tbl, key, lockQualifier, lockFree,
			hbase.Cell{Qualifier: lockQualifier, Value: lockHeld})
		if err != nil {
			return err
		}
		if ok {
			ctx.CountLock()
			return nil
		}
		// Entry may not exist yet (root row inserted concurrently or
		// lock table sparse): try create-if-absent.
		ok, err = client.CheckAndPut(ctx, tbl, key, lockQualifier, nil,
			hbase.Cell{Qualifier: lockQualifier, Value: lockHeld})
		if err != nil {
			return err
		}
		if ok {
			ctx.CountLock()
			return nil
		}
		ctx.Charge(lm.backoff(attempt))
		runtime.Gosched()
	}
	return fmt.Errorf("%w: %s/%q after %d attempts", ErrLockTimeout, root, key, lm.MaxAttempts)
}

// Release frees the lock.
func (lm *LockManager) Release(ctx *sim.Ctx, root, key string) error {
	return lm.ReleaseWith(ctx, lm.client, root, key)
}

// ReleaseWith releases using a caller-supplied client.
func (lm *LockManager) ReleaseWith(ctx *sim.Ctx, client *hbase.Client, root, key string) error {
	ok, err := client.CheckAndPut(ctx, lm.table(root), key, lockQualifier, lockHeld,
		hbase.Cell{Qualifier: lockQualifier, Value: lockFree})
	if err != nil {
		return err
	}
	if !ok {
		return errNotHeld(root, key)
	}
	return nil
}
