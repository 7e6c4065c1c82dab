// Package server is Synergy's serving layer: a MySQL-compatible wire
// listener driving one synergy.Session per connection, with admission
// control above the engine.
//
// The wire protocol is the MySQL client/server protocol 4.1 subset a
// database/sql-shaped client needs: handshake, COM_QUERY with text result
// sets, COM_STMT_PREPARE/EXECUTE/CLOSE with binary result sets, COM_PING
// and COM_QUIT. Intentional deviations from the real protocol are listed in
// docs/PROTOCOL.md.
//
// One connection owns one synergy.Session — the transaction context, the
// same type in every concurrency mode: BEGIN/COMMIT/ROLLBACK with autocommit
// on top (outside an explicit transaction every write runs as its own
// WAL-logged transaction and every read as its own snapshot). Connections
// pick their concurrency mode (`SET synergy_mode`) by switching between the
// server's named backends — one deployed synergy.System per mode — and their
// freshness contract (`SET synergy_reads`) per session; the contract follows
// the connection across a mode switch.
//
// COM_STMT_PREPARE compiles a SELECT once (Session.Prepare: the view rewrite
// and the parameter-free plan) and answers with its result columns;
// COM_STMT_EXECUTE binds and runs it (Session.Open), compiling it again after
// a mode switch moved the connection to another backend. COM_QUERY does both.
//
// Above the sessions sits the admission Gate: a fixed number of statement
// execution slots plus a bounded wait queue. Overload queues callers with
// backpressure instead of melting the engine; past the queue bound the
// server fails fast with a clean "too many connections" error, and a
// mid-transaction disconnect rolls the session's transaction back, releasing
// its locks and snapshots.
//
// All engine work is charged to a per-session sim.Ctx, so wire-served
// latencies are as deterministic as in-process ones; the per-session total
// is readable as `SELECT @@synergy_sim_micros`.
package server
