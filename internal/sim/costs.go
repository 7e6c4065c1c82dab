package sim

// Costs is the latency calibration of the simulated testbed. Each constant
// is charged at the point where the corresponding real system pays it.
//
// The absolute values are calibrated against the anchors the paper reports
// directly (§IX):
//
//   - Figure 11: acquiring+releasing row locks from a cold client costs
//     342 ms for 10 locks, 571 ms for 100, 2182 ms for 1000 — i.e. a large
//     fixed client-connection/meta-lookup component plus ~1.9 ms per
//     checkAndPut cycle.
//   - §IX-D4: Phoenix-Tephra MVCC "adds an overhead of 800-900 ms to each
//     statement's execution time".
//   - Figure 10: at 50K customers a view scan is 6x (Q1) / 11.7x (Q2)
//     faster than the join algorithm.
//
// Everything else (RPC RTT, per-row and per-byte costs) uses plausible
// same-AZ EC2 magnitudes; only the *shape* of the results depends on them.
type Costs struct {
	// RPC is one client↔server round trip inside the cluster.
	RPC Micros
	// ConnectionSetup is the one-time cost a cold client pays before its
	// first RPC: connection establishment plus hbase:meta lookup. Charged
	// once per client unless the client is marked warm.
	ConnectionSetup Micros
	// MetaLookup is a region-location lookup on a meta cache miss.
	MetaLookup Micros

	// ScanOpen is the server-side cost of opening a region scanner
	// (store-file heap construction, seek to start key).
	ScanOpen Micros
	// ScanNextRow is the per-row server-side merge/filter cost.
	ScanNextRow Micros
	// GetSeek is the server-side cost of a point Get (block index + bloom
	// filter + block read).
	GetSeek Micros
	// PutApply is the server-side cost of applying one mutation to the
	// memstore.
	PutApply Micros
	// WALAppend is the cost of appending one edit to the write-ahead log,
	// including the HDFS replication pipeline hops.
	WALAppend Micros
	// CheckAndPut is the extra server-side cost of the atomic
	// read-compare-write used for lock acquisition (§IX-C), on top of the
	// RPC and PutApply costs.
	CheckAndPut Micros
	// MutateBatchOverhead is the per-batch server-side cost of a
	// multi-mutation RPC (request framing, region-server batch setup, one
	// WAL sync covering the whole batch), charged once per region batch on
	// top of the RPC round trip. Single-mutation batches skip it (and
	// MutatePerMutation): they charge exactly like an eager Put.
	MutateBatchOverhead Micros
	// MutatePerMutation is the marginal server-side cost of carrying one
	// extra mutation inside a batch RPC (unmarshalling + dispatch), charged
	// per mutation in addition to PutApply. It is what keeps very large
	// batches from being free.
	MutatePerMutation Micros
	// MutateMaxBatch caps the mutations sent in one batch RPC; larger
	// region groups split into multiple RPCs (HBase
	// hbase.client.write.buffer in rows rather than bytes).
	MutateMaxBatch int
	// PerByte is the network transfer cost per payload byte shipped
	// between nodes.
	PerByte PerByteCost

	// ScannerBatch is the number of rows fetched per scanner RPC
	// (Phoenix/HBase scanner caching).
	ScannerBatch int
	// ScanParallelism is the width of the Phoenix intra-query read pool: how
	// many units of a fanned-out scan run side by side, and how many of an
	// update's view locates overlap. Forks of either kind are joined at this
	// width, and a scan whose guideposts cut it into more pieces than this
	// runs as whole waves of it (hbase Scanner.cut).
	ScanParallelism int
	// ScanMergeChunk is the client-side cost of folding one batch of a
	// fanned-out scan into the key-ordered result stream. Units hold
	// disjoint key ranges, so the merge is per-chunk bookkeeping, not
	// per-row comparison work.
	ScanMergeChunk Micros

	// The join-algorithm costs below model the client-coordinated join
	// execution of the Phoenix-style SQL skin (§II-D). They are the
	// source of the view-scan vs join-algorithm gap in Figure 10: a view
	// scan streams rows; a join additionally deserializes, hashes,
	// probes and re-materializes every row in the single-threaded
	// client, and spills intermediate results between join stages.
	//
	// JoinBuildRow is charged per row inserted into a join hash table.
	JoinBuildRow Micros
	// JoinProbeRow is charged per probe-side row processed.
	JoinProbeRow Micros
	// IntermediateRow is charged per row of an intermediate join result
	// carried into a further join stage (materialize + re-read).
	IntermediateRow Micros
	// SpillPerByte is the cost of writing and re-reading intermediate
	// result bytes through the client's temp storage between stages.
	SpillPerByte PerByteCost
	// SortRow is the per-row, per-comparison-level cost of a client
	// sort: sorting n > 1 rows charges SortRow * n * bits.Len(n), i.e.
	// floor(log2 n) + 1 levels — one more than ceil(log2 n) when n is a
	// power of two (4,096 rows: 13 levels).
	SortRow Micros
	// AggRow is the per-row cost of hash aggregation.
	AggRow Micros
	// INLThreshold is the outer-row count above which the planner stops
	// using index nested-loop joins (per-row Get RPCs) and falls back to
	// hash joins over scans.
	INLThreshold int

	// MVCCBegin and MVCCCommit are the Tephra-like transaction-server
	// round trips (snapshot construction and two-phase commit with
	// conflict detection). Together they reproduce the 800-900 ms
	// per-statement MVCC overhead the paper measures.
	MVCCBegin  Micros
	MVCCCommit Micros

	// OCCBegin is the begin-timestamp fetch of an optimistic transaction —
	// one oracle round trip, the reason OCC's read path carries none of
	// the Tephra server's snapshot-construction weight.
	OCCBegin Micros
	// OCCValidate is the fixed commit-time validation round trip (Larson
	// et al. backward validation against recently committed write sets).
	OCCValidate Micros
	// OCCValidatePerEntry is the marginal validation cost per read-set or
	// write-set entry compared at commit.
	OCCValidatePerEntry Micros

	// NewSQLBase is the per-transaction cost of the VoltDB-like engine:
	// client round trip, command-log group commit, K-safety replication.
	NewSQLBase Micros
	// NewSQLRow is the per-row in-memory execution cost of the VoltDB-like
	// engine.
	NewSQLRow Micros
	// NewSQLMultiPartition is the additional coordination cost of a
	// multi-partition transaction (all partitions block).
	NewSQLMultiPartition Micros

	// TxnLayerHop is the client→Synergy-transaction-layer-slave hop for
	// write statements (Figure 7: writes are routed through the
	// transaction layer; reads go directly to HBase).
	TxnLayerHop Micros
	// LockRetryBackoff is the simulated wait before the first retry of a
	// contended checkAndPut lock acquisition; subsequent retries back off
	// exponentially up to LockRetryBackoffMax.
	LockRetryBackoff Micros
	// LockRetryBackoffMax caps the exponential lock-retry backoff.
	LockRetryBackoffMax Micros
	// DirtyRestartPenalty is charged when a scan observes a dirty-marked
	// row and restarts (§VIII-C).
	DirtyRestartPenalty Micros

	// AsyncQueueHop is charged to the writer when its committed view deltas
	// are handed to the changefeed — the enqueue hop onto the maintenance
	// lane, the only maintenance cost left on the client's critical path in
	// async mode.
	AsyncQueueHop Micros
	// AsyncApplyBatch is the per-batch overhead an applier worker pays to
	// drain one batch of deltas from a view's queue (dequeue, batch setup),
	// charged to the background apply context, not the writer.
	AsyncApplyBatch Micros
	// WatermarkWait is the fixed cost of one watermark-freshness check a
	// ReadWatermark reader pays when it finds a view behind its snapshot and
	// must wait for the applier (the wait itself additionally charges the
	// applier work the reader blocked on).
	WatermarkWait Micros

	// RegionMove is the cost of relocating one region between region
	// servers — closing it on the source, opening it on the destination and
	// updating hbase:meta — charged to the balancer's context, not to client
	// requests (in-flight operations drain against the old assignment).
	RegionMove Micros

	// WireConnect is the one-time cost of admitting one client connection
	// at the SQL wire listener: TCP accept, the handshake exchange and
	// session setup. Charged to the session's context at connect.
	WireConnect Micros
	// WirePacket is the fixed framing cost of one wire-protocol command
	// exchange (request decode + response encode + two packet headers),
	// charged once per client command.
	WirePacket Micros
	// WirePerByte is the transfer cost per response payload byte shipped
	// from the server to the client (result-set encoding dominates it).
	WirePerByte PerByteCost
}

// LockBackoff returns the simulated wait before retry number attempt
// (0-based) of a contended spin: exponential from LockRetryBackoff, capped
// at LockRetryBackoffMax (a zero cap keeps the historical fixed backoff).
// The lock manager's contended acquire and the OCC validation-conflict
// retry share this schedule.
func (c *Costs) LockBackoff(attempt int) Micros {
	d := c.LockRetryBackoff
	max := c.LockRetryBackoffMax
	if max <= 0 {
		return d
	}
	for ; attempt > 0 && d < max; attempt-- {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// PerByteCost is a cost expressed in simulated nanoseconds per byte, used
// where whole microseconds are too coarse (2 ≈ 500 MB/s, 40 ≈ 25 MB/s).
type PerByteCost int64

// Mul returns the cost of n bytes.
func (m PerByteCost) Mul(n int) Micros { return Micros(int64(n) * int64(m) / 1000) }

// DefaultCosts returns the calibration used by all experiments.
func DefaultCosts() *Costs {
	return &Costs{
		RPC:             FromMillis(0.35),
		ConnectionSetup: FromMillis(320),
		MetaLookup:      FromMillis(1.2),

		ScanOpen:    FromMillis(0.40),
		ScanNextRow: Micros(2),
		GetSeek:     FromMillis(0.25),
		PutApply:    Micros(15),
		WALAppend:   FromMillis(0.25),
		CheckAndPut: FromMillis(0.35),
		PerByte:     2, // 0.002 µs/byte ≈ 500 MB/s

		MutateBatchOverhead: FromMillis(0.10),
		MutatePerMutation:   Micros(3),
		MutateMaxBatch:      500,

		ScannerBatch:    1000,
		ScanParallelism: 8,
		ScanMergeChunk:  Micros(20),

		JoinBuildRow:    Micros(9),
		JoinProbeRow:    Micros(9),
		IntermediateRow: Micros(7),
		SpillPerByte:    40, // 0.04 µs/byte ≈ 25 MB/s effective spill
		SortRow:         Micros(1),
		AggRow:          Micros(2),
		INLThreshold:    2000,

		MVCCBegin:  FromMillis(410),
		MVCCCommit: FromMillis(440),

		OCCBegin:            FromMillis(0.35),
		OCCValidate:         FromMillis(0.5),
		OCCValidatePerEntry: Micros(2),

		NewSQLBase:           FromMillis(14),
		NewSQLRow:            Micros(1),
		NewSQLMultiPartition: FromMillis(9),

		TxnLayerHop:         FromMillis(0.5),
		LockRetryBackoff:    FromMillis(5),
		LockRetryBackoffMax: FromMillis(80),
		DirtyRestartPenalty: FromMillis(1),

		AsyncQueueHop:   FromMillis(0.05),
		AsyncApplyBatch: FromMillis(0.15),
		WatermarkWait:   FromMillis(0.25),

		RegionMove: FromMillis(25),

		WireConnect: FromMillis(0.5),
		WirePacket:  Micros(30),
		WirePerByte: 2, // 0.002 µs/byte ≈ 500 MB/s
	}
}
