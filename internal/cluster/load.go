package cluster

import (
	"sort"
	"sync"

	"synergy/internal/sim"
)

// LoadModel is the per-server queueing model of the cluster: a virtual-time
// FCFS queue per node. When enabled, server-side work (seeks, scan rows,
// memstore applies, WAL syncs) charged through Cluster.ServerWork pays, on
// top of its service time, the wait behind the node's outstanding backlog —
// which is what makes a hot region server measurably slow and gives a
// balancer something to win.
//
// The model runs in simulated time, not wall-clock time: each node carries a
// busyUntil horizon, an arriving operation's start time is
// max(arrival, busyUntil), and busyUntil advances by the service time. The
// harness owns the clock — it issues a wave of requests (each request's
// arrival is the model's now plus the request's own elapsed time), then
// calls Advance with the wave's makespan so the backlog drains between
// waves. Results are deterministic as long as operations are issued in a
// deterministic order; wave harnesses issue sequentially from one goroutine.
//
// Disabled (the default), ServerWork charges exactly the service time, so
// every experiment that predates the model is byte-identical.
type LoadModel struct {
	mu      sync.Mutex
	enabled bool
	now     sim.Micros
	nodes   map[string]*nodeLoad
}

// nodeLoad is one server's queue state and cumulative service accounting.
type nodeLoad struct {
	busyUntil sim.Micros // virtual time at which the queue drains
	busy      sim.Micros // cumulative service time ever charged
	ops       int64
}

// NodeLoadStat is one server's load snapshot.
type NodeLoadStat struct {
	Node string
	// Busy is the cumulative service time the node has performed.
	Busy sim.Micros
	// Backlog is the outstanding queue (busyUntil - now), zero when drained.
	Backlog sim.Micros
	Ops     int64
}

// EnableQueueing turns the per-server queueing model on. There is
// deliberately no off switch: experiments opt in per deployment, and a
// mid-run disable would strand backlog.
func (c *Cluster) EnableQueueing() {
	c.load.mu.Lock()
	defer c.load.mu.Unlock()
	c.load.enabled = true
	if c.load.nodes == nil {
		c.load.nodes = make(map[string]*nodeLoad)
	}
}

// ServerWork charges w of server-side work performed on node to ctx. With
// the queueing model enabled the operation additionally waits out the
// node's backlog first — FCFS behind every operation that arrived earlier
// in virtual time — and the wait is recorded on the ctx's queue counters.
func (c *Cluster) ServerWork(ctx *sim.Ctx, node string, w sim.Micros) {
	if w <= 0 {
		return
	}
	c.load.mu.Lock()
	if !c.load.enabled {
		c.load.mu.Unlock()
		ctx.Charge(w)
		return
	}
	nl := c.load.nodes[node]
	if nl == nil {
		nl = &nodeLoad{}
		c.load.nodes[node] = nl
	}
	arrival := c.load.now + ctx.Elapsed()
	start := arrival
	if nl.busyUntil > start {
		start = nl.busyUntil
	}
	wait := start - arrival
	nl.busyUntil = start + w
	nl.busy += w
	nl.ops++
	c.load.mu.Unlock()
	if wait > 0 {
		ctx.Charge(wait)
		ctx.CountQueueWait(wait)
	}
	ctx.Charge(w)
}

// Advance moves the model's virtual clock forward by d — typically a wave
// harness passing the wave's makespan — so queued backlog drains between
// waves instead of compounding forever.
func (c *Cluster) Advance(d sim.Micros) {
	if d <= 0 {
		return
	}
	c.load.mu.Lock()
	defer c.load.mu.Unlock()
	c.load.now += d
}

// Now reports the model's virtual clock.
func (c *Cluster) Now() sim.Micros {
	c.load.mu.Lock()
	defer c.load.mu.Unlock()
	return c.load.now
}

// NodeLoads snapshots every node the model has seen work on, sorted by
// name for determinism.
func (c *Cluster) NodeLoads() []NodeLoadStat {
	c.load.mu.Lock()
	defer c.load.mu.Unlock()
	out := make([]NodeLoadStat, 0, len(c.load.nodes))
	for name, nl := range c.load.nodes {
		backlog := nl.busyUntil - c.load.now
		if backlog < 0 {
			backlog = 0
		}
		out = append(out, NodeLoadStat{Node: name, Busy: nl.busy, Backlog: backlog, Ops: nl.ops})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
