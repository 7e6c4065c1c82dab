// Package cluster models the physical testbed of the paper's evaluation
// (§IX-A): a set of named nodes connected by a uniform-latency network, as
// in a single EC2 placement group. Every layer above it — sdfs, zk, hbase,
// the transaction servers — builds its communication on this package, so it
// is where distributed work turns into simulated time.
//
// A Cluster is a registry of Nodes, each carrying a Role mirroring the
// paper's layout (master, slave, transaction server, client). Communication
// charges the calling request's sim.Ctx: RPC charges a fixed round-trip
// between two nodes, Transfer adds per-byte cost for bulk data movement,
// and local calls (same node) are free, exactly as the testbed's
// co-located daemons would be.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"synergy/internal/sim"
)

// Role describes what a node hosts, mirroring the paper's testbed layout.
type Role string

const (
	RoleMaster Role = "master" // NameNode + HMaster + ZooKeeper + Synergy master
	RoleSlave  Role = "slave"  // DataNode + RegionServer (+ VoltDB daemon)
	RoleTxn    Role = "txn"    // Synergy transaction-layer slave + Tephra server
	RoleClient Role = "client" // workload driver
)

// Node is one machine in the simulated cluster.
type Node struct {
	Name string
	Role Role
}

// Cluster is a set of nodes plus the latency model connecting them.
type Cluster struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	costs *sim.Costs
}

// New creates an empty cluster with the given latency calibration.
func New(costs *sim.Costs) *Cluster {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Cluster{nodes: make(map[string]*Node), costs: costs}
}

// NewDefault builds the eight node topology of §IX-A1: one master node, five
// slaves, one transaction-layer node and one client.
func NewDefault(costs *sim.Costs) *Cluster {
	c := New(costs)
	c.AddNode("master-0", RoleMaster)
	for i := 0; i < 5; i++ {
		c.AddNode(fmt.Sprintf("slave-%d", i), RoleSlave)
	}
	c.AddNode("txn-0", RoleTxn)
	c.AddNode("client-0", RoleClient)
	return c
}

// Costs exposes the latency calibration shared by all layers.
func (c *Cluster) Costs() *sim.Costs { return c.costs }

// AddNode registers a node. Adding a duplicate name is an error the caller
// made; it panics, as a mis-built topology cannot be recovered from.
func (c *Cluster) AddNode(name string, role Role) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.nodes[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate node %q", name))
	}
	n := &Node{Name: name, Role: role}
	c.nodes[name] = n
	return n
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[name]
}

// Nodes returns all nodes with the given role, sorted by name for
// determinism.
func (c *Cluster) Nodes(role Role) []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Node
	for _, n := range c.nodes {
		if n.Role == role {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Size reports the number of nodes.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// RPC charges one request/response round trip carrying payload bytes between
// two nodes. Same-node calls are loopback and charge only a token cost.
func (c *Cluster) RPC(ctx *sim.Ctx, from, to string, payload int) {
	ctx.CountRPC()
	if from == to {
		ctx.Charge(c.costs.RPC / 10)
		return
	}
	ctx.Charge(c.costs.RPC)
	c.Transfer(ctx, from, to, payload)
}

// Transfer charges the bandwidth cost of moving payload bytes between nodes
// without a round trip (streaming within an established connection).
func (c *Cluster) Transfer(ctx *sim.Ctx, from, to string, payload int) {
	if from == to || payload <= 0 {
		return
	}
	ctx.CountBytesMoved(payload)
	ctx.Charge(c.costs.PerByte.Mul(payload))
}
