package hbase

import (
	"sort"
	"sync/atomic"

	"synergy/internal/sim"
	"synergy/internal/zk"
)

// Balancer is the load-triggered region balancer: a ZooKeeper-elected
// coordinator that watches per-region load counters, performs load splits,
// and moves the hottest region off the hottest server when that strictly
// improves the spread — HBase's StochasticLoadBalancer reduced to the greedy
// move that matters for the paper's hot-region experiment.
//
// Only the elected leader acts; every Balancer instance joins the
// /hbase/balancer election on its own ZooKeeper session, so a second
// instance (another process in the real system) is a hot standby that takes
// over when the leader's session closes. Tick is the one way to balance:
// tests and experiments call it at deterministic points, on a context of
// their own, instead of a wall-clock timer or background loop firing
// nondeterministically.
type Balancer struct {
	hc   *HCluster
	sess *zk.Session
	elec *zk.Election

	moves  atomic.Int64
	splits atomic.Int64
}

// ServerLoad is one region server's summed load score in a balancer's view.
type ServerLoad struct {
	Server string
	Load   int64
}

// NewBalancer joins the balancer election on a fresh session against the
// deployment's ZooKeeper ensemble.
func (hc *HCluster) NewBalancer(name string) (*Balancer, error) {
	sess := hc.ens.NewSession()
	elec, err := zk.JoinElection(sess, "/hbase/balancer", name)
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &Balancer{hc: hc, sess: sess, elec: elec}, nil
}

// IsLeader reports whether this balancer holds the election.
func (b *Balancer) IsLeader() bool {
	lead, err := b.elec.IsLeader()
	return err == nil && lead
}

// Moves reports how many region moves this balancer has performed.
func (b *Balancer) Moves() int64 { return b.moves.Load() }

// Splits reports how many load splits this balancer's ticks have triggered
// (measured as region-count growth across its split passes).
func (b *Balancer) Splits() int64 { return b.splits.Load() }

// Close resigns the election and releases the session.
func (b *Balancer) Close() { b.sess.Close() }

// ServerLoads sums the decayed load score of every region per server, over
// all tables, sorted hottest first (ties lexicographic for determinism).
func (b *Balancer) ServerLoads() []ServerLoad {
	tally := make(map[string]int64)
	for _, s := range b.hc.Servers() {
		tally[s] = 0
	}
	for _, name := range b.hc.Tables() {
		t, err := b.hc.lookup(name)
		if err != nil {
			continue
		}
		for _, r := range t.regionsInRange("", "") {
			tally[r.Server()] += r.loadScore()
		}
	}
	out := make([]ServerLoad, 0, len(tally))
	for s, l := range tally {
		out = append(out, ServerLoad{Server: s, Load: l})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load > out[j].Load
		}
		return out[i].Server < out[j].Server
	})
	return out
}

// Tick runs one balancing pass, charging its coordination work to ctx (a
// background context, never a client request). A non-leader tick is a no-op.
// The pass: load splits first (a hot region might just be two hot halves),
// then at most one greedy move — the hottest region on the hottest server
// relocates to the coldest server, but only when that strictly narrows the
// hot/cold gap — then exponential decay of every region's counters, so
// sustained heat dominates history. Returns whether a move happened.
func (b *Balancer) Tick(ctx *sim.Ctx) bool {
	if !b.IsLeader() {
		return false
	}
	// Split pass: let hot regions halve before deciding moves.
	for _, name := range b.hc.Tables() {
		t, err := b.hc.lookup(name)
		if err != nil {
			continue
		}
		if t.spec.LoadSplitThreshold <= 0 {
			continue
		}
		before := b.hc.RegionCount(name)
		b.hc.splitIfNeeded(t)
		b.splits.Add(int64(b.hc.RegionCount(name) - before))
	}

	moved := b.moveOnce(ctx)

	// Decay after acting: the counters accumulated since the last tick have
	// been consumed; halving them keeps the score an exponentially weighted
	// window rather than an all-time total.
	for _, name := range b.hc.Tables() {
		t, err := b.hc.lookup(name)
		if err != nil {
			continue
		}
		for _, r := range t.regionsInRange("", "") {
			r.decayLoad()
		}
	}
	return moved
}

// moveOnce performs the greedy move if one strictly improves the spread.
func (b *Balancer) moveOnce(ctx *sim.Ctx) bool {
	loads := b.ServerLoads()
	if len(loads) < 2 {
		return false
	}
	hot, cold := loads[0], loads[len(loads)-1]
	if hot.Load <= cold.Load {
		return false
	}
	// Hottest region on the hottest server — but not one carrying so much
	// load that moving it just swaps which server is hot. Prefer the largest
	// score that still strictly narrows the gap.
	var (
		bestT     *table
		bestR     *Region
		bestScore int64 = -1
	)
	for _, name := range b.hc.Tables() {
		t, err := b.hc.lookup(name)
		if err != nil {
			continue
		}
		for _, r := range t.regionsInRange("", "") {
			if r.Server() != hot.Server {
				continue
			}
			s := r.loadScore()
			if s <= bestScore {
				continue
			}
			// Strict improvement: the destination must stay cooler than the
			// source was, or the move only trades places.
			if cold.Load+s >= hot.Load {
				continue
			}
			bestT, bestR, bestScore = t, r, s
		}
	}
	if bestR == nil || bestScore <= 0 {
		return false
	}
	b.hc.moveRegion(ctx, bestT, bestR, cold.Server)
	b.moves.Add(1)
	return true
}
