package hbase

import (
	"slices"

	"synergy/internal/sim"
)

// scanUnit is one forked piece of a fanned-out scan: region r's share of the
// range from the key the walk enters at (from) to the bound it leaves at
// (end), charged to its own ctx. Scanner.cut sizes the units so they run in
// whole waves of even depth: a 20,000-row region is one wave of eight units of
// 2,500 rows, not ten of 2,000 in two waves. A unit that ends at a cut walks
// up to it; the unit holding the range's far bound walks to the region's edge,
// as a region's whole share does, and the client trims what lies past the
// range. Going backward a cut is a unit's inclusive lower bound and the next
// unit enters at it as its exclusive upper one, as beyond and newRowMerger
// read them.
//
// The consumer walks the units one after another in scan order; join charges
// them as the read pool would have run them, side by side.
type scanUnit struct {
	r         *Region
	from, end string
	ctx       sim.Ctx
}

// cut returns the units of a fanned-out scan, nil when it would be one unit,
// which is the scan walked whole. The scan's U units are the pieces its
// regions' shares hold (share.pieces: the guidepost intervals each touches,
// at least one per region). Up to Costs.ScanParallelism it gets all U; above
// that, the whole waves U holds — the width times U/width, but never fewer
// units than regions, since no unit crosses one. Each unit beyond a region's
// first goes to the region whose units run deepest and can still be cut
// finer, and a region's units split its share evenly (share.cut), so the
// deepest unit, which sets the makespan, is as shallow as it can be. The
// units are appended to buf, the last scan's units emptied.
func (s *Scanner) cut(buf []scanUnit) []scanUnit {
	lo, hi := s.from, s.to // the range Scan took from the spec, in scan order
	if s.spec.Reversed {
		lo, hi = hi, lo
	}
	var small [8]share // the common region counts need no allocation
	shares := small[:0]
	n := 0
	for i := range s.regions {
		sh := s.region(i).share(lo, hi)
		sh.units = 1
		shares = append(shares, sh)
		n += sh.pieces()
	}
	if width := s.client.hc.costs.ScanParallelism; n > width {
		n = max(len(shares), n/width*width)
	}
	if n < 2 {
		return nil
	}
	for range n - len(shares) {
		best := -1
		for i, sh := range shares {
			if sh.units < sh.pieces() && (best < 0 || sh.deeper(shares[best])) {
				best = i
			}
		}
		shares[best].units++
	}
	units := slices.Grow(buf[:0], n)
	rev := s.spec.Reversed
	for i, sh := range shares {
		r := s.region(i)
		from := s.entry(r)
		for j := 1; j <= sh.units; j++ {
			end := r.edge(rev)
			switch {
			case j == sh.units:
			case rev:
				end = sh.cut(sh.units - j)
			default:
				end = sh.cut(j)
			}
			units = append(units, scanUnit{r: r, from: from, end: end})
			from = end
		}
	}
	return units
}

// join folds the units' forks into the request once, at the scan's end or
// Close: their makespan at the configured width, less what the first row
// already charged, plus the client-side merge of every chunk handed out.
// Units the scan never reached did no work and add nothing.
func (s *Scanner) join(ctx *sim.Ctx) {
	if s.units == nil || s.joined {
		return
	}
	s.joined = true
	costs := s.client.hc.costs
	ctx.JoinLanes(&s.pool, costs.ScanParallelism, len(s.units), func(i int) *sim.Ctx { return &s.units[i].ctx })
	ctx.Charge(sim.Micros(s.chunks * int64(costs.ScanMergeChunk)))
}
