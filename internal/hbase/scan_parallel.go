package hbase

import "synergy/internal/sim"

// scanUnit is one forked piece of a fanned-out scan: region r's share of the
// range from the key the walk enters at (from) to the bound it leaves at
// (end), charged to its own ctx. A region's share is cut at its guideposts
// (Region.guideposts), so a region holds one unit more than guideposts fall
// inside the range. A unit that ends at a guidepost walks up to it; the unit
// holding the range's far bound walks to the region's edge, as a region's
// whole share does, and the client trims what lies past the range. Going
// backward a guidepost is a unit's inclusive lower bound and the next unit
// enters at it as its exclusive upper one, as beyond and newRowMerger read
// them.
//
// The consumer walks the units one after another in scan order. Simulated
// cost follows fork/join semantics: join charges the request the units'
// makespan at Costs.ScanParallelism width plus ScanMergeChunk per chunk — not
// their sum, since the units' fetches would overlap.
type scanUnit struct {
	r         *Region
	from, end string
	ctx       sim.Ctx
}

// cut returns the units of a fanned-out scan, nil when the range spans one
// region and no guidepost — one unit, which is the scan walked whole.
func (s *Scanner) cut() []scanUnit {
	lo, hi := s.spec.bounds()
	n := len(s.regions)
	for _, r := range s.regions {
		n += r.guideposts(lo, hi).n
	}
	if n < 2 {
		return nil
	}
	units := make([]scanUnit, 0, n)
	rev := s.spec.Reversed
	for _, r := range s.regions {
		gp := r.guideposts(lo, hi)
		from := s.entry(r)
		for j := range gp.n + 1 {
			end := r.edge(rev)
			switch {
			case j == gp.n:
			case rev:
				end = gp.key(gp.n - 1 - j)
			default:
				end = gp.key(j)
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
	ctx.JoinLanes(costs.ScanParallelism, s.paid, len(s.units), func(i int) *sim.Ctx { return &s.units[i].ctx })
	ctx.Charge(sim.Micros(s.chunks * int64(costs.ScanMergeChunk)))
}
