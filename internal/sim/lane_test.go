package sim

import "testing"

// The three formulas the pacing rule replaced, kept as references: a Lane,
// Arrivals.Pace and JoinLanes must give what each gave, to the unit, so no
// charge moved when the consumers were ported onto them.

// closedFormBuild is the hash build's closed form: the build ends at the
// latest, over the arrivals, of an arrival's time plus the hashing of every
// row from it on, and never before the read's end; with no arrivals every row
// came at the read's end.
func closedFormBuild(read Micros, n int, per Micros, at []Arrival) Micros {
	if len(at) == 0 {
		return read + Micros(n)*per
	}
	end := read
	for _, a := range at {
		end = max(end, a.At+Micros(n-a.I)*per)
	}
	return end
}

// linkSettle is the wire's link clock: each packet enters the link, kept in
// ns, at the later of the link and the session's clock when it is written,
// and the response is settled what is still in flight at the end.
func linkSettle(now []Micros, bytes []int, perByte int64, final Micros) Micros {
	var link int64
	for i := range now {
		link = max(link, int64(now[i])*1000) + int64(bytes[i])*perByte
	}
	return Micros((link - int64(final)*1000) / 1000)
}

// greedyMakespan is JoinLanes as it was written: each child on the lane that
// frees earliest, the lowest on a tie, and the makespan less what was
// prepaid.
func greedyMakespan(width int, each []Micros, prepaid Micros) Micros {
	if width <= 0 || width > len(each) {
		width = len(each)
	}
	lanes := make([]Micros, width)
	for _, d := range each {
		li := 0
		for l := 1; l < width; l++ {
			if lanes[l] < lanes[li] {
				li = l
			}
		}
		lanes[li] += d
	}
	var makespan Micros
	for _, l := range lanes {
		makespan = max(makespan, l)
	}
	return makespan - prepaid
}

// randomArrivals draws arrivals as a reader notes them and a filter
// re-indexes them: the first at item 0, both fields rising but not strictly
// (a filter leaves several on one item, and equal times stand for a clock
// that did not move), and some past the last item, the zero-item trailing
// groups of rows a filter dropped.
func randomArrivals(g *RNG, n int) []Arrival {
	k := g.Intn(6)
	if g.Intn(4) == 0 {
		k = 0
	}
	at := make([]Arrival, k)
	var i int
	var t Micros
	for j := range at {
		if j > 0 {
			i = min(n, i+g.Intn(n/2+2))
			if g.Intn(3) > 0 {
				t += Micros(g.Intn(50))
			}
		}
		at[j] = Arrival{i, t}
	}
	return at
}

func TestPaceMatchesClosedFormBuild(t *testing.T) {
	g := NewRNG(11)
	for trial := range 5000 {
		n := g.Intn(24)
		if trial%7 == 0 {
			n = 1
		}
		at := randomArrivals(g, n)
		per := Micros(g.Intn(12))
		read := Micros(g.Intn(400))
		want := closedFormBuild(read, n, per, at)
		if got := Arrivals(at).Pace(read, n, per); got != want {
			t.Fatalf("n %d per %v read %v arrivals %+v: Pace = %v, closed form %v", n, per, read, at, got, want)
		}
	}
}

func TestLaneMatchesLinkClock(t *testing.T) {
	g := NewRNG(12)
	for range 5000 {
		k := g.Intn(12)
		now, bytes := make([]Micros, k), make([]int, k)
		var clock Micros
		for i := range now {
			if g.Intn(3) > 0 {
				clock += Micros(g.Intn(30))
			}
			now[i], bytes[i] = clock, g.Intn(3000)
		}
		perByte := int64(g.Intn(5))
		final := clock + Micros(g.Intn(20))
		var wire Lane
		for i := range now {
			wire.Serve(now[i].Nanos(), Nanos(bytes[i])*Nanos(perByte))
		}
		want := linkSettle(now, bytes, perByte, final)
		if got := (wire.End() - final.Nanos()).Micros(); got != want {
			t.Fatalf("packets at %v of %v bytes, %d ns/byte, settled at %v: lane %v, link %v", now, bytes, perByte, final, got, want)
		}
	}
}

func TestJoinLanesMatchesGreedyMakespan(t *testing.T) {
	g := NewRNG(13)
	var pool Lanes
	for trial := range 5000 {
		n := g.Intn(24)
		if trial%7 == 0 {
			n = 1
		}
		width := g.Intn(30) // above n as often as not, and 0
		kids := make([]Ctx, n)
		each := make([]Micros, n)
		for i := range kids {
			if g.Intn(5) > 0 {
				each[i] = Micros(g.Intn(1000))
			}
			kids[i].Charge(each[i])
			kids[i].CountRPC()
		}
		parent := NewCtx()
		pool = Lanes{}
		var prepaid Micros
		if n > 0 && g.Intn(2) == 0 {
			prepaid = each[g.Intn(n)]
			pool.Prepay(parent, prepaid)
		}
		parent.JoinLanes(&pool, width, n, func(i int) *Ctx { return &kids[i] })
		if got, want := parent.Elapsed(), prepaid+greedyMakespan(width, each, prepaid); got != want {
			t.Fatalf("width %d over %v, prepaid %v: elapsed %v, want %v", width, each, prepaid, got, want)
		}
		if got := parent.Snapshot().RPCs; got != int64(n) {
			t.Fatalf("width %d over %d children: %d RPCs", width, n, got)
		}
	}
}
