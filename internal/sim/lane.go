package sim

// Nanos is a simulated instant or duration in nanoseconds: the resolution a
// Lane keeps, so that sub-microsecond services (a wire byte at
// Costs.WirePerByte) add up instead of rounding away.
type Nanos int64

// Nanos converts m to simulated nanoseconds, exactly.
func (m Micros) Nanos() Nanos { return Nanos(m) * 1000 }

// Micros truncates n to whole simulated microseconds.
func (n Nanos) Micros() Micros { return Micros(n / 1000) }

// Lane is one FIFO server: the package's pacing rule (see the package doc).
// The zero Lane is free at 0.
type Lane struct{ free Nanos }

// Serve serves an item that arrives at `at` and needs d, and returns when the
// lane has served it.
func (l *Lane) Serve(at, d Nanos) Nanos {
	l.free = max(l.free, at) + d
	return l.free
}

// End is when the lane has served every item so far.
func (l *Lane) End() Nanos { return l.free }

// Lanes is the k-lane form of Lane, a bounded worker pool that takes items in
// submission order, each on the lane that frees earliest (JoinLanes). A
// consumer charged part of the pool's work before the pool ends — a fanned-out
// scan charges its first row when it hands the row out — keeps it here
// (Prepay), and JoinLanes charges only the rest. The zero value is ready.
type Lanes struct {
	small   [16]Lane // the lanes of the common widths, which need no allocation
	prepaid Micros
}

// Prepay charges c d of the pool's work now, ahead of its end. d is at most
// the work of one item, which the makespan covers.
func (p *Lanes) Prepay(c *Ctx, d Micros) {
	p.prepaid += d
	c.Charge(d)
}

// Arrival says that a stream's items from index I on came in no earlier than
// At.
type Arrival struct {
	I  int
	At Micros
}

// Arrivals is when a stream's items came in, for a consumer that works on them
// as they come (Pace). They rise in both I and At, the first at item 0; a
// stream with none had every item in hand only at its end. A reader notes them
// as its clock moves (Note); a read timed on a clock of its own is moved onto
// its consumer's (Shift); and a filter re-indexes them, in place, to the items
// it keeps.
type Arrivals []Arrival

// Note records that item i came in at `at`, unless the item before it came at
// the same time. A nil *Arrivals records nothing: its reader's consumer paces
// on none.
func (a *Arrivals) Note(i int, at Micros) {
	if a == nil {
		return
	}
	if n := len(*a); n == 0 || (*a)[n-1].At != at {
		*a = append(*a, Arrival{i, at})
	}
}

// Shift moves every arrival d later.
func (a Arrivals) Shift(d Micros) {
	for i := range a {
		a[i].At += d
	}
}

// Pace serves the stream's n items on one Lane as they came in, each needing
// per, one arrival's items after another, and returns when the last is
// served, no earlier than floor. A stream with no arrivals has all n at floor.
func (a Arrivals) Pace(floor Micros, n int, per Micros) Micros {
	var l Lane
	if len(a) == 0 {
		l.Serve(floor.Nanos(), (Micros(n) * per).Nanos())
	}
	for k, g := range a {
		next := n
		if k+1 < len(a) {
			next = a[k+1].I
		}
		l.Serve(g.At.Nanos(), (Micros(next-g.I) * per).Nanos())
	}
	return max(floor, l.End().Micros())
}
