package sim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestMicrosString(t *testing.T) {
	cases := []struct {
		in   Micros
		want string
	}{
		{500, "500µs"},
		{1500, "1.50ms"},
		{2_500_000, "2.50s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Micros(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromMillis(t *testing.T) {
	if got := FromMillis(1.5); got != 1500 {
		t.Fatalf("FromMillis(1.5) = %d, want 1500", got)
	}
	if got := FromMillis(0.35); got != 350 {
		t.Fatalf("FromMillis(0.35) = %d, want 350", got)
	}
}

func TestCtxChargeAccumulates(t *testing.T) {
	ctx := NewCtx()
	ctx.Charge(100)
	ctx.Charge(250)
	if got := ctx.Elapsed(); got != 350 {
		t.Fatalf("Elapsed = %d, want 350", got)
	}
	ctx.Reset()
	if got := ctx.Elapsed(); got != 0 {
		t.Fatalf("Elapsed after Reset = %d, want 0", got)
	}
}

func TestCtxChargeIgnoresNonPositive(t *testing.T) {
	ctx := NewCtx()
	ctx.Charge(0)
	ctx.Charge(-5)
	if got := ctx.Elapsed(); got != 0 {
		t.Fatalf("Elapsed = %d, want 0", got)
	}
}

func TestNilCtxIsSafe(t *testing.T) {
	var ctx *Ctx
	ctx.Charge(100) // must not panic
	ctx.CountRPC()
	ctx.CountLock()
	if ctx.Elapsed() != 0 {
		t.Fatal("nil ctx should report zero elapsed")
	}
	if s := ctx.Snapshot(); s.RPCs != 0 {
		t.Fatal("nil ctx snapshot should be zero")
	}
}

func TestCtxConcurrentCharge(t *testing.T) {
	ctx := NewCtx()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				ctx.Charge(1)
				ctx.CountRPC()
				ctx.CountRowsScanned(2)
			}
		}()
	}
	wg.Wait()
	if got := ctx.Elapsed(); got != workers*per {
		t.Fatalf("Elapsed = %d, want %d", got, workers*per)
	}
	s := ctx.Snapshot()
	if s.RPCs != workers*per {
		t.Fatalf("RPCs = %d, want %d", s.RPCs, workers*per)
	}
	if s.RowsScanned != 2*workers*per {
		t.Fatalf("RowsScanned = %d, want %d", s.RowsScanned, 2*workers*per)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Derive("stream")
	b := NewRNG(42).Derive("stream")
	for i := 0; i < 100; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("derived streams diverge at %d: %d vs %d", i, x, y)
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	root := NewRNG(42)
	a := root.Derive("a")
	b := root.Derive("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams %q and %q coincide %d/64 times; expected independence", "a", "b", same)
	}
}

func TestRNGIntRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d out of range", v)
		}
	}
	if g.IntRange(7, 7) != 7 {
		t.Fatal("degenerate range should return lo")
	}
	if g.IntRange(9, 3) != 9 {
		t.Fatal("inverted range should return lo")
	}
}

func TestRNGString(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 100; i++ {
		s := g.String(3, 8)
		if len(s) < 3 || len(s) > 8 {
			t.Fatalf("String(3,8) length %d out of range", len(s))
		}
	}
}

func TestJitterStaysPositive(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10_000; i++ {
		if v := g.Jitter(FromMillis(10), 0.5); v <= 0 {
			t.Fatalf("Jitter produced non-positive %d", v)
		}
	}
}

func TestPerByteCostMul(t *testing.T) {
	var c PerByteCost = 2 // 2 ns per byte
	if got := c.Mul(1000); got != 2 {
		t.Fatalf("Mul(1000) = %d, want 2", got)
	}
	if got := c.Mul(1_000_000); got != 2000 {
		t.Fatalf("Mul(1e6) = %d, want 2000", got)
	}
}

// Property: charging any sequence of non-negative amounts yields their sum.
func TestCtxChargeSumProperty(t *testing.T) {
	f := func(amounts []uint16) bool {
		ctx := NewCtx()
		var want int64
		for _, a := range amounts {
			ctx.Charge(Micros(a))
			want += int64(a)
		}
		return int64(ctx.Elapsed()) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Derive is a pure function of (seed, name).
func TestDeriveDeterministicProperty(t *testing.T) {
	f := func(seed int64, name string) bool {
		return NewRNG(seed).Derive(name).Int63() == NewRNG(seed).Derive(name).Int63()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Fork/Join models scatter-gather: elapsed advances by the slowest branch,
// work counters by the sum of all branches. A branch is a zero Ctx.
func TestForkJoinChargesMaxElapsedSumCounters(t *testing.T) {
	parent := NewCtx()
	parent.Charge(100)

	var a, b Ctx
	a.Charge(300)
	a.CountRPC()
	a.CountRowsScanned(10)

	b.Charge(200)
	b.CountRPC()
	b.CountRowsReturned(4)
	b.CountBytesMoved(1000)

	parent.Join(&a, &b, nil)
	if got := parent.Elapsed(); got != 400 {
		t.Fatalf("elapsed = %v, want 400 (100 + max(300, 200))", got)
	}
	s := parent.Snapshot()
	if s.RPCs != 2 || s.RowsScanned != 10 || s.RowsReturned != 4 || s.BytesMoved != 1000 {
		t.Fatalf("counters = %+v, want summed child work", s)
	}
}

// JoinAll over forks held as one slice of values charges what Join over the
// same branches forked one by one charges, and a slice of none charges
// nothing.
func TestJoinAllMatchesJoin(t *testing.T) {
	branches := []Micros{300, 0, 200}
	byPointer, byValue := NewCtx(), NewCtx()
	kids := make([]*Ctx, len(branches))
	forks := make([]Ctx, len(branches))
	for i, d := range branches {
		kids[i] = new(Ctx)
		for _, ch := range []*Ctx{kids[i], &forks[i]} {
			ch.Charge(d)
			ch.CountRPC()
			ch.CountRowsScanned(int(d))
		}
	}
	byPointer.Join(kids...)
	byValue.JoinAll(forks)
	if got, want := byValue.Snapshot(), byPointer.Snapshot(); got != want || got.Elapsed != 300 {
		t.Fatalf("JoinAll = %+v, want Join's %+v (elapsed 300)", got, want)
	}
	byValue.JoinAll(nil)
	if byValue.Elapsed() != 300 {
		t.Fatalf("an empty JoinAll charged: elapsed %v", byValue.Elapsed())
	}
}

// JoinLanes models a bounded worker pool: n equal-cost children on width w
// lanes complete in ceil(n/w) rounds, not one.
func TestJoinWidthChargesRounds(t *testing.T) {
	cases := []struct {
		children, width int
		each            Micros
		want            Micros
	}{
		{children: 16, width: 8, each: 100, want: 200},  // 2 rounds
		{children: 17, width: 8, each: 100, want: 300},  // ceil(17/8) = 3
		{children: 8, width: 8, each: 100, want: 100},   // fits in one round
		{children: 3, width: 8, each: 100, want: 100},   // width >= n: plain Join
		{children: 5, width: 0, each: 100, want: 100},   // width 0: plain Join
		{children: 10, width: 1, each: 100, want: 1000}, // serial lane
	}
	for _, tc := range cases {
		parent := NewCtx()
		kids := make([]Ctx, tc.children)
		for i := range kids {
			kids[i].Charge(tc.each)
			kids[i].CountRPC()
		}
		var pool Lanes
		parent.JoinLanes(&pool, tc.width, len(kids), func(i int) *Ctx { return &kids[i] })
		if got := parent.Elapsed(); got != tc.want {
			t.Fatalf("JoinLanes(%d) over %d×%v children: elapsed = %v, want %v",
				tc.width, tc.children, tc.each, got, tc.want)
		}
		if s := parent.Snapshot(); s.RPCs != int64(tc.children) {
			t.Fatalf("JoinLanes dropped counters: RPCs = %d, want %d", s.RPCs, tc.children)
		}
	}
}

// With unequal children, JoinLanes schedules each child on the lane that
// frees earliest (the pool's caller-runs behavior), so the makespan reflects
// greedy list scheduling, and never undercuts the plain-Join lower bound.
func TestJoinWidthUnequalChildren(t *testing.T) {
	parent := NewCtx()
	costs := []Micros{300, 100, 100, 100}
	kids := make([]Ctx, len(costs))
	for i, d := range costs {
		kids[i].Charge(d)
	}
	// Two lanes: lane0 gets 300, lane1 gets 100+100+100 = 300. Makespan 300.
	var pool Lanes
	parent.JoinLanes(&pool, 2, len(kids), func(i int) *Ctx { return &kids[i] })
	if got := parent.Elapsed(); got != 300 {
		t.Fatalf("elapsed = %v, want 300 (greedy two-lane schedule)", got)
	}
}

func TestJoinWidthNilSafe(t *testing.T) {
	var nilCtx *Ctx
	var pool Lanes
	nilCtx.JoinLanes(&pool, 2, 1, func(int) *Ctx { return NewCtx() }) // must not panic
	parent := NewCtx()
	parent.JoinLanes(&pool, 2, 3, func(int) *Ctx { return nil }) // nil children skipped
	if parent.Elapsed() != 0 {
		t.Fatalf("elapsed = %v, want 0", parent.Elapsed())
	}
}

// Staleness counters flow through Snapshot, Join, and Reset like the others.
func TestStalenessCounters(t *testing.T) {
	ctx := NewCtx()
	ctx.CountStaleRead(5)
	ctx.CountStaleRead(0) // zero lag still counts the read
	ctx.CountWatermarkWait()

	var child Ctx
	child.CountStaleRead(3)
	child.CountWatermarkWait()
	ctx.Join(&child)

	s := ctx.Snapshot()
	if s.StaleReads != 3 || s.StaleLag != 8 || s.WatermarkWaits != 2 {
		t.Fatalf("stats = %+v, want StaleReads=3 StaleLag=8 WatermarkWaits=2", s)
	}
	ctx.Reset()
	s = ctx.Snapshot()
	if s.StaleReads != 0 || s.StaleLag != 0 || s.WatermarkWaits != 0 {
		t.Fatalf("Reset left staleness counters: %+v", s)
	}

	var nilCtx *Ctx
	nilCtx.CountStaleRead(1) // must not panic
	nilCtx.CountWatermarkWait()
}

func TestForkJoinEmptyAndNil(t *testing.T) {
	parent := NewCtx()
	parent.Charge(50)
	parent.Join() // no branches: no time passes
	if parent.Elapsed() != 50 {
		t.Fatalf("elapsed = %v, want 50", parent.Elapsed())
	}
	var nilCtx *Ctx
	nilCtx.Join(new(Ctx)) // must not panic
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	if c.RPC <= 0 || c.ScanNextRow <= 0 || c.ScannerBatch <= 0 {
		t.Fatal("default costs must be positive")
	}
	// MVCC overhead must land in the 800-900ms band the paper measures.
	total := c.MVCCBegin + c.MVCCCommit
	if total < FromMillis(800) || total > FromMillis(900) {
		t.Fatalf("MVCC begin+commit = %v, want within [800ms, 900ms]", total)
	}
	// Cold-client lock experiment anchor (Figure 11): fixed component is
	// a few hundred ms.
	if c.ConnectionSetup < FromMillis(200) || c.ConnectionSetup > FromMillis(400) {
		t.Fatalf("ConnectionSetup = %v, want a few hundred ms", c.ConnectionSetup)
	}
}

func TestRPCChargesRoundTrip(t *testing.T) {
	costs := DefaultCosts()
	ctx := NewCtx()
	costs.ChargeRPC(ctx, 0)
	if got := ctx.Elapsed(); got != costs.RPC {
		t.Fatalf("RPC elapsed = %v, want %v", got, costs.RPC)
	}
	if s := ctx.Snapshot(); s.RPCs != 1 || s.BytesMoved != 0 {
		t.Fatalf("RPCs = %d, bytes moved = %d; want 1, 0", s.RPCs, s.BytesMoved)
	}
}

func TestTransferChargesPerByte(t *testing.T) {
	costs := DefaultCosts()
	ctx := NewCtx()
	const payload = 1 << 20 // 1 MiB
	costs.ChargeRPC(ctx, payload)
	if got, want := ctx.Elapsed(), costs.RPC+costs.PerByte.Mul(payload); got != want {
		t.Fatalf("transfer elapsed = %v, want %v", got, want)
	}
	if s := ctx.Snapshot(); s.RPCs != 1 || s.BytesMoved != payload {
		t.Fatalf("RPCs = %d, bytes moved = %d; want 1, %d", s.RPCs, s.BytesMoved, payload)
	}
}

func TestRPCWithPayloadCostsMoreThanEmpty(t *testing.T) {
	costs := DefaultCosts()
	empty, loaded := NewCtx(), NewCtx()
	costs.ChargeRPC(empty, 0)
	costs.ChargeRPC(loaded, 64*1024)
	if loaded.Elapsed() <= empty.Elapsed() {
		t.Fatal("payload-bearing RPC should cost more than empty RPC")
	}
	if e, l := empty.Snapshot(), loaded.Snapshot(); e.RPCs != l.RPCs || l.BytesMoved != 64*1024 {
		t.Fatalf("RPCs %d vs %d, loaded bytes moved %d; want equal RPCs, 65536 bytes", e.RPCs, l.RPCs, l.BytesMoved)
	}
}
