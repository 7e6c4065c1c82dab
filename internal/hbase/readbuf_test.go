package hbase

import (
	"fmt"
	"testing"
)

// TestSlabLearnsItsSize is the Slab's contract: a first round cuts nothing
// and allocates every list alone; Reset sizes the next block for everything
// handed out — a Free that found too little room included — up to its max;
// lists cut from the block are windows that never move; a producer that
// outgrows Free's room moves out of the block and leaves nothing behind in it.
func TestSlabLearnsItsSize(t *testing.T) {
	pairs := func(n int, tag string) []Pair {
		out := make([]Pair, n)
		for i := range out {
			out[i] = Pair{Qualifier: fmt.Sprintf("%s%d", tag, i), Value: []byte(tag)}
		}
		return out
	}
	var s Slab[Pair]

	// Round one: no block.
	if l := s.Take(3); cap(l) != 3 || len(l) != 0 {
		t.Fatalf("Take(3) = len %d cap %d", len(l), cap(l))
	}
	if free := s.Free(4); free != nil {
		t.Fatal("Free found room in an empty slab")
	}
	s.Keep(nil, pairs(2, "a"))
	s.Reset(100)
	if s.block != nil || s.want != 3+4+2 {
		t.Fatalf("after round one: block cap %d, want %d; want no block and 9", cap(s.block), s.want)
	}

	// Round two: one block of 9 holds what round one took.
	a := s.Take(3)
	if cap(s.block) != 9 || &s.block[:1][0] != &a[:1][0] {
		t.Fatalf("Take(3) is not the head of a block of 9 (cap %d)", cap(s.block))
	}
	free := s.Free(4)
	if free == nil || cap(free) != 6 {
		t.Fatalf("Free(4) = cap %d, want the 6 free", cap(free))
	}
	b := append(free, pairs(2, "b")...)
	s.Keep(free, b)
	if len(s.block) != 5 || &s.block[3] != &b[0] {
		t.Fatalf("Keep of a list in the room: block len %d, want 5 with the list at 3", len(s.block))
	}
	c := append(s.Take(4), pairs(4, "c")...)
	if &s.block[5] != &c[0] {
		t.Fatal("Take(4) did not follow the kept list")
	}
	if d := s.Take(1); cap(d) != 1 || len(s.block) != 9 {
		t.Fatalf("Take(1) past the block: cap %d, block len %d", cap(d), len(s.block))
	}
	if b[0].Qualifier != "b0" || c[3].Qualifier != "c3" {
		t.Fatal("a later list wrote over an earlier one")
	}
	s.Reset(100)
	if s.block != nil || s.want != 3+2+4+1 {
		t.Fatalf("after round two: block cap %d, want %d; want no block and 10", cap(s.block), s.want)
	}

	// Round three: a producer outgrows the room and leaves the block.
	free = s.Free(2)
	grown := append(free, pairs(3, "e")...) // fits: 10 free
	grown = append(grown, pairs(8, "f")...) // 11: moves out
	s.Keep(free, grown)
	if len(s.block) != 0 || &grown[0] == &s.block[:1][0] {
		t.Fatal("a list that outgrew the room was kept in the block")
	}
	for i, p := range s.block[:cap(s.block)] {
		if p.Qualifier != "" || p.Value != nil {
			t.Fatalf("block[%d] still holds %q after the list moved out", i, p.Qualifier)
		}
	}

	// A round past max sizes the next block to max, and a block of max is
	// kept however much a round hands out past it.
	s.Take(50)
	s.Reset(20)
	if s.want != 20 {
		t.Fatalf("want %d after a round of 61, max 20", s.want)
	}
	s.Reset(20)
	if l := s.Take(20); cap(s.block) != 20 || cap(l) != 20 {
		t.Fatalf("the capped block holds %d", cap(s.block))
	}
	s.Take(30)
	block := s.block
	s.Reset(20)
	if cap(s.block) != 20 || &s.block[:1][0] != &block[:1][0] {
		t.Fatal("a block of max was dropped")
	}
}
