package hbase

import (
	"testing"
	"unsafe"
)

// TestRecyclePrimitives pins the three primitives of recycle.go: a Pool hands
// a goroutine back what it just put, through the spare slot; a FreeList drops
// what is put beyond its cap; Emptied keeps a slice of exactly its byte cap,
// cleared to its capacity, and drops one a single element larger.
func TestRecyclePrimitives(t *testing.T) {
	const word = int(unsafe.Sizeof(uintptr(0)))
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Pool/spare", func(t *testing.T) {
			var p Pool[int]
			a, b := p.Get(), p.Get()
			if a == nil || a == b {
				t.Fatalf("fresh Gets = %p, %p, want two new objects", a, b)
			}
			p.Put(a)
			p.Put(b) // the spare slot is taken: into the sync.Pool
			if got := p.Get(); got != a {
				t.Fatalf("Get after Put = %p, want the spare %p", got, a)
			}
		}},
		{"FreeList/cap", func(t *testing.T) {
			l := NewFreeList[int](2)
			a, b, c := new(int), new(int), new(int)
			l.Put(a)
			l.Put(b)
			l.Put(c)
			for i, want := range []*int{b, a, nil} {
				if got := l.Get(); got != want {
					t.Fatalf("Get %d = %p, want %p", i, got, want)
				}
			}
		}},
		{"Emptied/at cap", func(t *testing.T) {
			s := make([]*int, 4)
			for i := range s {
				s[i] = new(int)
			}
			got := Emptied(s[:2], 4*word)
			if len(got) != 0 || cap(got) != 4 {
				t.Fatalf("Emptied = len %d cap %d, want len 0 cap 4", len(got), cap(got))
			}
			for i, p := range got[:4] {
				if p != nil {
					t.Fatalf("element %d still holds %p", i, p)
				}
			}
		}},
		{"Emptied/one over", func(t *testing.T) {
			if got := Emptied(make([]*int, 0, 5), 4*word); got != nil {
				t.Fatalf("Emptied kept cap %d above the cap", cap(got))
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
