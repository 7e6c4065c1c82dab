package hbase

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Storage is recycled through three primitives: Pool for objects any
// goroutine may take, FreeList for objects a long-lived owner keeps a capped
// number of, and Emptied for the slices either holds. Every recycle point
// obeys one ownership rule:
//
//   - after Put, the caller holds nothing it handed back: no pointer into the
//     object, its slices or what they point at, since the next Get hands it
//     to someone else;
//   - a recycled object keeps at most its site's byte cap: each site resets
//     what it hands back, emptying its slices with Emptied (or dropping a
//     part that outgrew the cap), so one large request pins nothing for the
//     next;
//   - a Pool keeps a spare slot because a sync.Pool's private slot belongs to
//     one P: a goroutine that moved to another P between its Put and its next
//     Get would miss the object it just released and grow a fresh one.

// Pool recycles *T: Get takes the spare slot first, then the sync.Pool, then
// allocates a zero T. Its zero value is ready to use. What a site resets
// before Put, and the byte cap it keeps, stay at the site.
type Pool[T any] struct {
	spare atomic.Pointer[T]
	pool  sync.Pool
}

// Get returns a recycled *T, or a new zero one.
func (p *Pool[T]) Get() *T {
	if v := p.spare.Swap(nil); v != nil {
		return v
	}
	if v := p.pool.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

// Put recycles v, which the caller has reset and no longer holds.
func (p *Pool[T]) Put(v *T) {
	if !p.spare.CompareAndSwap(nil, v) {
		p.pool.Put(v)
	}
}

// FreeList keeps up to a fixed number of recycled *T for one owner, last in
// first out; unlike a Pool, the GC never empties it. It is safe for
// concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	max  int
	free []*T
}

// NewFreeList returns an empty list that keeps at most max objects.
func NewFreeList[T any](max int) *FreeList[T] {
	return &FreeList[T]{max: max}
}

// Get returns the object put last, or nil when the list is empty.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	var v *T
	if n := len(l.free); n > 0 {
		v, l.free[n-1] = l.free[n-1], nil
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v
}

// Put recycles v, which the caller has reset and no longer holds, or drops it
// when the list is full.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	if len(l.free) < l.max {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}

// Emptied returns s empty with its whole capacity cleared, so it pins nothing
// it pointed at, or nil when that capacity is above maxBytes.
func Emptied[T any](s []T, maxBytes int) []T {
	var v T
	if cap(s)*int(unsafe.Sizeof(v)) > maxBytes {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}
