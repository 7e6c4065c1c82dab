package phoenix

import (
	"bytes"
	"hash/maphash"
)

// keyTable numbers the distinct encoded keys (appendKey) of a hash join's
// build side or of a GROUP BY: a key's id is its rank in first-seen order, so
// ids are dense and whatever a caller hangs off a key is a slice indexed by
// id. The key bytes lie back to back in one arena and the hash table is one
// open-addressed []int32 over it, so a distinct key costs its bytes and
// nothing else — no string, no map bucket. It belongs to one statement.
type keyTable struct {
	seed  maphash.Seed
	slots []int32  // id+1 of the key hashed there, 0 = free; a power of two long
	arena []byte   // the keys, in id order
	ends  []uint32 // ends[id] is where key id stops in arena; it starts where id-1 stops
}

// newKeyTable returns a table that takes n keys without growing — its arena
// too when they are single numbers, 9 bytes each.
func newKeyTable(n int) *keyTable {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return &keyTable{seed: maphash.MakeSeed(), slots: make([]int32, size), arena: make([]byte, 0, 9*n), ends: make([]uint32, 0, n)}
}

// reset empties the table, keeping its capacity.
func (t *keyTable) reset() {
	clear(t.slots)
	t.arena, t.ends = t.arena[:0], t.ends[:0]
}

// len is the number of keys inserted.
func (t *keyTable) len() int { return len(t.ends) }

func (t *keyTable) key(id int32) []byte {
	start := uint32(0)
	if id > 0 {
		start = t.ends[id-1]
	}
	return t.arena[start:t.ends[id]]
}

// probe returns key's id, or -1 and the free slot it would take.
func (t *keyTable) probe(key []byte) (id int32, slot int) {
	mask := len(t.slots) - 1
	for slot = int(maphash.Bytes(t.seed, key)) & mask; ; slot = (slot + 1) & mask {
		id = t.slots[slot] - 1
		if id < 0 || bytes.Equal(t.key(id), key) {
			return id, slot
		}
	}
}

// find returns key's id, -1 when it was never inserted.
func (t *keyTable) find(key []byte) int32 {
	id, _ := t.probe(key)
	return id
}

// insert returns key's id, giving it the next one — and copying its bytes —
// when it is new. The table stays at most half full.
func (t *keyTable) insert(key []byte) (id int32, added bool) {
	id, slot := t.probe(key)
	if id >= 0 {
		return id, false
	}
	if 2*(len(t.ends)+1) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		for old := range t.ends {
			_, s := t.probe(t.key(int32(old)))
			t.slots[s] = int32(old) + 1
		}
		_, slot = t.probe(key)
	}
	id = int32(len(t.ends))
	t.arena = append(t.arena, key...)
	t.ends = append(t.ends, uint32(len(t.arena)))
	t.slots[slot] = id + 1
	return id, true
}
