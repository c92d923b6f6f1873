package compilequeue_test

import (
	"testing"

	"smarq/internal/codecache"
	"smarq/internal/compilequeue"
)

// The private compile memo is a one-shard codecache keyed by Key, built
// with an entry cap and no size function. These tests pin the LRU
// semantics that memo relies on.

func key(i int) compilequeue.Key { return compilequeue.NewKey().Int(int64(i)) }

func newMemo(capacity int) *codecache.Cache[int] {
	return codecache.New[int](codecache.Options{Shards: 1, MaxEntries: int64(capacity)}, nil)
}

// TestMemoCapacityEvictsLRU: an entry cap of 2 evicts strictly in LRU
// order, where Get hits and Put updates both freshen, and an update in
// place neither evicts nor grows the table.
func TestMemoCapacityEvictsLRU(t *testing.T) {
	m := newMemo(2)
	m.Put(key(1), 1)
	m.Put(key(2), 2)
	m.Get(key(1)) // freshen 1: the victim is now 2
	m.Put(key(3), 3)
	if m.Len() != 2 {
		t.Fatalf("Len() = %d, want 2 at capacity", m.Len())
	}
	if _, ok := m.Peek(key(2)); ok {
		t.Error("LRU entry 2 survived the eviction")
	}
	if _, ok := m.Peek(key(1)); !ok {
		t.Error("freshened entry 1 was evicted")
	}
	if _, ok := m.Peek(key(3)); !ok {
		t.Error("just-inserted entry 3 was evicted")
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", m.Evictions())
	}

	m.Put(key(1), 11) // update in place: freshens 1 past 3
	if m.Len() != 2 || m.Evictions() != 1 {
		t.Errorf("update-in-place changed size/evictions: len=%d evictions=%d", m.Len(), m.Evictions())
	}
	if v, _ := m.Peek(key(1)); v != 11 {
		t.Errorf("updated value = %d, want 11", v)
	}
	m.Put(key(4), 4) // victim must be 3, not the just-updated 1
	if _, ok := m.Peek(key(3)); ok {
		t.Error("entry 3 survived though the Put update freshened 1 past it")
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 0 || st.Evictions != 2 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 1/0/2", st.Hits, st.Misses, st.Evictions)
	}
}

// TestMemoDropOldest covers the memo-pressure hook: EvictOldest on an
// empty memo is a no-op, otherwise the coldest entry goes and is counted
// as an eviction.
func TestMemoDropOldest(t *testing.T) {
	m := newMemo(0) // unbounded: evictions only via EvictOldest
	if m.EvictOldest() {
		t.Error("EvictOldest on an empty memo reported an eviction")
	}
	m.Put(key(1), 1)
	m.Put(key(2), 2)
	if !m.EvictOldest() {
		t.Fatal("EvictOldest evicted nothing")
	}
	if _, ok := m.Peek(key(1)); ok {
		t.Error("EvictOldest kept the oldest entry")
	}
	if _, ok := m.Peek(key(2)); !ok {
		t.Error("EvictOldest evicted the newest entry")
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", m.Evictions())
	}
}

// TestMemoUnboundedNeverEvicts: a zero entry cap keeps every entry.
func TestMemoUnboundedNeverEvicts(t *testing.T) {
	m := newMemo(0)
	for i := 0; i < 1000; i++ {
		m.Put(key(i), i)
	}
	if m.Len() != 1000 || m.Evictions() != 0 {
		t.Errorf("unbounded memo: len=%d evictions=%d, want 1000/0", m.Len(), m.Evictions())
	}
}

// TestMemoCapSemanticsUnchanged: with no size function only the entry cap
// evicts, whatever the stored values are.
func TestMemoCapSemanticsUnchanged(t *testing.T) {
	m := newMemo(2)
	m.Put(key(1), 1_000_000)
	m.Put(key(2), 2_000_000)
	if m.Len() != 2 || m.Evictions() != 0 {
		t.Fatalf("memo evicted below the entry cap: len=%d evictions=%d", m.Len(), m.Evictions())
	}
	m.EvictOldest()
	if m.Len() != 1 {
		t.Fatalf("after EvictOldest: len=%d", m.Len())
	}
}
