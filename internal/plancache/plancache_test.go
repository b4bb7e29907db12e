package plancache

import (
	"fmt"
	"sync"
	"testing"
)

// key is the tests' one namespace at one version.
func key(query string) Key { return VersionedKey("test", 1, query) }

func TestHitMiss(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put(key("a"), 1, 1)
	v, ok := c.Get(key("a"))
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 0 evictions, 1 entry", st)
	}
}

func TestOverwriteIsNotEviction(t *testing.T) {
	c := New(2)
	c.Put(key("a"), 1, 1)
	c.Put(key("a"), 2, 1)
	v, _ := c.Get(key("a"))
	if v.(int) != 2 {
		t.Fatalf("overwrite kept old value %v", v)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 0 evictions, 1 entry", st)
	}
}

// TestLRUEviction: with every entry sized 1, the budget is an entry count.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put(key("a"), 1, 1)
	c.Put(key("b"), 2, 1)
	c.Get(key("a"))       // a is now most recent
	c.Put(key("c"), 3, 1) // evicts b
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a (recently used) should have survived")
	}
	if _, ok := c.Get(key("c")); !ok {
		t.Fatal("c (just inserted) should be present")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d; want 1", st.Evictions)
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := New(4)
	c.Put(key("a"), 1, 1)
	c.Put(key("b"), 2, 1)
	c.Remove(key("a"))
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("a should be gone after Remove")
	}
	if c.Len() != 1 {
		t.Fatalf("Len after one Remove = %d; want 1", c.Len())
	}
	c.Remove(key("b"))
	if c.Len() != 0 {
		t.Fatalf("Len after removing every key = %d; want 0", c.Len())
	}
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should be gone after Remove")
	}
}

func TestCapacityClamp(t *testing.T) {
	c := New(0)
	c.Put(key("a"), 1, 1)
	c.Put(key("b"), 2, 1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d; want 1 (budget clamped to 1)", c.Len())
	}
}

func TestKeyCollisionFree(t *testing.T) {
	if VersionedKey("ab", 1, "c") == VersionedKey("a", 1, "bc") {
		t.Fatal("keys for different (namespace, query) pairs collided")
	}
	if VersionedKey("a", 1, "2\x00c") == VersionedKey("a", 12, "c") {
		t.Fatal("keys for different (version, query) pairs collided")
	}
	if VersionedKey("a", 1, "q") == VersionedKey("a", 2, "q") {
		t.Fatal("one query at two versions shares a key")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				if v, ok := c.Get(key(k)); ok {
					_ = v.(string)
				} else {
					c.Put(key(k), k, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if int64(st.Entries) > st.BudgetBytes {
		t.Fatalf("entries %d exceed budget %d", st.Entries, st.BudgetBytes)
	}
}

func TestSizedCacheEvictsByBytes(t *testing.T) {
	c := New(100)
	c.Put(key("a"), 1, 40)
	c.Put(key("b"), 2, 40)
	c.Put(key("c"), 3, 40) // evicts a (LRU)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("a survived past the byte budget")
	}
	if v, ok := c.Get(key("b")); !ok || v != 2 {
		t.Fatalf("b = %v, %v; want 2, true", v, ok)
	}
	if v, ok := c.Get(key("c")); !ok || v != 3 {
		t.Fatalf("c = %v, %v; want 3, true", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 || st.BudgetBytes != 100 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries, 80/100 bytes", st)
	}
}

func TestSizedCacheLRUOrderFollowsGets(t *testing.T) {
	c := New(100)
	c.Put(key("a"), 1, 40)
	c.Put(key("b"), 2, 40)
	c.Get(key("a"))        // a becomes MRU
	c.Put(key("c"), 3, 40) // evicts b, not a
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("recently-used a was evicted")
	}
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("LRU b survived")
	}
}

func TestSizedCacheOverwriteAdjustsBytes(t *testing.T) {
	c := New(100)
	c.Put(key("a"), 1, 30)
	c.Put(key("a"), 2, 70)
	if got := c.Bytes(); got != 70 {
		t.Fatalf("Bytes = %d, want 70 after overwrite", got)
	}
	if v, _ := c.Get(key("a")); v != 2 {
		t.Fatalf("a = %v, want overwritten value 2", v)
	}
}

func TestSizedCacheRejectsOverBudgetValues(t *testing.T) {
	c := New(50)
	c.Put(key("small"), 1, 10)
	c.Put(key("huge"), 2, 200)
	if _, ok := c.Get(key("huge")); ok {
		t.Fatal("over-budget value was cached")
	}
	if _, ok := c.Get(key("small")); !ok {
		t.Fatal("existing entry evicted for an uncacheable value")
	}
	// Overwriting an existing key with an over-budget value must not leave
	// the stale value addressable.
	c.Put(key("small"), 3, 200)
	if _, ok := c.Get(key("small")); ok {
		t.Fatal("stale value survived an over-budget overwrite")
	}
}

func TestSizedCacheRemoveAndClear(t *testing.T) {
	c := New(100)
	c.Put(key("a"), 1, 10)
	c.Put(key("b"), 2, 10)
	c.Remove(key("a"))
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("removed key still present")
	}
	if got := c.Bytes(); got != 10 {
		t.Fatalf("Bytes = %d after Remove, want 10", got)
	}
	c.Remove(key("b"))
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Len/Bytes = %d/%d after removing every key, want 0/0", c.Len(), c.Bytes())
	}
}

func TestSizedCacheConcurrent(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("k%d", i%32))
				c.Put(k, i, int64(i%512))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() < 0 {
		t.Fatalf("Bytes went negative: %d", c.Bytes())
	}
}

// Put reports whether it stored the value: one within the budget is
// stored, evicting others if it must; one over the whole budget is not.
func TestPutReportsStored(t *testing.T) {
	c := New(2)
	if !c.Put(key("a"), 1, 2) {
		t.Error("Put of a value filling the budget reported it refused")
	}
	if !c.Put(key("b"), 2, 1) {
		t.Error("Put of a value that evicts another reported it refused")
	}
	if c.Put(key("c"), 3, 3) {
		t.Error("Put of a value over the budget reported it stored")
	}
	if _, ok := c.Get(key("c")); ok {
		t.Error("a refused value is cached")
	}
}
