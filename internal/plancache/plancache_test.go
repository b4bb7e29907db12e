package plancache

import (
	"fmt"
	"sync"
	"testing"
)

func TestHitMiss(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put(key("a"), 1)
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
	c.Put(key("a"), 1)
	c.Put(key("a"), 2)
	v, _ := c.Get(key("a"))
	if v.(int) != 2 {
		t.Fatalf("overwrite kept old value %v", v)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 0 evictions, 1 entry", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put(key("a"), 1)
	c.Put(key("b"), 2)
	c.Get(key("a"))    // a is now most recent
	c.Put(key("c"), 3) // evicts b
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
	c.Put(key("a"), 1)
	c.Put(key("b"), 2)
	c.Remove(key("a"))
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("a should be gone after Remove")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d; want 0", c.Len())
	}
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should be gone after Clear")
	}
}

func TestCapacityClamp(t *testing.T) {
	c := New(0)
	c.Put(key("a"), 1)
	c.Put(key("b"), 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d; want 1 (capacity clamped to 1)", c.Len())
	}
}

// key is the tests' one namespace at one version.
func key(query string) Key { return VersionedKey("test", 1, query) }

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
					c.Put(key(k), k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
}
