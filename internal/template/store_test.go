package template

import (
	"testing"

	"repro/internal/netlist"
)

func key(b byte) Key {
	var d netlist.Digest
	d[0] = b
	return Key{Device: "XCV50", H: 4, W: 4, Digest: d}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(Policy{Capacity: 2})
	k1, k2, k3 := key(1), key(2), key(3)
	if ev := s.Put(k1, &Template{}); ev != nil {
		t.Fatalf("unexpected eviction %v", ev)
	}
	if ev := s.Put(k2, &Template{}); ev != nil {
		t.Fatalf("unexpected eviction %v", ev)
	}
	// Touch k1 so k2 becomes the LRU victim.
	if _, ok := s.Get(k1); !ok {
		t.Fatal("k1 missing")
	}
	ev := s.Put(k3, &Template{})
	if len(ev) != 1 || ev[0] != k2 {
		t.Fatalf("evicted %v, want [k2]", ev)
	}
	if s.Len() != 2 {
		t.Fatalf("len %d after eviction", s.Len())
	}
	if s.Contains(k2) {
		t.Fatal("k2 still present")
	}
	if !s.Contains(k1) || !s.Contains(k3) {
		t.Fatal("k1/k3 missing")
	}
	st := s.Stats()
	if st.Stores != 3 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreUnbounded(t *testing.T) {
	s := NewStore(Policy{})
	for b := 0; b < 50; b++ {
		if ev := s.Put(key(byte(b)), &Template{}); ev != nil {
			t.Fatalf("unbounded store evicted %v", ev)
		}
	}
	if s.Len() != 50 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestStoreStatsAndHitRate(t *testing.T) {
	s := NewStore(Policy{Capacity: 4})
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("phantom hit")
	}
	s.Put(key(1), &Template{})
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("miss after put")
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("miss after put")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate %v", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate not zero")
	}
	s.NoteFallback()
	s.NoteFallback()
	st = s.Stats()
	if st.Fallbacks != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHitRateCountsEachLookupOnce: a served lookup, a lookup whose warm load
// fell back and a miss are three lookups, one of them served warm.
func TestHitRateCountsEachLookupOnce(t *testing.T) {
	s := NewStore(Policy{})
	s.Put(key(1), &Template{})
	if _, ok := s.Get(key(1)); !ok { // served warm
		t.Fatal("miss after put")
	}
	if _, ok := s.Get(key(1)); !ok { // found, then fell back
		t.Fatal("miss after put")
	}
	s.NoteFallback()
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("phantom hit")
	}
	st := s.Stats()
	if got := st.HitRate(); got != 1.0/3 {
		t.Fatalf("hit rate %v, want 1/3 (stats %+v)", got, st)
	}
	if st.Hits != 1 || st.Fallbacks != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want one hit, one fallback, one miss", st)
	}
}

func TestStorePutReplace(t *testing.T) {
	s := NewStore(Policy{Capacity: 2})
	a, b := &Template{}, &Template{}
	s.Put(key(1), a)
	if ev := s.Put(key(1), b); ev != nil {
		t.Fatalf("replace evicted %v", ev)
	}
	if s.Len() != 1 {
		t.Fatalf("len %d after replace", s.Len())
	}
	got, _ := s.Get(key(1))
	if got != b {
		t.Fatal("replace did not update the entry")
	}
	if st := s.Stats(); st.Stores != 1 {
		t.Fatalf("replace counted as a store: %+v", st)
	}
}
