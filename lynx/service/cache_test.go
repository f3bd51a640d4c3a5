package service

import (
	"fmt"
	"testing"

	"repro/lynx/sweep"
)

func TestCellCacheHitMissAndStats(t *testing.T) {
	cc := newCellCache(4)
	if _, ok := cc.get("k1"); ok {
		t.Fatal("empty cache must miss")
	}
	agg := &sweep.Aggregate{}
	cc.put("k1", &cacheEntry{agg: agg})
	got, ok := cc.get("k1")
	if !ok || got.agg != agg {
		t.Fatal("cache must return the stored aggregate by reference")
	}
	entries, hits, misses := cc.stats()
	if entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 1, 1)", entries, hits, misses)
	}
}

func TestCellCacheFIFOEviction(t *testing.T) {
	cc := newCellCache(2)
	for i := 0; i < 3; i++ {
		cc.put(fmt.Sprintf("k%d", i), &cacheEntry{agg: &sweep.Aggregate{}})
	}
	if _, ok := cc.get("k0"); ok {
		t.Fatal("oldest entry must be evicted at the bound")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := cc.get(k); !ok {
			t.Fatalf("entry %s must survive", k)
		}
	}
}

func TestCellCacheDuplicatePutKeepsFirst(t *testing.T) {
	cc := newCellCache(2)
	first := &sweep.Aggregate{}
	cc.put("k", &cacheEntry{agg: first})
	cc.put("k", &cacheEntry{agg: &sweep.Aggregate{}})
	got, _ := cc.get("k")
	if got.agg != first {
		t.Fatal("duplicate put must keep the first aggregate")
	}
	if entries, _, _ := cc.stats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
}
