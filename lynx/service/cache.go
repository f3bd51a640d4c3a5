package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// cellCache memoizes completed grid cells across jobs. The key commits
// to everything that determines a cell's aggregate — the body identity
// (workload kind plus every parameter outside the axes), the cell's
// axis-order-independent coordinates, the replica count, and the exact
// replica seeds — so a hit is byte-equivalent to a re-run by
// construction, and repeated or overlapping sweeps only pay for the
// cells they have not seen.
//
// Each entry also keeps the cell's rendered JSONL row, so a hit serves
// stored bytes instead of re-marshalling the aggregate. Entries are
// shared by reference across jobs (job result lines alias the row) and
// must never be mutated after insertion (the grid runner's Hook
// contract).
//
// Eviction is FIFO at a fixed entry bound: the daemon's steady state is
// many clients resubmitting recent sweeps, where insertion order is a
// good-enough recency proxy and the bookkeeping stays O(1).
type cellCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	order   []string
	hits    int64
	misses  int64
}

// cacheEntry is one cached cell: its aggregate, and the row the first
// job rendered for it under that job's cell key. The key is part of the
// entry because the cache key is axis-order-independent but the row's
// "cell" field is not: a job whose cell key differs renders its own row.
type cacheEntry struct {
	agg    *sweep.Aggregate
	row    []byte
	rowKey string
}

// rowFor returns the entry's stored row when it was rendered under key
// (the cell's Key), or renders the job's own row from the aggregate.
func (ce *cacheEntry) rowFor(c grid.Cell, key string, replicas int) []byte {
	if key == ce.rowKey {
		return ce.row
	}
	return grid.RenderRow(c, replicas, ce.agg)
}

func newCellCache(max int) *cellCache {
	return &cellCache{max: max, entries: map[string]*cacheEntry{}}
}

// cellKey derives the cache key of one cell run: a SHA-256 over the
// body identity, canonical cell coordinates, replica count, and the
// exact seeds grid.Run will hand the replicas. Including the seeds
// makes hits exact rather than heuristic — two sweeps share a cell only
// when the cell would genuinely reproduce byte-identically.
func cellKey(bodyID string, c grid.Cell, replicas int, root uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|R=%d", bodyID, c.CanonicalKey(), replicas)
	for k := 0; k < replicas; k++ {
		fmt.Fprintf(h, "|%d", sweep.CellSeed(root, c.Index, k))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (cc *cellCache) get(key string) (*cacheEntry, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	ce, ok := cc.entries[key]
	if ok {
		cc.hits++
	} else {
		cc.misses++
	}
	return ce, ok
}

func (cc *cellCache) put(key string, ce *cacheEntry) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.entries[key]; ok {
		return
	}
	for len(cc.entries) >= cc.max && len(cc.order) > 0 {
		oldest := cc.order[0]
		cc.order = cc.order[1:]
		delete(cc.entries, oldest)
	}
	cc.entries[key] = ce
	cc.order = append(cc.order, key)
}

// stats reports (entries, hits, misses).
func (cc *cellCache) stats() (int, int64, int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries), cc.hits, cc.misses
}
