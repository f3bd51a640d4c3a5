package obs

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Counter is a monotonically-increasing named count. The nil *Counter
// is a valid no-op, so hot paths can increment unconditionally even
// when no registry is attached. Increments are atomic: shard envs of a
// parallel partition bump shared counters concurrently, and addition
// commutes, so totals are independent of worker interleaving.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Histogram accumulates virtual-time durations: count/sum/min/max plus
// log2 buckets (bucket i counts observations in [2^i, 2^(i+1)) ns).
// The nil *Histogram is a valid no-op. Like Counter, observations are
// atomic and commutative (adds plus monotone extrema CAS), so parallel
// shard envs can observe into one histogram and land identical state
// regardless of interleaving.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// minPlus holds min+1 so the zero value still means "no
	// observations yet" (observed values are clamped >= 0).
	minPlus atomic.Int64
	max     atomic.Int64
	buckets [48]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.lowerMin(v + 1)
	h.raiseMax(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// lowerMin lowers minPlus to vp unless an equal-or-lower value is set.
func (h *Histogram) lowerMin(vp int64) {
	for {
		cur := h.minPlus.Load()
		if cur != 0 && cur <= vp {
			return
		}
		if h.minPlus.CompareAndSwap(cur, vp) {
			return
		}
	}
}

// raiseMax raises max to v unless an equal-or-higher value is set.
func (h *Histogram) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if cur >= v {
			return
		}
		if h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.sum.Load())
}

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() sim.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return sim.Duration(h.sum.Load() / n)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.max.Load())
}

// Min returns the smallest observed duration (0 when empty).
func (h *Histogram) Min() sim.Duration {
	if h == nil {
		return 0
	}
	mp := h.minPlus.Load()
	if mp == 0 {
		return 0
	}
	return sim.Duration(mp - 1)
}

// Merge folds other's observations into h: counts and sums add, the
// extrema widen, and the log2 buckets merge element-wise. Merging
// replica histograms this way is exact for count/sum/min/max and
// bucket-resolution for quantiles. No-op when other is nil or empty.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.count.Load() == 0 {
		return
	}
	if omp := other.minPlus.Load(); omp != 0 {
		h.lowerMin(omp)
	}
	h.raiseMax(other.max.Load())
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the log2 buckets,
// interpolating linearly inside the bucket the rank lands in. Bucket i
// holds observations in [2^(i-1), 2^i), so the estimate is exact to
// within a factor of two — adequate for the p50/p95/p99 columns of
// sweep reports, where replica-to-replica spread dominates.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	max, min := h.max.Load(), int64(h.Min())
	rank := q * float64(h.count.Load())
	var seen float64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - seen) / float64(n)
			v := float64(lo) + frac*float64(hi-lo)
			if v > float64(max) {
				v = float64(max)
			}
			if v < float64(min) {
				v = float64(min)
			}
			return sim.Duration(v)
		}
		seen += float64(n)
	}
	return sim.Duration(max)
}

// bucketBounds returns the value range [lo, hi) covered by log2 bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// Metrics is a registry of named counters and histograms. Instrument
// updates are atomic (parallel shard envs increment shared instruments
// concurrently), and the name→instrument maps are guarded by a
// read-write lock so instruments may also be created mid-run — a
// process launched into a running partition allocates its per-process
// counters while other shards execute. Kernels still pre-create their
// fixed-name instruments (the lock's fast path is a read lock, but
// setup-time creation keeps hot paths on cached handles). The nil
// *Metrics hands out nil (no-op) instruments, which is the cheap
// default the instrumentation relies on.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c, ok := m.counters[name]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	if c, ok = m.counters[name]; !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	m.mu.Unlock()
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h, ok := m.hists[name]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	if h, ok = m.hists[name]; !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	m.mu.Unlock()
	return h
}

// ProcKey derives the per-process variant of a metric name, e.g.
// ProcKey("unwanted_receives_total", 3) = "unwanted_receives_total{proc=3}".
func ProcKey(name string, proc int) string {
	return name + "{proc=" + strconv.Itoa(proc) + "}"
}

// Value returns the named counter's value without creating it.
func (m *Metrics) Value(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	return c.Value()
}

// ProcValue returns the per-process counter's value without creating it.
func (m *Metrics) ProcValue(name string, proc int) int64 {
	return m.Value(ProcKey(name, proc))
}

// SumPrefix sums every counter whose name starts with prefix — the way
// to aggregate a per-process metric across processes.
func (m *Metrics) SumPrefix(prefix string) int64 {
	if m == nil {
		return 0
	}
	var total int64
	m.mu.RLock()
	for name, c := range m.counters {
		if strings.HasPrefix(name, prefix) {
			total += c.n.Load()
		}
	}
	m.mu.RUnlock()
	return total
}

// Snapshot flattens the registry into name→value pairs: counters under
// their own names, histograms as name_count / name_sum_ns / name_max_ns.
// Iteration order is irrelevant (it is a map), but the content is
// deterministic for a deterministic run.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	out := make(map[string]int64, len(m.counters)+3*len(m.hists))
	for name, c := range m.counters {
		out[name] = c.n.Load()
	}
	for name, h := range m.hists {
		out[name+"_count"] = h.count.Load()
		out[name+"_sum_ns"] = h.sum.Load()
		out[name+"_max_ns"] = h.max.Load()
	}
	m.mu.RUnlock()
	return out
}

// Merge folds every counter and histogram of other into m, creating
// instruments on first sight: counters sum, histograms bucket-merge.
// Addition commutes, so merging replica registries in any order yields
// the same pooled registry — what lets a parallel sweep aggregate
// per-run metrics independently of worker scheduling. No-op on a nil
// receiver or other.
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	other.mu.RLock()
	counters, hists := collect(other)
	other.mu.RUnlock()
	for _, e := range counters {
		m.Counter(e.name).Add(e.c.n.Load())
	}
	for _, e := range hists {
		m.Histogram(e.name).Merge(e.h)
	}
}

type counterEntry struct {
	name string
	c    *Counter
}

type histEntry struct {
	name string
	h    *Histogram
}

// collect snapshots the registry's entries (caller holds the lock) so
// merges never hold two registry locks at once.
func collect(m *Metrics) ([]counterEntry, []histEntry) {
	cs := make([]counterEntry, 0, len(m.counters))
	for name, c := range m.counters {
		cs = append(cs, counterEntry{name, c})
	}
	hs := make([]histEntry, 0, len(m.hists))
	for name, h := range m.hists {
		hs = append(hs, histEntry{name, h})
	}
	return cs, hs
}

// MergePrefixed folds other into m like Merge, but files every
// instrument under "prefix/name". A keyed result table uses this to
// pool per-cell registries into one table-wide registry without
// collapsing cells into each other: cell keys become name prefixes, so
// the pooled registry answers both "total kernel messages in cell X"
// (Value("X/kernel_messages_total")) and, via SumPrefix, cross-cell
// rollups. No-op on a nil receiver or other.
func (m *Metrics) MergePrefixed(prefix string, other *Metrics) {
	if m == nil || other == nil {
		return
	}
	other.mu.RLock()
	counters, hists := collect(other)
	other.mu.RUnlock()
	for _, e := range counters {
		m.Counter(prefix + "/" + e.name).Add(e.c.n.Load())
	}
	for _, e := range hists {
		m.Histogram(prefix + "/" + e.name).Merge(e.h)
	}
}

// Names returns every counter and histogram name, sorted (for render
// and debugging).
func (m *Metrics) Names() []string {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.counters)+len(m.hists))
	for n := range m.counters {
		names = append(names, n)
	}
	for n := range m.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
