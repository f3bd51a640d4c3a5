package main

import "math"

// hist is a fixed-memory latency histogram with log-spaced buckets
// 0.2% wide, from 100 ns to 100 s. Its memory does not grow with the
// number of samples, so a faster program (more samples per run) does
// not report a larger live heap. Not safe for concurrent use: give
// each recording goroutine its own and merge.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histMinNS = 100.0
	histMaxNS = 1e11
)

var (
	histLnRes   = math.Log(1.002)
	histBuckets = int(math.Log(histMaxNS/histMinNS)/histLnRes) + 1
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

// add records one sample in nanoseconds (clamped to the range).
func (h *hist) add(ns float64) {
	i := 0
	if ns > histMinNS {
		i = min(int(math.Log(ns/histMinNS)/histLnRes), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantileMS returns the q-quantile in milliseconds, interpolating
// geometrically inside the bucket that holds the rank.
func (h *hist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			frac := (rank - cum + 0.5) / float64(c)
			return histMinNS * math.Exp((float64(i)+frac)*histLnRes) / 1e6
		}
		cum += float64(c)
	}
	return histMaxNS / 1e6
}
