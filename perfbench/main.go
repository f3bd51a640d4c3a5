// Command perfbench is the repository's host-performance benchmark. It
// runs one named workload against the public APIs of lynx, lynx/grid,
// lynx/load and lynx/service for a fixed host-time budget, checks every
// output, and prints one JSON result line.
//
//	perfbench --workload rpc-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (tracing
// off). With --trace 1 it runs the per-layer cost ladder, then the
// workload once untraced and once with spans and a CPU profile, and
// carries the per-layer metrics. Spans and profiles are written under
// .bench_out/ in the working directory.
//
// Virtual time is a pure function of (spec, seed), so no virtual number
// is a metric here: virtual results are output checks, and a host-only
// change must leave them byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// outDir holds the spans and profiles of traced runs, relative to the
// working directory.
const outDir = ".bench_out"

// A workload is one generated input set the benchmark can run. run
// executes the workload for the budget and returns its end-to-end
// figures.
type workload struct {
	name string
	run  func(c *runCtx, budget time.Duration) (*e2e, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	{"rpc-steady", runRPCSteady},
	{"sweep-short", runSweepShort},
	{"lynxd-mixed", runLynxdMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx carries one run's seed, its output-check tally, and (in a
// traced run) the span recorder.
type runCtx struct {
	seed  uint64
	tally *tally
	spans *spanRec
}

// e2e is one workload pass's end-to-end figures. Each workload counts
// its own kind of operation: an RPC (rpc-steady), a System run
// (sweep-short), or a job (lynxd-mixed). Operations come in a light and
// a heavy class, timed apart: 0 B against 1000 B RPCs, echo Systems
// against pipeline and mesh Systems, cache-hit jobs against jobs that
// computed a cell. Every workload runs in rounds, and throughput,
// median latency and live heap are medians over rounds, robust to a
// round that shared the host with other work.
type e2e struct {
	setupS       []float64 // repeated set-up times, seconds
	rates        []float64 // per-round operations per second
	heapMB       []float64 // per-round live heap
	light, heavy *latency  // per-operation host latency by class
	allocs       uint64    // heap allocations during the timed phase
	allocOps     int64     // operations the allocations are divided over
}

func newE2E() *e2e { return &e2e{light: newLatency(), heavy: newLatency()} }

func (e *e2e) opsPerS() float64 { return median(e.rates) }

// round closes a round: its operations, elapsed time and latencies.
func (e *e2e) round(ops int64, d time.Duration) {
	e.rates = append(e.rates, float64(ops)/d.Seconds())
	e.light.endRound()
	e.heavy.endRound()
}

// latency is one operation class's host latency: the current round's
// histogram, the pass's pooled histogram, and each round's median.
type latency struct {
	round, all *hist
	p50s       []float64
}

func newLatency() *latency { return &latency{round: newHist(), all: newHist()} }

func (l *latency) endRound() {
	if l.round.n == 0 {
		return
	}
	l.p50s = append(l.p50s, l.round.quantileMS(0.5))
	l.all.merge(l.round)
	l.round.reset()
}

// endToEndMetrics renders a pass as the benchmark's end-to-end metrics.
func endToEndMetrics(e *e2e) map[string]metric {
	return map[string]metric{
		"setup_s":         {median(e.setupS), "s"},
		"ops_per_s":       {e.opsPerS(), "1/s"},
		"light_op_p50_ms": {median(e.light.p50s), "ms"},
		"heavy_op_p50_ms": {median(e.heavy.p50s), "ms"},
		"allocs_per_op":   {float64(e.allocs) / float64(max(e.allocOps, 1)), "count"},
		"live_heap_mb":    {median(e.heapMB), "MB"},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (rpc-steady, sweep-short, lynxd-mixed)")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "host seconds the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %d, trace %d)\n",
			*name, *seed, *seconds, *trace)
		return 2
	}
	c := &runCtx{seed: *seed, tally: &tally{}}
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	var err error
	checkPaperRTT(c)
	if *trace == 0 {
		var e *e2e
		if e, err = w.run(c, budget); err == nil {
			metrics = endToEndMetrics(e)
		}
	} else {
		metrics, err = tracedRun(c, w, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			return 1
		}
	}
	res := result{
		Attempted: c.tally.attempted.Load(),
		Failed:    c.tally.failed.Load(),
		Metrics:   metrics,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// tracedRun runs the cost ladder, then the workload untraced and traced
// for half the budget each, and derives the per-layer metrics.
func tracedRun(c *runCtx, w workload, budget time.Duration) (map[string]metric, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	c.spans = newSpanRec()
	out := map[string]metric{}
	if err := runLadder(c, out); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	spans := c.spans
	c.spans = nil
	plain, err := w.run(c, budget/2)
	if err != nil {
		return nil, err
	}
	c.spans = spans
	prof := fmt.Sprintf("%s/cpu-%s-%d.pprof", outDir, w.name, c.seed)
	gc := startGCWatch()
	stop, err := startCPUProfile(prof)
	if err != nil {
		return nil, err
	}
	traced, err := w.run(c, budget/2)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	gc.stop(out)
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, fmt.Errorf("cpu attribution: %w", err)
	}
	for _, b := range cpuBuckets {
		out["cpu_share."+b] = metric{shares[b], "ratio"}
	}
	out["trace.overhead_pct"] = metric{100 * (plain.opsPerS() - traced.opsPerS()) / plain.opsPerS(), "%"}
	// The latency tails vary too much from run to run on a small host to
	// carry an end-to-end bound, so they are reported here, from the
	// untraced pass.
	out["workload.light_op_p90_ms"] = metric{plain.light.all.quantileMS(0.90), "ms"}
	out["workload.heavy_op_p90_ms"] = metric{plain.heavy.all.quantileMS(0.90), "ms"}
	all := c.spans.all()
	for _, l := range spanLayers {
		out["self_ms."+l] = metric{0, "ms"}
	}
	for layer, ns := range selfTimeByLayer(all) {
		if _, ok := out["self_ms."+layer]; ok {
			out["self_ms."+layer] = metric{float64(ns) / 1e6, "ms"}
		}
	}
	out["trace.spans"] = metric{float64(len(all)), "count"}
	path := fmt.Sprintf("%s/spans-%s-%d.jsonl", outDir, w.name, c.seed)
	if err := writeSpans(path, all); err != nil {
		return nil, err
	}
	return out, nil
}

// tally counts checked operations and failures (the error ratio is
// failed ÷ attempted). Safe for concurrent use.
type tally struct {
	attempted, failed atomic.Int64
}

// check records one checked operation; a failure is also reported on
// standard error.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
	return ok
}

// add records a batch of checked operations counted elsewhere.
func (t *tally) add(attempted, failed int64) {
	t.attempted.Add(attempted)
	t.failed.Add(failed)
}

// liveHeapMB forces a collection and returns the heap in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sinceMS returns the host milliseconds elapsed since t.
func sinceMS(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
