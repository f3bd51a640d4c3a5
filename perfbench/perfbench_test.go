package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/lynx"
	"repro/lynx/grid"
)

// heldOutSeed is a seed no tuning run used.
const heldOutSeed = 982451653

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, sub := range substrates {
		a, b, other := planStar(7, sub, 10), planStar(7, sub, 10), planStar(8, sub, 10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: star plan differs for the same seed", sub)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: star plan identical for seeds 7 and 8", sub)
		}
	}
	if grid.Fingerprint(sweepSpec(7, 2, nil)) != grid.Fingerprint(sweepSpec(7, 1, nil)) {
		t.Error("sweep grid depends on Parallel")
	}
	if sweepSpec(7, 2, nil).RootSeed != 7 || sweepSpec(8, 2, nil).RootSeed != 8 {
		t.Error("sweep grid is not seeded by the workload seed")
	}
	a, b, other := planJobs(7, 240, 5*time.Second), planJobs(7, 240, 5*time.Second), planJobs(8, 240, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("job stream differs for the same seed")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("job stream identical for seeds 7 and 8")
	}
}

func TestJobStreamShape(t *testing.T) {
	plans := planJobs(3, 1200, 10*time.Second)
	count := map[string]int{}
	var last time.Duration
	for i, p := range plans {
		count[p.class]++
		if p.due < last || p.due >= 10*time.Second {
			t.Fatalf("job %d due %v after %v", i, p.due, last)
		}
		last = p.due
		switch {
		case p.class == "cold" && p.base != -1:
			t.Fatalf("cold job %d copies job %d", i, p.base)
		case p.class != "cold" && (p.base < 0 || p.base >= i || plans[p.base].class != "cold"):
			t.Fatalf("%s job %d copies job %d", p.class, i, p.base)
		}
	}
	// A quarter cold, a sixth extend, the rest repeats (job 0 is forced
	// cold, so the first block may shift by one).
	for class, want := range map[string]int{"cold": 300, "extend": 200, "repeat": 700} {
		if d := count[class] - want; d < -1 || d > 1 {
			t.Errorf("%d %s jobs, want %d", count[class], class, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "lynx.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "runtime.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "runtime.b", Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "runtime.c", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Parent: 3, Name: "kernel.d", Start: 25, End: 35},
	}
	self := selfTime(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	byLayer := selfTimeByLayer(spans)
	if byLayer["lynx"] != 50 || byLayer["runtime"] != 70 || byLayer["kernel"] != 10 {
		t.Errorf("layer self times %v", byLayer)
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	var xs []float64
	for i := 1; i <= 10000; i++ {
		ns := 1000 + float64(i*i%9973)*37
		h.add(ns)
		xs = append(xs, ns/1e6)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantileMS(q), quantile(xs, q)
		if math.Abs(got-want)/want > 0.003 {
			t.Errorf("q%.2f: hist %.6f ms, exact %.6f ms", q, got, want)
		}
	}
}

func TestBucketTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      500ms 50.00%  runtime.mallocgc
     250ms 25.00% 75.00%      250ms 25.00%  repro/internal/sim.(*Proc).Yield
     200ms 20.00% 95.00%      200ms 20.00%  runtime.gopark
      50ms  5.00%   100%       50ms  5.00%  repro/lynx/service.(*Service).worker
`
	got, err := bucketTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime_gc": 0.5, "sim": 0.25, "runtime_sched": 0.2, "service": 0.05}
	for b, v := range want {
		if math.Abs(got[b]-v) > 1e-9 {
			t.Errorf("%s share %v, want %v", b, got[b], v)
		}
	}
}

// benchmarkFile is the repository's benchmark declaration.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires the emitted metrics to be exactly the declared
// ones, with the declared units and well-formed names.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, w := range want {
		names = append(names, w.Name)
		m, ok := got[w.Name]
		switch {
		case !metricName.MatchString(w.Name):
			t.Errorf("metric name %q is malformed", w.Name)
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, declared %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
	sort.Strings(names)
	var emitted []string
	for k := range got {
		emitted = append(emitted, k)
	}
	sort.Strings(emitted)
	if !reflect.DeepEqual(names, emitted) {
		t.Errorf("emitted metrics %v, declared %v", emitted, names)
	}
}

// TestHeldOutSeed runs every workload, and the traced run, on a seed
// no tuning run used: every output check must pass and the metrics
// must be exactly the declared ones.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := &runCtx{seed: heldOutSeed, tally: &tally{}}
			checkPaperRTT(c)
			e, err := w.run(c, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if n := c.tally.failed.Load(); n != 0 || c.tally.attempted.Load() == 0 {
				t.Errorf("%d of %d checks failed", n, c.tally.attempted.Load())
			}
			checkMetrics(t, endToEndMetrics(e), bf.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, _ := findWorkload("sweep-short")
		c := &runCtx{seed: heldOutSeed, tally: &tally{}}
		out, err := tracedRun(c, w, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.tally.failed.Load(); n != 0 {
			t.Errorf("%d of %d checks failed", n, c.tally.attempted.Load())
		}
		checkMetrics(t, out, bf.PerLayer)
		for _, sub := range substrates {
			if k, ok := out["kernel.rpc_ns."+sub.String()]; ok && out["lynx.rpc_ns."+sub.String()].Value < k.Value {
				t.Errorf("%s: lynx rung below kernel rung", sub)
			}
		}
	})
}

// TestShardCountsMatchSerial pins that the star System's virtual end
// time and counters are identical at SimWorkers 1 and 2.
func TestShardCountsMatchSerial(t *testing.T) {
	lat := []*hist{newHist(), newHist(), newHist(), newHist()}
	c := &runCtx{seed: heldOutSeed, tally: &tally{}}
	for _, sub := range []lynx.Substrate{lynx.Ideal, lynx.SODA} {
		p := planStar(heldOutSeed, sub, 50)
		one, two := runStar(c, p, 1, lat, 0), runStar(c, p, 2, lat, 0)
		if one.virtual != two.virtual || !reflect.DeepEqual(one.counters, two.counters) {
			t.Errorf("%s: SimWorkers 1 and 2 disagree", sub)
		}
		if one.bad != 0 || one.rpcs != 200 {
			t.Errorf("%s: %d bad of %d RPCs", sub, one.bad, one.rpcs)
		}
	}
}
