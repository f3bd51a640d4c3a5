package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuBuckets are the packages and runtime activities flat CPU time is
// attributed to. "kernel" is the three kernel models; "lynx" is the
// lynx package and its grid, sweep, load, fault and codec layers.
var cpuBuckets = []string{
	"sim", "core", "bind", "kernel", "netsim", "obs", "lynx", "service",
	"runtime_sched", "runtime_stack", "runtime_gc", "runtime_other", "other",
}

// bucketOf maps a profiled function name to its bucket.
func bucketOf(fn string) string {
	prefixes := []struct{ prefix, bucket string }{
		{"repro/internal/sim.", "sim"},
		{"repro/internal/core.", "core"},
		{"repro/internal/bind/", "bind"},
		{"repro/internal/charlotte.", "kernel"},
		{"repro/internal/soda.", "kernel"},
		{"repro/internal/chrysalis.", "kernel"},
		{"repro/internal/netsim.", "netsim"},
		{"repro/internal/obs", "obs"},
		{"repro/lynx/service.", "service"},
		{"repro/lynx", "lynx"},
	}
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.bucket
		}
	}
	if !strings.HasPrefix(fn, "runtime.") {
		return "other"
	}
	name := strings.TrimPrefix(fn, "runtime.")
	for _, s := range []string{"newstack", "copystack", "morestack", "stackalloc", "stackfree",
		"stackcache", "adjust", "(*unwinder)", "gentraceback", "funcInfo", "pcvalue", "findfunc", "step"} {
		if strings.HasPrefix(name, s) {
			return "runtime_stack"
		}
	}
	for _, s := range []string{"gc", "mallocgc", "newobject", "makeslice", "growslice", "scan", "mark",
		"greyobject", "findObject", "heapBits", "(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)",
		"(*gcWork)", "(*gcBits)", "sweep", "bgsweep", "bgscavenge", "(*sweepLocked)", "memclrNoHeapPointers",
		"nextFreeFast", "wbBuf", "bulkBarrier", "typePointers", "(*typePointers)", "spanOf", "publicationBarrier",
		"deductAssistCredit", "(*pageAlloc)", "(*scavenger", "(*limiterEvent)", "(*gcControllerState)",
		"(*gcCPULimiterState)", "(*pageBits)", "(*fixalloc)", "(*lfstack)", "(*spanSet)"} {
		if strings.HasPrefix(name, s) {
			return "runtime_gc"
		}
	}
	for _, s := range []string{"memmove", "map", "(*map", "aeshash", "memhash", "strhash", "nilinterhash",
		"efaceeq", "ifaceeq", "memequal", "cmpstring", "concatstring", "slicebytetostring", "convT",
		"assertE2I", "typeAssert", "getitab", "(*itabTableType)", "strequal", "interhash", "rand", "duff"} {
		if strings.HasPrefix(name, s) {
			return "runtime_other"
		}
	}
	// Goroutine scheduling, channel handoff, parking, locks, timers and
	// system calls.
	return "runtime_sched"
}

// startCPUProfile starts a CPU profile into path; the returned function
// stops it and closes the file.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// goTool finds the go command that built this toolchain.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// cpuShares buckets a CPU profile's flat time with `go tool pprof -top`
// and returns each bucket's share of the total.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command(goTool(), "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return bucketTop(string(outb))
}

// bucketTop parses `pprof -top` output (flat, flat%, sum%, cum, cum%,
// function) into bucket shares of the summed flat time.
func bucketTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := parseDur(fields[0])
		if err != nil {
			return nil, err
		}
		fn := strings.Join(fields[5:], " ")
		flat[bucketOf(fn)] += v
		total += v
	}
	if !header || total == 0 {
		return nil, fmt.Errorf("no samples in profile")
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = flat[b] / total
	}
	return out, nil
}

// parseDur parses a pprof time value such as "10ms", "1.20s", "0".
func parseDur(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}, {"mins", 60}, {"hrs", 3600}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// gcWatch samples the runtime's GC CPU and cycle counters across a
// traced pass.
type gcWatch struct{ start []metrics.Sample }

var gcMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() []metrics.Sample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startGCWatch() gcWatch { return gcWatch{readGC()} }

func num(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// stop reports the GC share of CPU and the GC cycles since start.
func (w gcWatch) stop(out map[string]metric) {
	runtime.GC() // the CPU class totals are brought up to date at GC
	end := readGC()
	gc := num(end[0]) - num(w.start[0])
	total := num(end[1]) - num(w.start[1])
	out["go.gc_cpu_share"] = metric{gc / total, "ratio"}
	out["go.gc_cycles"] = metric{num(end[2]) - num(w.start[2]) - 1, "count"}
}
