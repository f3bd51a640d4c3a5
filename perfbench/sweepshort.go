package main

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"repro/lynx/grid"
	"repro/lynx/load"
	"repro/lynx/sweep"
)

// sweep-short: one grid.Run per round over substrate × kind × payload,
// every cell a short System run through the registered load.GridBodies.
// The payload axis applies to echo cells; pipeline and mesh cells run
// their fixed unit at both payload values (distinct cell seeds), so the
// kinds are equally weighted.

const (
	sweepReplicas = 60
	sweepParallel = 2
)

// sweepKinds are the registered grid bodies the sweep runs.
var sweepKinds = []string{"echo", "pipeline", "mesh"}

// sweepSpec is the workload's grid: a pure function of the seed. body
// wraps each registered body (timing, spans); nil runs it bare.
func sweepSpec(seed uint64, parallel int, body func(kind string, c grid.Cell, r sweep.Run) sweep.Outcome) grid.Spec {
	if body == nil {
		body = func(kind string, c grid.Cell, r sweep.Run) sweep.Outcome {
			return load.GridBodies()[kind].Body(c, r)
		}
	}
	subs := make([]any, len(substrates))
	for i, s := range substrates {
		subs[i] = s.String()
	}
	return grid.Spec{
		Name: "perfbench sweep-short",
		Axes: []grid.Axis{
			{Name: "substrate", Values: subs},
			grid.AxisOf("kind", sweepKinds...),
			grid.AxisOf("payload", 0, 1000),
		},
		Replicas: sweepReplicas,
		Parallel: parallel,
		RootSeed: seed,
		Body: func(c grid.Cell, r sweep.Run) sweep.Outcome {
			return body(c.Str("kind"), c, r)
		},
	}
}

// renderDigest renders the table as the sweep's output (JSONL plus the
// merged registry) and returns the JSONL digest.
func renderDigest(tbl *grid.Table) [32]byte {
	tbl.Merged()
	return sha256.Sum256([]byte(tbl.RenderJSONL()))
}

func runSweepShort(c *runCtx, budget time.Duration) (*e2e, error) {
	// The Parallel=1 reference is also the warm-up; every timed round
	// must reproduce its JSONL digest.
	ref := grid.Run(sweepSpec(c.seed, 1, nil))
	c.tally.check(ref.Errs() == 0, "sweep-short reference: %d cell errors", ref.Errs())
	want := renderDigest(ref)
	systems := int64(len(ref.Cells) * sweepReplicas)

	e := newE2E()
	var mu sync.Mutex // guards e's hists against the grid's worker goroutines
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var firstBody atomic.Int64
		var roundSpan int64
		t0 := time.Now()
		spec := sweepSpec(c.seed, sweepParallel, func(kind string, cell grid.Cell, r sweep.Run) sweep.Outcome {
			start := time.Now()
			firstBody.CompareAndSwap(0, int64(start.Sub(t0)))
			out := load.GridBodies()[kind].Body(cell, r)
			end := time.Now()
			h := e.heavy.round
			if kind == "echo" {
				h = e.light.round
			}
			mu.Lock()
			h.add(float64(end.Sub(start)))
			mu.Unlock()
			c.spans.add("lynx.body", roundSpan, int64(cell.Index), start, end)
			return out
		})
		m0 := mallocs()
		roundSpan = c.spans.begin("grid.run", 0, int64(round))
		tbl := grid.Run(spec)
		rs := c.spans.begin("grid.render", roundSpan, int64(round))
		got := renderDigest(tbl)
		c.spans.end(rs)
		c.spans.end(roundSpan)
		e.round(systems, time.Since(t0))
		e.allocs += mallocs() - m0
		e.setupS = append(e.setupS, time.Duration(firstBody.Load()).Seconds())
		e.allocOps += systems
		c.tally.add(systems, int64(tbl.Errs()))
		c.tally.check(got == want, "sweep-short round %d: JSONL digest %x differs from the Parallel=1 digest %x",
			round, got[:8], want[:8])
	}
	e.heapMB = append(e.heapMB, liveHeapMB())
	return e, nil
}
