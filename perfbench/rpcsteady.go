package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/lynx"
)

// rpc-steady: for each substrate, one long System holding two disjoint
// stars. Each star is one server and two closed-loop clients; one
// client sends 0 B and the other 1000 B, echoed back. The two stars are
// separate boot components, so the System is partitioned and runs its
// shards concurrently at SimWorkers=2.

var substrates = []lynx.Substrate{lynx.Ideal, lynx.Charlotte, lynx.SODA, lynx.Chrysalis}

const (
	rpcSteadyWorkers = 2
	starCount        = 2
	starPayload      = 1000
)

// starRPCs is the RPCs each client makes per System, sized so every
// substrate's System takes a few hundred host milliseconds.
var starRPCs = map[lynx.Substrate]int{
	lynx.Ideal:     6000,
	lynx.Charlotte: 2500,
	lynx.SODA:      3000,
	lynx.Chrysalis: 2500,
}

// starPlan is the generated input of one star System: its seed and each
// client's payload. A pure function of (workload seed, substrate).
type starPlan struct {
	sub      lynx.Substrate
	seed     uint64
	rpcs     int
	payloads [starCount][2][]byte
}

func planStar(seed uint64, sub lynx.Substrate, rpcs int) starPlan {
	p := starPlan{sub: sub, seed: sim.StreamSeed(seed, uint64(sub)+1), rpcs: rpcs}
	rng := sim.NewRand(sim.StreamSeed(p.seed, 99))
	for s := range p.payloads {
		p.payloads[s][0] = []byte{}
		buf := make([]byte, starPayload)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		p.payloads[s][1] = buf
	}
	return p
}

// starOutcome is what one star System run produced.
type starOutcome struct {
	virtual  lynx.Time
	counters map[string]int64
	rpcs     int64
	bad      int64 // echo replies that did not equal their request
	setup    time.Duration
	run      time.Duration
	allocs   uint64
}

// runStar builds and runs one star System at the given SimWorkers,
// recording each RPC's host latency into lat (one hist per client).
func runStar(c *runCtx, p starPlan, workers int, lat []*hist, parent int64) starOutcome {
	var out starOutcome
	var firstBody atomic.Int64
	var bad, done atomic.Int64
	var rs int64 // the run span, parent of the sampled RPC spans
	t0 := time.Now()
	sp := c.spans.begin("lynx.setup", parent, int64(p.sub))
	sys := lynx.NewSystem(lynx.Config{Substrate: p.sub, Seed: p.seed, SimWorkers: workers})
	for s := 0; s < starCount; s++ {
		server := sys.Spawn(fmt.Sprintf("server%d", s), func(t *lynx.Thread, boot []*lynx.End) {
			for _, e := range boot {
				t.Serve(e, func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{Data: req.Data()})
				})
			}
		})
		for k := 0; k < 2; k++ {
			data := p.payloads[s][k]
			h := lat[2*s+k]
			client := sys.Spawn(fmt.Sprintf("client%d.%d", s, k), func(t *lynx.Thread, boot []*lynx.End) {
				firstBody.CompareAndSwap(0, int64(time.Since(t0)))
				var nbad, ndone int64
				for i := 0; i < p.rpcs; i++ {
					var cs int64
					if i%32 == 0 {
						cs = c.spans.begin("runtime.connect", rs, int64(p.sub))
					}
					start := time.Now()
					reply, err := t.Connect(boot[0], "echo", lynx.Msg{Data: data})
					h.add(float64(time.Since(start)))
					if cs != 0 {
						c.spans.end(cs)
					}
					ndone++
					if err != nil || !bytes.Equal(reply.Data, data) {
						nbad++
					}
				}
				bad.Add(nbad)
				done.Add(ndone)
				t.Destroy(boot[0])
			})
			sys.Join(client, server)
		}
	}
	c.spans.end(sp)
	m0 := mallocs()
	rs = c.spans.begin("lynx.run", parent, int64(p.sub))
	start := time.Now()
	err := sys.Run()
	out.run = time.Since(start)
	c.spans.end(rs)
	out.allocs = mallocs() - m0
	out.setup = time.Duration(firstBody.Load())
	out.virtual = sys.Now()
	out.counters = sys.Metrics().Snapshot()
	out.rpcs = done.Load()
	out.bad = bad.Load()
	if err != nil {
		out.bad++
		fmt.Fprintf(os.Stderr, "rpc-steady %s: run: %v\n", p.sub, err)
	}
	return out
}

func runRPCSteady(c *runCtx, budget time.Duration) (*e2e, error) {
	plans := make([]starPlan, len(substrates))
	refs := make([]starOutcome, len(substrates))
	lat := make([]*hist, 2*starCount)
	for i := range lat {
		lat[i] = newHist()
	}
	// The serial reference run doubles as warm-up; every timed System
	// must reproduce its virtual end time and counters exactly.
	for i, sub := range substrates {
		plans[i] = planStar(c.seed, sub, starRPCs[sub])
		refs[i] = runStar(&runCtx{seed: c.seed, tally: c.tally}, plans[i], 1, lat, 0)
		c.tally.check(refs[i].bad == 0 && refs[i].rpcs == int64(4*plans[i].rpcs),
			"rpc-steady %s reference: %d bad of %d RPCs", sub, refs[i].bad, refs[i].rpcs)
	}
	e := newE2E()
	for _, h := range lat {
		h.reset()
	}
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var setup, elapsed time.Duration
		var rpcs int64
		for i, p := range plans {
			sysSpan := c.spans.begin("lynx.system", 0, int64(p.sub))
			o := runStar(c, p, rpcSteadyWorkers, lat, sysSpan)
			c.spans.end(sysSpan)
			setup += o.setup
			rpcs += o.rpcs
			elapsed += o.run
			e.allocs += o.allocs
			e.allocOps += o.rpcs
			c.tally.add(o.rpcs, o.bad)
			c.tally.check(o.virtual == refs[i].virtual && maps.Equal(o.counters, refs[i].counters),
				"rpc-steady %s round %d: virtual end %v / %d counters differ from the SimWorkers=1 run (%v / %d)",
				p.sub, round, o.virtual, len(o.counters), refs[i].virtual, len(refs[i].counters))
		}
		e.setupS = append(e.setupS, setup.Seconds())
		// Each star's client 0 sends 0 B (light), client 1 sends 1000 B.
		for i, h := range lat {
			if i%2 == 0 {
				e.light.round.merge(h)
			} else {
				e.heavy.round.merge(h)
			}
			h.reset()
		}
		e.round(rpcs, elapsed)
	}
	e.heapMB = append(e.heapMB, liveHeapMB())
	return e, nil
}
