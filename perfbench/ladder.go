package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	chbind "repro/internal/bind/charlotte"
	chrbind "repro/internal/bind/chrysalis"
	"repro/internal/bind/ideal"
	sodabind "repro/internal/bind/soda"
	"repro/internal/calib"
	"repro/internal/charlotte"
	"repro/internal/chrysalis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/load"
	"repro/lynx/sweep"
)

// The cost ladder times one echo RPC, or one unit of work, at each
// layer through that layer's public calls: sim switch and timer → raw
// kernel echo → binding + core run-time echo → lynx System echo → grid
// cell → load cell → lynxd job. runtime.rpc_ns is the paper's §3.3
// subtraction (LYNX 57 ms − raw kernel calls 55 ms) done in host ns.
// Every rung runs a fixed amount of work, so a traced run's length does
// not depend on the host.

const (
	ladderReps    = 3    // repetitions per timed rung; the median is reported
	ladderRPCs    = 3000 // echo RPCs per rung repetition
	ladderSwitch  = 200000
	lifecycleRuns = 60 // single-RPC Systems per substrate for new/boot/teardown
	shardRPCs     = 500
	gridReplicas  = 20
)

// rung is one timed repetition: elapsed host time and heap allocations.
type rung struct {
	d      time.Duration
	allocs uint64
}

// timeRung runs fn ladderReps times and returns the repetition with the
// median time.
func timeRung(c *runCtx, name string, fn func() error) (rung, error) {
	var rs []rung
	for i := 0; i < ladderReps; i++ {
		sp := c.spans.begin(name, 0, int64(i))
		m0 := mallocs()
		t0 := time.Now()
		if err := fn(); err != nil {
			return rung{}, fmt.Errorf("%s: %w", name, err)
		}
		r := rung{time.Since(t0), mallocs() - m0}
		c.spans.end(sp)
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].d < rs[j].d })
	return rs[len(rs)/2], nil
}

func runLadder(c *runCtx, out map[string]metric) error {
	steps := []func(*runCtx, map[string]metric) error{
		ladderSim, ladderEcho, ladderLifecycle, ladderShard, ladderGrid, ladderLoad, ladderService,
	}
	for _, step := range steps {
		if err := step(c, out); err != nil {
			return err
		}
	}
	return nil
}

// ladderSim times a Proc.Yield ping-pong between two procs and a
// Proc.Delay timer loop.
func ladderSim(c *runCtx, out map[string]metric) error {
	sw, err := timeRung(c, "sim.yield", func() error {
		env := sim.NewEnv(c.seed)
		for i := 0; i < 2; i++ {
			env.Spawn(fmt.Sprint("p", i), func(p *sim.Proc) {
				for j := 0; j < ladderSwitch; j++ {
					p.Yield()
				}
			})
		}
		return env.Run()
	})
	if err != nil {
		return err
	}
	tm, err := timeRung(c, "sim.delay", func() error {
		env := sim.NewEnv(c.seed)
		env.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < ladderSwitch; j++ {
				p.Delay(sim.Microsecond)
			}
		})
		return env.Run()
	})
	if err != nil {
		return err
	}
	out["sim.switch_ns"] = metric{float64(sw.d) / (2 * ladderSwitch), "ns"}
	out["sim.allocs_per_switch"] = metric{float64(sw.allocs) / (2 * ladderSwitch), "count"}
	out["sim.timer_ns"] = metric{float64(tm.d) / ladderSwitch, "ns"}
	return nil
}

// echoFns are the three echo rungs of one substrate: raw kernel calls
// (nil on Ideal, which has no kernel), binding + core, and a lynx
// System. Each runs n 0 B echo RPCs and returns the number of replies
// that did not match.
type echoFns struct {
	kernel, runtime, lynx func(seed uint64, n int) (bad int, err error)
}

var echoRungs = map[lynx.Substrate]echoFns{
	lynx.Ideal:     {nil, runtimeEcho(lynx.Ideal), lynxEcho(lynx.Ideal, nil)},
	lynx.Charlotte: {charlotteEcho, runtimeEcho(lynx.Charlotte), lynxEcho(lynx.Charlotte, nil)},
	lynx.SODA:      {sodaEcho, runtimeEcho(lynx.SODA), lynxEcho(lynx.SODA, nil)},
	lynx.Chrysalis: {chrysalisEcho, runtimeEcho(lynx.Chrysalis), lynxEcho(lynx.Chrysalis, nil)},
}

// ladderEcho times the kernel, run-time and lynx echo rungs on every
// substrate and reports the per-RPC protocol counts of the lynx rung.
func ladderEcho(c *runCtx, out map[string]metric) error {
	for _, sub := range substrates {
		fns := echoRungs[sub]
		var kernel rung
		timed := func(name string, fn func(uint64, int) (int, error)) (rung, error) {
			return timeRung(c, name, func() error {
				bad, err := fn(c.seed, ladderRPCs)
				c.tally.add(ladderRPCs, int64(bad))
				return err
			})
		}
		if fns.kernel != nil {
			var err error
			if kernel, err = timed("kernel.echo", fns.kernel); err != nil {
				return err
			}
		}
		rt, err := timed("runtime.echo", fns.runtime)
		if err != nil {
			return err
		}
		ly, err := timed("lynx.echo", fns.lynx)
		if err != nil {
			return err
		}
		per := func(r rung) float64 { return float64(r.d) / ladderRPCs }
		perAlloc := func(r rung) float64 { return float64(r.allocs) / ladderRPCs }
		if fns.kernel != nil {
			out["kernel.rpc_ns."+sub.String()] = metric{per(kernel), "ns"}
			out["kernel.allocs_per_rpc."+sub.String()] = metric{perAlloc(kernel), "count"}
		}
		out["runtime.rpc_ns."+sub.String()] = metric{per(rt) - per(kernel), "ns"}
		out["runtime.allocs_per_rpc."+sub.String()] = metric{perAlloc(rt) - perAlloc(kernel), "count"}
		out["lynx.rpc_ns."+sub.String()] = metric{per(ly), "ns"}
		c.tally.check(per(ly) >= per(kernel), "ladder %s: lynx rung %.0f ns below kernel rung %.0f ns",
			sub, per(ly), per(kernel))
	}
	return protocolCounts(c, out)
}

// countMetrics are the deterministic per-RPC protocol counts, read from
// a lynx System's obs registry after ladderRPCs echo RPCs.
var countMetrics = []struct {
	name string
	sub  lynx.Substrate
	obs  string
}{
	{"charlotte.kernel_messages_per_rpc", lynx.Charlotte, obs.MKernelMessages},
	{"soda.kernel_requests_per_rpc", lynx.SODA, obs.MKernelRequests},
	{"soda.kernel_retries_per_rpc", lynx.SODA, obs.MKernelRetries},
	{"chrysalis.event_posts_per_rpc", lynx.Chrysalis, obs.MEventPosts},
	{"chrysalis.queue_enqueues_per_rpc", lynx.Chrysalis, obs.MQueueEnqueues},
	{"netsim.kernel_bytes_per_rpc.charlotte", lynx.Charlotte, obs.MKernelBytes},
	{"netsim.kernel_bytes_per_rpc.soda", lynx.SODA, obs.MKernelBytes},
	{"netsim.kernel_bytes_per_rpc.chrysalis", lynx.Chrysalis, obs.MKernelBytes},
}

// pinnedCounts are the expected values of countMetrics. They are pure
// functions of the simulation, identical on every machine, so they are
// checked exactly: a host-only change must not move them.
var pinnedCounts = map[string]float64{
	"charlotte.kernel_messages_per_rpc":     2,
	"soda.kernel_requests_per_rpc":          3.0003333333333333,
	"soda.kernel_retries_per_rpc":           0,
	"chrysalis.event_posts_per_rpc":         4,
	"chrysalis.queue_enqueues_per_rpc":      4.000333333333334,
	"netsim.kernel_bytes_per_rpc.charlotte": 40,
	"netsim.kernel_bytes_per_rpc.soda":      38,
	"netsim.kernel_bytes_per_rpc.chrysalis": 92,
}

// countSeed seeds the protocol-count Systems. It is fixed, not the
// workload seed, so the pinned values hold for every run.
const countSeed = 1

// protocolCounts reads the per-RPC counts from one lynx echo System per
// substrate and checks them against pinnedCounts.
func protocolCounts(c *runCtx, out map[string]metric) error {
	regs := map[lynx.Substrate]*obs.Metrics{}
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		var m *obs.Metrics
		bad, err := lynxEcho(sub, &m)(countSeed, ladderRPCs)
		if err != nil {
			return err
		}
		c.tally.add(ladderRPCs, int64(bad))
		regs[sub] = m
	}
	for _, cm := range countMetrics {
		v := float64(regs[cm.sub].Value(cm.obs)) / ladderRPCs
		out[cm.name] = metric{v, "count"}
		c.tally.check(v == pinnedCounts[cm.name], "protocol count %s = %v, pinned %v", cm.name, v, pinnedCounts[cm.name])
	}
	return nil
}

// charlotteEcho is the §3.3 raw-kernel program: the kernel-call
// sequence of one simple remote operation, with no run-time package.
func charlotteEcho(seed uint64, n int) (int, error) {
	env := sim.NewEnv(seed)
	k := charlotte.NewKernel(env, netsim.NewTokenRing(20), calib.DefaultCharlotte())
	a, b := k.NewProcess(0), k.NewProcess(1)
	ea, eb := k.BootLink(a, b)
	bad := 0
	env.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			b.Receive(p, eb, 64)
			req := b.Wait(p)
			b.Send(p, eb, req.Data, charlotte.EndRef{})
			b.Wait(p)
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Receive(p, ea, 64)
			a.Send(p, ea, nil, charlotte.EndRef{})
			// The send completion and the reply arrive in either order.
			for j := 0; j < 2; j++ {
				if d := a.Wait(p); d.Status != charlotte.OK || d.Length != 0 {
					bad++
				}
			}
		}
	})
	return bad, env.Run()
}

// sodaEcho is a raw SODA exchange: the client posts a Request, the
// server's handler hands the request interrupt to the server proc,
// which Accepts it; the completion interrupt wakes the client.
func sodaEcho(seed uint64, n int) (int, error) {
	env := sim.NewEnv(seed)
	k := soda.NewKernel(env, netsim.NewCSMABus(env.Rand().Fork()), calib.DefaultSODA())
	a, b := k.NewProcess(0), k.NewProcess(1)
	reqs, done, ready := sim.NewMailbox(env, "requests"), sim.NewMailbox(env, "completions"), sim.NewMailbox(env, "ready")
	b.SetHandler(func(ir soda.Interrupt) {
		if ir.IKind == soda.IntRequest {
			reqs.Put(ir)
		}
	})
	a.SetHandler(func(ir soda.Interrupt) {
		if ir.IKind == soda.IntCompletion {
			done.Put(ir)
		}
	})
	bad := 0
	env.Spawn("server", func(p *sim.Proc) {
		name := b.NewName(p)
		b.Advertise(p, name)
		ready.Put(name)
		for i := 0; i < n; i++ {
			ir := reqs.Get(p).(soda.Interrupt)
			if _, st := b.Accept(p, ir.Req, soda.OOB{}, nil, ir.SendBytes); st != soda.OK {
				bad++
			}
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		name := ready.Get(p).(soda.Name)
		for i := 0; i < n; i++ {
			if _, st := a.Request(p, b.ID(), name, soda.OOB{}, nil, 0); st != soda.OK {
				bad++
				continue
			}
			if ir := done.Get(p).(soda.Interrupt); len(ir.Data) != 0 {
				bad++
			}
		}
	})
	return bad, env.Run()
}

// chrysalisEcho is a raw Chrysalis exchange: a shared memory object
// carries the message, each side owns a dual queue and an event block,
// and an enqueue on a queue holding a waiter's event posts that event.
func chrysalisEcho(seed uint64, n int) (int, error) {
	env := sim.NewEnv(seed)
	k := chrysalis.NewKernel(env, netsim.NewBackplane(), calib.DefaultChrysalis())
	a, b := k.NewProcess(0), k.NewProcess(1)
	type names struct {
		q   chrysalis.QueueName
		obj chrysalis.ObjName
	}
	toServer, toClient := sim.NewMailbox(env, "server-names"), sim.NewMailbox(env, "client-queue")
	recv := func(p *sim.Proc, pr *chrysalis.Process, q chrysalis.QueueName, ev chrysalis.EventName) {
		if _, ok, _ := pr.Dequeue(p, q, ev); !ok {
			pr.EventWait(p, ev)
		}
	}
	bad := 0
	env.Spawn("server", func(p *sim.Proc) {
		q, ev := b.NewDualQueue(p, 16), b.NewEvent(p)
		obj := b.AllocObject(p, 64)
		toServer.Put(names{q, obj})
		cq := toClient.Get(p).(chrysalis.QueueName)
		for i := 0; i < n; i++ {
			recv(p, b, q, ev)
			got, st := b.ReadBytes(p, obj, 0, 0)
			if st != chrysalis.OK || b.WriteBytes(p, obj, 0, got) != chrysalis.OK {
				bad++
			}
			b.Enqueue(p, cq, 1)
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		s := toServer.Get(p).(names)
		cq, ev := a.NewDualQueue(p, 16), a.NewEvent(p)
		if a.Map(p, s.obj) != chrysalis.OK {
			bad++
		}
		toClient.Put(cq)
		for i := 0; i < n; i++ {
			a.WriteBytes(p, s.obj, 0, nil)
			a.Enqueue(p, s.q, 1)
			recv(p, a, cq, ev)
			if got, st := a.ReadBytes(p, s.obj, 0, 0); st != chrysalis.OK || len(got) != 0 {
				bad++
			}
		}
	})
	return bad, env.Run()
}

// runtimeEcho builds the LYNX run-time package directly on a substrate
// binding — bind.New plus core.NewProcess, no lynx.System — and runs n
// echo RPCs between two processes.
func runtimeEcho(sub lynx.Substrate) func(seed uint64, n int) (int, error) {
	return func(seed uint64, n int) (int, error) {
		env := sim.NewEnv(seed)
		var ta, tb core.Transport
		var ea, eb core.TransEnd
		var costs calib.LynxRuntimeCosts
		const bufCap = 4096
		switch sub {
		case lynx.Charlotte:
			k := charlotte.NewKernel(env, netsim.NewTokenRing(20), calib.DefaultCharlotte())
			ka, kb := k.NewProcess(0), k.NewProcess(1)
			tra, trb := chbind.New(env, ka, bufCap), chbind.New(env, kb, bufCap)
			ra, rb := k.BootLink(ka, kb)
			ta, tb, ea, eb = tra, trb, tra.AdoptBootEnd(ra), trb.AdoptBootEnd(rb)
			costs = calib.DefaultCharlotteRuntime()
		case lynx.SODA:
			k := soda.NewKernel(env, netsim.NewCSMABus(env.Rand().Fork()), calib.DefaultSODA())
			cfg := sodabind.DefaultConfig()
			cfg.BufCap = bufCap
			tra, trb := sodabind.New(env, k, k.NewProcess(0), cfg), sodabind.New(env, k, k.NewProcess(1), cfg)
			ea, eb = sodabind.BootLink(tra, trb)
			ta, tb = tra, trb
			costs = calib.DefaultSODARuntime()
		case lynx.Chrysalis:
			k := chrysalis.NewKernel(env, netsim.NewBackplane(), calib.DefaultChrysalis())
			tra, trb := chrbind.New(env, k, k.NewProcess(0), bufCap), chrbind.New(env, k, k.NewProcess(1), bufCap)
			ea, eb = chrbind.BootLink(tra, trb)
			ta, tb = tra, trb
			costs = calib.DefaultChrysalisRuntime()
		case lynx.Ideal:
			fab := ideal.NewFabric(env, 100*sim.Microsecond, 100*sim.Nanosecond)
			tra, trb := fab.NewTransport("client"), fab.NewTransport("server")
			la, lb, err := tra.MakeLink()
			if err != nil {
				return 0, err
			}
			ideal.MoveOwnership(fab, tra, trb, lb.(ideal.EndID))
			ta, tb, ea, eb = tra, trb, la, lb
			costs = calib.LynxRuntimeCosts{PerOperation: 10 * sim.Microsecond}
		}
		bad := 0
		core.NewProcess(env, "client", ta, costs, func(t *core.Thread) {
			e := t.AdoptBootEnd(ea)
			for i := 0; i < n; i++ {
				if reply, err := t.Connect(e, "echo", core.Msg{}); err != nil || len(reply.Data) != 0 {
					bad++
				}
			}
			t.Destroy(e)
		})
		core.NewProcess(env, "server", tb, costs, func(t *core.Thread) {
			t.Serve(t.AdoptBootEnd(eb), func(st *core.Thread, req *core.Request) {
				st.Reply(req, core.Msg{Data: req.Data()})
			})
		})
		return bad, env.Run()
	}
}

// lynxEcho runs n echo RPCs between two processes of one lynx System;
// when reg is non-nil it receives the System's obs registry.
func lynxEcho(sub lynx.Substrate, reg **obs.Metrics) func(seed uint64, n int) (int, error) {
	return func(seed uint64, n int) (int, error) {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: seed})
		bad := 0
		cl := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
			for i := 0; i < n; i++ {
				if reply, err := t.Connect(boot[0], "echo", lynx.Msg{}); err != nil || len(reply.Data) != 0 {
					bad++
				}
			}
			t.Destroy(boot[0])
		})
		sv := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
			t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(cl, sv)
		err := sys.Run()
		if reg != nil {
			*reg = sys.Metrics()
		}
		return bad, err
	}
}

// ladderLifecycle splits a single-RPC System's host time into set-up
// (NewSystem through Join), boot (Run until the first client body) and
// teardown (the last reply until Run returns).
func ladderLifecycle(c *runCtx, out map[string]metric) error {
	var newUS, bootUS, downUS []float64
	data := bytes.Repeat([]byte{7}, 64)
	for _, sub := range substrates {
		for i := 0; i < lifecycleRuns; i++ {
			req := int64(i)
			sp := c.spans.begin("lynx.lifecycle", 0, req)
			t0 := time.Now()
			sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: sim.StreamSeed(c.seed, uint64(i))})
			var bodyAt, replyAt time.Time
			ok := false
			cl := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
				bodyAt = time.Now()
				reply, err := t.Connect(boot[0], "echo", lynx.Msg{Data: data})
				replyAt = time.Now()
				ok = err == nil && bytes.Equal(reply.Data, data)
				t.Destroy(boot[0])
			})
			sv := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
				t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{Data: req.Data()})
				})
			})
			sys.Join(cl, sv)
			built := time.Now()
			err := sys.Run()
			end := time.Now()
			c.spans.end(sp)
			if !c.tally.check(err == nil && ok, "lifecycle %s run %d: err %v", sub, i, err) {
				continue
			}
			newUS = append(newUS, float64(built.Sub(t0))/1e3)
			bootUS = append(bootUS, float64(bodyAt.Sub(built))/1e3)
			downUS = append(downUS, float64(end.Sub(replyAt))/1e3)
		}
	}
	out["lynx.new_us"] = metric{median(newUS), "us"}
	out["lynx.boot_us"] = metric{median(bootUS), "us"}
	out["lynx.teardown_us"] = metric{median(downUS), "us"}
	return nil
}

// ladderShard runs the rpc-steady star System at SimWorkers 1 and 2
// and reports the speed-up; the two must agree exactly on virtual time
// and counters.
func ladderShard(c *runCtx, out map[string]metric) error {
	lat := make([]*hist, 2*starCount)
	for i := range lat {
		lat[i] = newHist()
	}
	var serial, par time.Duration
	for _, sub := range substrates {
		p := planStar(c.seed, sub, shardRPCs)
		var one, two starOutcome
		for rep := 0; rep < 2; rep++ {
			one = runStar(c, p, 1, lat, 0)
			two = runStar(c, p, rpcSteadyWorkers, lat, 0)
			serial += one.run
			par += two.run
		}
		c.tally.add(one.rpcs+two.rpcs, one.bad+two.bad)
		c.tally.check(one.virtual == two.virtual && maps.Equal(one.counters, two.counters),
			"shard rung %s: SimWorkers 1 and 2 disagree", sub)
		out["lynx.star_rpc_per_s."+sub.String()] = metric{float64(two.rpcs) / two.run.Seconds(), "1/s"}
	}
	out["sim.shard_speedup"] = metric{float64(serial) / float64(par), "ratio"}
	return nil
}

// ladderGrid runs the sweep-short grid at a reduced replica count and
// splits each cell's wall time into replica bodies and grid overhead.
func ladderGrid(c *runCtx, out map[string]metric) error {
	nCells := len(substrates) * len(sweepKinds) * 2
	bodyNS := make([]atomic.Int64, nCells)
	cellNS := make([]atomic.Int64, nCells)
	var roundSpan int64
	spec := sweepSpec(c.seed, sweepParallel, func(kind string, cell grid.Cell, r sweep.Run) sweep.Outcome {
		start := time.Now()
		o := load.GridBodies()[kind].Body(cell, r)
		end := time.Now()
		bodyNS[cell.Index].Add(int64(end.Sub(start)))
		c.spans.add("lynx.body", roundSpan, int64(cell.Index), start, end)
		return o
	})
	spec.Replicas = gridReplicas
	spec.Hook = func(cell grid.Cell, run func() *sweep.Aggregate) *sweep.Aggregate {
		t0 := time.Now()
		agg := run()
		cellNS[cell.Index].Add(int64(time.Since(t0)))
		return agg
	}
	roundSpan = c.spans.begin("grid.run", 0, 0)
	t0 := time.Now()
	tbl := grid.Run(spec)
	wall := time.Since(t0)
	c.spans.end(roundSpan)
	c.tally.add(int64(nCells*gridReplicas), int64(tbl.Errs()))
	rs := c.spans.begin("grid.render", 0, 0)
	r0 := time.Now()
	tbl.Merged()
	tbl.RenderJSONL()
	render := time.Since(r0)
	c.spans.end(rs)
	var body, overhead int64
	for i := range bodyNS {
		body += bodyNS[i].Load()
		overhead += cellNS[i].Load() - bodyNS[i].Load()
	}
	out["grid.cell_overhead_us"] = metric{float64(overhead) / float64(nCells) / 1e3, "us"}
	out["grid.busy_ratio"] = metric{float64(body) / (float64(wall) * sweepParallel), "ratio"}
	out["grid.render_us"] = metric{float64(render) / 1e3, "us"}
	return nil
}

// discardSink receives and drops flight-recorder exports.
type discardSink struct{}

func (discardSink) Event(obs.Event) {}

// ladderLoad runs cold lynxd-shaped cells straight through load.Run,
// then one cell with and without a sampled flight trace.
func ladderLoad(c *runCtx, out map[string]metric) error {
	plan, err := fault.ParseScenario("drop10")
	if err != nil {
		return err
	}
	cell := func(sub lynx.Substrate, rate float64, tr *flight.Config) (time.Duration, int, error) {
		sp := c.spans.begin("load.run", 0, int64(sub))
		t0 := time.Now()
		res, err := load.Run(load.Options{Substrate: sub, Rate: rate, Window: 200 * lynx.Millisecond,
			Seed: c.seed, Faults: plan, Trace: tr})
		d := time.Since(t0)
		c.spans.end(sp)
		if err != nil {
			return 0, 0, err
		}
		c.tally.check(res.Completed == res.Arrivals, "load cell %s rate %g: %d of %d units completed",
			sub, rate, res.Completed, res.Arrivals)
		return d, res.Arrivals, nil
	}
	var total time.Duration
	var units, cells int
	for _, name := range coldSubs {
		sub, err := lynx.ParseSubstrate(name)
		if err != nil {
			return err
		}
		for _, rate := range coldRates[name] {
			d, n, err := cell(sub, rate, nil)
			if err != nil {
				return err
			}
			total += d
			units += n
			cells++
		}
	}
	out["load.cell_ms"] = metric{float64(total) / float64(cells) / 1e6, "ms"}
	out["load.units_per_s"] = metric{float64(units) / total.Seconds(), "1/s"}

	sampled := &flight.Config{Mode: flight.Sampled, Sink: discardSink{}}
	var plain, traced []float64
	for i := 0; i < 5; i++ {
		for _, tr := range []*flight.Config{nil, sampled} {
			d, _, err := cell(lynx.Charlotte, coldRates["charlotte"][1], tr)
			if err != nil {
				return err
			}
			if tr == nil {
				plain = append(plain, float64(d))
			} else {
				traced = append(traced, float64(d))
			}
		}
	}
	out["flight.overhead_pct"] = metric{100 * (median(traced) - median(plain)) / median(plain), "%"}
	return nil
}

// serviceJobs is the size of the service rung's job stream.
const (
	serviceJobs = 60
	serviceSpan = 1500 * time.Millisecond
)

// ladderService runs a short lynxd-mixed stream and splits each job's
// time into submit, queue, run and stream phases, cold and hit apart.
func ladderService(c *runCtx, out map[string]metric) error {
	d, _, err := startLynxd()
	if err != nil {
		return err
	}
	defer d.close()
	h0 := liveHeapMB()
	p := runJobs(c, d, planJobs(sim.StreamSeed(c.seed, 7), serviceJobs, serviceSpan))
	h1 := liveHeapMB()
	checkJobs(c, p)
	phases := map[string]map[string][]float64{"cold": {}, "hit": {}}
	finished := 0
	var retries, units float64
	retryJobs := 0
	for i := range p.recs {
		rec := &p.recs[i]
		if !rec.ok() || rec.progress.IsZero() {
			continue
		}
		finished++
		class := "hit"
		if rec.misses > 0 {
			class = "cold"
		}
		ph := phases[class]
		ph["submit_us"] = append(ph["submit_us"], float64(rec.posted.Sub(rec.sent))/1e3)
		ph["queue_ms"] = append(ph["queue_ms"], float64(rec.progress.Sub(rec.posted))/1e6)
		ph["run_ms"] = append(ph["run_ms"], float64(rec.result.Sub(rec.progress))/1e6)
		ph["stream_us"] = append(ph["stream_us"], float64(rec.end.Sub(rec.result))/1e3)
		if class == "cold" && retryJobs < 10 {
			r, u, err := jobRetries(d, rec)
			if err != nil {
				return err
			}
			retries += r
			units += u
			retryJobs++
		}
	}
	for class, ph := range phases {
		for _, name := range []string{"submit_us", "queue_ms", "run_ms", "stream_us"} {
			unit := name[strings.LastIndex(name, "_")+1:]
			out["service."+name+"."+class] = metric{median(ph[name]), unit}
		}
	}
	var m map[string]int64
	if err := d.getJSON("/metrics", &m); err != nil {
		return err
	}
	hits, misses := float64(m["lynxd_cache_hits"]), float64(m["lynxd_cache_misses"])
	out["service.cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	out["service.rejected"] = metric{float64(m["lynxd_jobs_rejected_total"]), "count"}
	out["service.heap_kb_per_job"] = metric{(h1 - h0) * 1e3 / float64(max(finished, 1)), "KB"}
	out["client.gen_late_p99_ms"] = metric{quantile(p.late, 0.99), "ms"}
	out["fault.retries_per_unit"] = metric{retries / units, "count"}
	return nil
}

// jobRetries reads a finished job's metric rollup and returns its
// retried protocol operations and its work-unit arrivals. A retry is a
// kernel request no accept completed (SODA withdraws and re-posts
// those) or a binding's counted retry or resend.
func jobRetries(d *lynxd, rec *jobRecord) (retries, units float64, err error) {
	var snap map[string]int64
	if err := d.getJSON("/jobs/"+rec.id+"/metrics", &snap); err != nil {
		return 0, 0, err
	}
	for name, v := range snap {
		switch base := name[strings.LastIndex(name, "/")+1:]; {
		case base == obs.MKernelRequests:
			retries += float64(v)
		case base == obs.MKernelAccepts:
			retries -= float64(v)
		case strings.Contains(base, "retries") || strings.Contains(base, "resent"):
			retries += float64(v)
		}
	}
	for _, row := range rec.rows {
		var r struct {
			Values map[string]sweep.Stat `json:"values"`
		}
		if err := json.Unmarshal([]byte(row), &r); err != nil {
			return 0, 0, err
		}
		units += r.Values["arrivals"].Mean
	}
	return retries, units, nil
}
