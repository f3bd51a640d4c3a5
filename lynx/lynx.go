// Package lynx is the public face of the LYNX reproduction: a
// distributed programming system in which processes interact through
// RPC-style request/reply traffic on movable duplex virtual circuits
// called links, exactly as in M. L. Scott's 1986 ICPP paper "The
// Interface Between Distributed Operating System and High-Level
// Programming Language".
//
// A System assembles a complete simulated machine: a virtual-time
// network, one of four operating-system substrates, and any number of
// LYNX processes. The substrates are the paper's three kernels plus an
// idealized baseline:
//
//	Charlotte — high-level kernel: links in the kernel, one outstanding
//	            activity per direction, one enclosure per message
//	            (VAX 11/750s on a 10 Mbit/s token ring)
//	SODA      — low-level kernel: advertised names, put/get/signal/
//	            exchange + accept, software interrupts
//	            (many nodes on a 1 Mbit/s CSMA bus)
//	Chrysalis — shared-memory primitives: memory objects, event blocks,
//	            dual queues (BBN Butterfly)
//	Ideal     — a perfect in-memory kernel (reference/baseline)
//
// Typical use:
//
//	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Chrysalis})
//	client := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
//	    reply, err := t.Connect(boot[0], "hello", lynx.Msg{Data: []byte("hi")})
//	    ...
//	})
//	server := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
//	    t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
//	        st.Reply(req, lynx.Msg{Data: req.Data()})
//	    })
//	})
//	sys.Join(client, server)
//	err := sys.Run()
//
// The language-level API (Connect, Receive, Reply, Serve, NewLink,
// Destroy, Fork, link movement by enclosing ends in Msg.Links) lives on
// Thread; see the aliased types' documentation in internal/core.
//
// # Concurrency
//
// A System is single-threaded: one System (and everything reachable
// from it — Threads, Ends, its metrics) must be driven by one
// goroutine-tree at a time, and Run is not safe to call concurrently on
// the same System. Distinct Systems, however, share no simulation
// state — no global clocks or random sources (every System carries its
// own seeded generator and virtual clock); the only thing they share is
// the mutex-guarded pool of idle coroutine carriers their processes and
// threads run on — so any number of Systems may run concurrently on
// separate goroutines. This
// "one System per goroutine-tree, many Systems in parallel" contract is
// what the lynx/sweep harness exploits to fan replicated simulations
// across cores while keeping each run bit-for-bit deterministic in its
// seed.
//
// # Parallel execution inside one System
//
// When the boot-join graph splits into two or more connected
// components, the System partitions the run: each component becomes one
// shard of a conservative parallel discrete-event engine
// (sim.EnterParallel), with its own event loop, its own segment of the
// network medium, and its own slice of the kernel's state. What
// licenses the split on the kernel substrates is finite lookahead: the
// medium's MinLatency (token-ring serialization, CSMA sense delay,
// backplane setup cost) lower-bounds every cross-node interaction, and
// since boot components never share a link, groups can only couple
// through medium state — which the per-group segments privatize
// (occupancy, counters, forked rng streams). The Ideal fabric, having
// no shared medium, is trivially partitionable.
//
// Partitioning happens whenever the topology is eligible, at every
// SimWorkers value; Config.SimWorkers only caps how many shards execute
// concurrently (<= 1 runs the shards sequentially on one OS thread).
// Decoupling the partition decision from the worker count is what makes
// the determinism contract absolute: per-group id allocators, rng
// streams, and fault schedules are fixed by the topology alone, so a
// run at any SimWorkers value produces byte-identical traces, metrics,
// and results to SimWorkers=1 with the same seed — observers replay in
// the exact serial interleave. A single-component (or single-process)
// topology has nothing to split and runs the ordinary serial loop.
//
// Fault plans compile onto a partitioned run as per-shard schedules:
// each group's medium segment gets its own injector child (frame fates
// from a per-group stream, storms replicated per segment) and churn
// timers fire on each shard against that shard's processes, so faulted
// runs parallelize like unfaulted ones. Dynamic process creation
// (Launch/LaunchGroup) places the new group on the launcher's home
// shard — kernel processes, transports, and boot links all allocate
// from that group's strided id space — so mid-run launches need no
// cross-shard coordination and keep the byte-identity guarantee.
package lynx

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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
	"repro/lynx/fault"
)

// Re-exported language-level types: the Thread API is the LYNX
// programming model.
type (
	// Thread is a LYNX thread of control (coroutine); all language
	// operations hang off it.
	Thread = core.Thread
	// End is one end of a link owned by the current process.
	End = core.End
	// Msg is a message: parameter bytes plus link ends to move.
	Msg = core.Msg
	// Request is an incoming remote operation awaiting a Reply.
	Request = core.Request
	// Process is a LYNX process.
	Process = core.Process
	// Duration and Time are virtual-time measures.
	Duration = sim.Duration
	// Time is a virtual-time instant.
	Time = sim.Time
)

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// The LYNX exception set (see internal/core for semantics).
var (
	ErrLinkDestroyed = core.ErrLinkDestroyed
	ErrAborted       = core.ErrAborted
	ErrUnwantedReply = core.ErrUnwantedReply
	ErrBadReply      = core.ErrBadReply
)

// Substrate selects the operating-system kernel underneath the run-time
// package.
type Substrate int

// Available substrates.
const (
	Charlotte Substrate = iota
	SODA
	Chrysalis
	Ideal
)

func (s Substrate) String() string {
	switch s {
	case Charlotte:
		return "charlotte"
	case SODA:
		return "soda"
	case Chrysalis:
		return "chrysalis"
	case Ideal:
		return "ideal"
	default:
		return fmt.Sprintf("Substrate(%d)", int(s))
	}
}

// ParseSubstrate is the inverse of Substrate.String: it resolves the
// lowercase substrate name the CLIs and the lynxd job API use.
func ParseSubstrate(name string) (Substrate, error) {
	switch name {
	case "charlotte":
		return Charlotte, nil
	case "soda":
		return SODA, nil
	case "chrysalis":
		return Chrysalis, nil
	case "ideal":
		return Ideal, nil
	default:
		return 0, fmt.Errorf("unknown substrate %q (want charlotte, soda, chrysalis or ideal)", name)
	}
}

// ParseSubstrates resolves a comma-separated substrate list (spaces
// around names are ignored); the list must be non-empty.
func ParseSubstrates(csv string) ([]Substrate, error) {
	var out []Substrate
	for _, name := range strings.Split(csv, ",") {
		s, err := ParseSubstrate(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty substrate list")
	}
	return out, nil
}

// Config parameterizes a System. The zero value is a working Charlotte
// machine with default sizing. Substrate-specific knobs live in the
// per-substrate option blocks; options for substrates other than the
// selected one are ignored.
type Config struct {
	// Substrate picks the kernel. Default Charlotte.
	Substrate Substrate
	// Seed drives all randomness; same seed ⇒ identical run.
	Seed uint64
	// Nodes is the machine size (processes are placed round-robin).
	// Default 20 (the Crystal multicomputer's size).
	Nodes int
	// BufCap is the maximum message size, inherited by every substrate
	// whose own BufCap is unset. Default 4096.
	BufCap int
	// SimWorkers caps how many event-loop shards execute concurrently
	// inside this System. The run is partitioned into shards whenever
	// the boot-join graph has >= 2 connected components and the medium
	// has finite lookahead (netsim.MinLatency > 0, true of every
	// substrate under default calibration) — independent of this value;
	// SimWorkers <= 1 (the default) then runs the shards sequentially
	// on one OS thread while > 1 runs up to that many concurrently.
	// SimWorkers never changes results: same seed ⇒ byte-identical
	// traces and metrics at every worker count, so it is excluded from
	// sweep cache keys.
	SimWorkers int

	// Trace configures the flight recorder (internal/obs/flight): a
	// bounded ring of the last-N protocol events with full, sampled, or
	// counters-only export. The zero value (mode Off) creates no
	// recorder and leaves the untraced fast path untouched. Like
	// SimWorkers, the mode never changes simulation results — it only
	// shapes what is recorded — so it is excluded from sweep cache keys.
	Trace TraceOptions

	// Faults is an optional declarative fault plan (crash/restart
	// schedules, frame drop/duplication/reorder, partitions, slow
	// nodes, link storms — see lynx/fault). The plan compiles onto the
	// network's fault hook and virtual-time timers when Run starts —
	// per shard, on a partitioned run — and a faulted run is still a
	// pure function of (Config, Seed). Nil or empty injects nothing,
	// leaving the run byte-identical to an unfaulted one. An invalid
	// plan panics at NewSystem (it is a configuration error; validate
	// plans with fault.Parse).
	Faults *fault.Plan

	// Charlotte, SODA, and Chrysalis hold the substrate-specific knobs.
	Charlotte CharlotteOptions
	SODA      SODAOptions
	Chrysalis ChrysalisOptions

	// Tuned applies the Chrysalis §5.3 "30-40%" optimizations (E9).
	//
	// Deprecated: set Chrysalis.Tuned instead.
	Tuned bool
	// SODAPairLimit caps outstanding requests between one process pair.
	//
	// Deprecated: set SODA.PairLimit instead.
	SODAPairLimit int
}

// System is one simulated machine running LYNX processes.
type System struct {
	cfg     Config
	sodaCfg sodabind.Config // lowered from cfg.SODA at NewSystem
	env     *sim.Env

	charK *charlotte.Kernel
	sodaK *soda.Kernel
	chrK  *chrysalis.Kernel
	fab   *ideal.Fabric
	net   netsim.Network

	inj *fault.Injector
	fr  *flight.Recorder

	specs    []*ProcRef
	byProc   map[*core.Process]*ProcRef
	nextNode int
	ran      bool

	// mu guards specs/byProc and the node-placement cursors once the run
	// has started: under a partitioned run, Launch appends from
	// concurrently executing shards.
	mu sync.Mutex

	// joins records boot-time Join edges as spec-index pairs; materialize
	// runs union-find over them to find independent components.
	joins [][2]int
	// partitioned is set when materialize split the run into shards
	// (at any SimWorkers value); parallel additionally requires
	// SimWorkers > 1, i.e. shards actually executing concurrently.
	partitioned bool
	parallel    bool
	// shards are the per-group envs of a partitioned run; segs the
	// per-group medium segments (nil on Ideal, which has no medium).
	shards []*sim.Env
	segs   []netsim.Network
	// groupNode are per-group node-placement cursors for mid-run
	// launches, each starting from the boot cursor frozen at partition
	// time so placement is a group-local (worker-count-invariant)
	// sequence.
	groupNode []int
	// injKids are the per-group fault injectors of a partitioned faulted
	// run; churnHits counts, per churn event, how many processes it hit
	// across all groups (shared atomics — misses are derived at
	// FaultStats time).
	injKids   []*fault.Injector
	churnHits []int64
}

// ProcRef names a spawned process before and after Run.
type ProcRef struct {
	sys   *System
	name  string
	idx   int // position in sys.specs (component lookup)
	group int // partition group (home shard), -1 when unpartitioned
	main  func(*Thread, []*End)
	tr    core.Transport
	boots []core.TransEnd
	proc  *core.Process

	chTr   *chbind.Transport
	sodaTr *sodabind.Transport
	chrTr  *chrbind.Transport
	idTr   *ideal.Transport
}

// NewSystem creates a simulated machine.
func NewSystem(cfg Config) *System {
	cfg = cfg.normalized()
	env := sim.NewEnv(cfg.Seed)
	s := &System{cfg: cfg, sodaCfg: cfg.SODA.bindConfig(), env: env,
		byProc: make(map[*core.Process]*ProcRef)}
	switch cfg.Substrate {
	case Charlotte:
		ring := netsim.NewTokenRing(cfg.Nodes)
		s.net = ring
		s.charK = charlotte.NewKernel(env, ring, calib.DefaultCharlotte())
	case SODA:
		bus := netsim.NewCSMABus(env.Rand().Fork())
		s.net = bus
		s.sodaK = soda.NewKernel(env, bus, calib.DefaultSODA())
		s.sodaK.PairLimit = cfg.SODA.PairLimit
	case Chrysalis:
		bp := netsim.NewBackplane()
		s.net = bp
		s.chrK = chrysalis.NewKernel(env, bp, calib.DefaultChrysalis())
		if cfg.Chrysalis.Tuned {
			s.chrK.TuneFactor = calib.ChrysalisTunedFactor
		}
	case Ideal:
		s.fab = ideal.NewFabric(env, 100*sim.Microsecond, 100*sim.Nanosecond)
	default:
		panic(fmt.Sprintf("lynx: unknown substrate %v", cfg.Substrate))
	}
	if cfg.Trace.Mode != flight.Off {
		// The flight recorder attaches as an ordinary obs sink, which
		// makes the recorder Active(): instrumented code builds events
		// and (under a parallel partition) replays them in serial
		// order — the property the sampled mode's determinism rests on.
		s.fr = flight.New(flight.Config{
			Mode:    cfg.Trace.Mode,
			SampleK: cfg.Trace.SampleK,
			Ring:    cfg.Trace.Ring,
			Seed:    cfg.Seed,
		})
		s.Obs().Attach(s.fr)
	}
	if !cfg.Faults.Empty() {
		// The plan is validated (and the injector built) here, but it
		// compiles onto hooks and timers at materialize — after the
		// partition decision — so a partitioned run can install
		// per-group children instead of one shared schedule.
		s.inj = fault.NewInjector(env, cfg.Faults, cfg.Seed, cfg.Nodes)
	}
	return s
}

// installFaults compiles the fault plan onto the (possibly partitioned)
// run: fault hooks on the medium, storm timer chains, churn timers.
// Called from materialize, after planParallel has decided the shape of
// the run.
func (s *System) installFaults() {
	if s.inj == nil {
		return
	}
	if !s.partitioned {
		if s.net != nil {
			s.net.SetFaultHook(s.inj)
			s.inj.StartStorms(s.net)
		}
		s.scheduleChurn()
		return
	}
	s.injKids = s.inj.Split(s.shards)
	for g, seg := range s.segs {
		// Each group's segment gets its own injector child: frame fates
		// draw from a per-group stream, and each segment runs a full
		// replica of every storm's arrival schedule (a storm models
		// medium load, which each segment now carries independently).
		seg.SetFaultHook(s.injKids[g])
		s.injKids[g].StartStorms(seg)
	}
	s.scheduleChurnPartitioned()
}

// scheduleChurn registers the plan's process-level events as
// virtual-time timers. Names are resolved at fire time over the
// then-current process population (which grows under Launch), in spawn
// order, so the event schedule composes with dynamic workloads; an
// event that resolves to nothing is counted as a miss.
func (s *System) scheduleChurn() {
	for _, ev := range s.cfg.Faults.Events {
		switch e := ev.(type) {
		case fault.Crash:
			proc := e.Proc
			s.env.At(sim.Time(e.At), func() {
				if s.crashMatching(proc, -1, s.inj) == 0 {
					s.inj.Note("miss")
				}
			})
		case fault.Restart:
			proc := e.Proc
			s.env.At(sim.Time(e.At), func() {
				if s.restartNamed(proc, -1) {
					s.inj.Note("restart")
				} else {
					s.inj.Note("miss")
				}
			})
		}
	}
}

// scheduleChurnPartitioned is scheduleChurn for a partitioned run: each
// churn event is scheduled on EVERY shard env and acts only on that
// shard's processes, through that shard's injector child — so a crash
// pattern spanning groups kills each group's matches at that group's
// virtual time with no cross-shard access. Per-event hit counters are
// shared atomics; an event no shard matched surfaces as a miss in
// FaultStats.
func (s *System) scheduleChurnPartitioned() {
	nChurn := 0
	for _, ev := range s.cfg.Faults.Events {
		switch ev.(type) {
		case fault.Crash, fault.Restart:
			nChurn++
		}
	}
	s.churnHits = make([]int64, nChurn)
	j := 0
	for _, ev := range s.cfg.Faults.Events {
		switch e := ev.(type) {
		case fault.Crash:
			proc := e.Proc
			hit := &s.churnHits[j]
			j++
			for g := range s.shards {
				g := g
				s.shards[g].At(sim.Time(e.At), func() {
					if n := s.crashMatching(proc, g, s.injKids[g]); n > 0 {
						atomic.AddInt64(hit, int64(n))
					}
				})
			}
		case fault.Restart:
			proc := e.Proc
			hit := &s.churnHits[j]
			j++
			for g := range s.shards {
				g := g
				s.shards[g].At(sim.Time(e.At), func() {
					if s.restartNamed(proc, g) {
						s.injKids[g].Note("restart")
						atomic.AddInt64(hit, 1)
					}
				})
			}
		}
	}
}

// snapshotSpecs copies the spec list under the lock; shards launching
// mid-run append concurrently.
func (s *System) snapshotSpecs() []*ProcRef {
	s.mu.Lock()
	out := append([]*ProcRef(nil), s.specs...)
	s.mu.Unlock()
	return out
}

// crashMatching kills every live process whose name matches pattern
// (exact, or a trailing-* prefix like "u1.*") and returns how many it
// killed. With g >= 0 only processes homed on group g are touched (the
// group filter reads only the immutable group field of foreign specs,
// never their procs).
func (s *System) crashMatching(pattern string, g int, inj *fault.Injector) int {
	n := 0
	for _, pr := range s.snapshotSpecs() {
		if g >= 0 && pr.group != g {
			continue
		}
		if pr.proc == nil || pr.proc.Dead() || !nameMatches(pattern, pr.name) {
			continue
		}
		pr.proc.Crash()
		inj.Note("crash")
		n++
	}
	return n
}

func nameMatches(pattern, name string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return pattern == name
}

// restartNamed starts a fresh incarnation of the named process: a new
// process with the same name and main function, placed round-robin
// like any launch, with an empty boot slice — a restarted process
// re-acquires capabilities through the substrate (Discover, Launch);
// it inherits nothing from the dead incarnation. Returns false when no
// spec carries the name. With g >= 0 (a partitioned run's per-shard
// churn timer) only a spec homed on group g qualifies, and the new
// incarnation is born on that same shard.
func (s *System) restartNamed(name string, g int) bool {
	var src *ProcRef
	for _, pr := range s.snapshotSpecs() {
		if pr.name == name && (g < 0 || pr.group == g) {
			src = pr
			break
		}
	}
	if src == nil {
		return false
	}
	child := s.newProcRef(src.name, src.main, g)
	env := s.env
	if g >= 0 {
		env = s.shards[g]
	}
	costs := s.runtimeCosts()
	child.proc = core.NewProcess(env, child.name, child.tr, costs, func(t *Thread) {
		child.main(t, nil)
	})
	s.mu.Lock()
	s.byProc[child.proc] = child
	s.mu.Unlock()
	return true
}

// FaultStats returns the fault injector's per-effect occurrence
// counters (drop, dup, reorder, partition, slow, storm, crash,
// restart, miss), or nil when the system runs without a fault plan.
// On a partitioned run it aggregates the per-group injector children
// and derives misses from the shared per-event hit counters; read it
// from serial context (before the run or after it ends).
func (s *System) FaultStats() map[string]int64 {
	if s.inj == nil {
		return nil
	}
	out := s.inj.Counts()
	for i := range s.churnHits {
		if atomic.LoadInt64(&s.churnHits[i]) == 0 {
			out["miss"]++
		}
	}
	return out
}

// Env exposes the simulation environment (tracing, custom events).
func (s *System) Env() *sim.Env { return s.env }

// Network exposes the network model's counters (nil for Ideal).
func (s *System) Network() netsim.Network { return s.net }

// Spawn declares a LYNX process. main receives the process's main
// thread and its boot links (one per Join involving this process, in
// call order). Must be called before Run.
func (s *System) Spawn(name string, main func(t *Thread, boot []*End)) *ProcRef {
	if s.ran {
		panic("lynx: Spawn after Run")
	}
	return s.newProcRef(name, main, -1)
}

// newProcRef allocates a spec and its substrate transport (shared by
// Spawn, Launch, and restart). g >= 0 homes the process on that
// partition group: kernel process and transport allocate from the
// group's strided id space, node placement advances the group's own
// cursor, and the transport is born on the group's shard env.
func (s *System) newProcRef(name string, main func(*Thread, []*End), g int) *ProcRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	pr := &ProcRef{sys: s, name: name, idx: len(s.specs), group: g, main: main}
	env := s.env
	var node netsim.NodeID
	if g >= 0 {
		node = netsim.NodeID(s.groupNode[g] % s.cfg.Nodes)
		s.groupNode[g]++
		env = s.shards[g]
	} else {
		node = netsim.NodeID(s.nextNode % s.cfg.Nodes)
		s.nextNode++
	}
	switch s.cfg.Substrate {
	case Charlotte:
		var kp *charlotte.Process
		if g >= 0 {
			kp = s.charK.NewProcessIn(g, node)
		} else {
			kp = s.charK.NewProcess(node)
		}
		pr.chTr = chbind.New(env, kp, s.cfg.Charlotte.BufCap)
		pr.tr = pr.chTr
	case SODA:
		var kp *soda.Process
		if g >= 0 {
			kp = s.sodaK.NewProcessIn(g, node)
		} else {
			kp = s.sodaK.NewProcess(node)
		}
		pr.sodaTr = sodabind.New(env, s.sodaK, kp, s.sodaCfg)
		pr.tr = pr.sodaTr
	case Chrysalis:
		var kp *chrysalis.Process
		if g >= 0 {
			kp = s.chrK.NewProcessIn(g, node)
		} else {
			kp = s.chrK.NewProcess(node)
		}
		pr.chrTr = chrbind.New(env, s.chrK, kp, s.cfg.Chrysalis.BufCap)
		pr.tr = pr.chrTr
	case Ideal:
		if g >= 0 {
			pr.idTr = s.fab.NewTransportIn(g, pr.name)
			pr.idTr.SetEnv(env)
		} else {
			pr.idTr = s.fab.NewTransport(pr.name)
		}
		pr.tr = pr.idTr
	}
	s.specs = append(s.specs, pr)
	return pr
}

// Join wires a boot-time link between two processes (the loader handing
// newborn processes their initial links). Each call appends one end to
// each process's boot slice. Must precede Run.
func (s *System) Join(a, b *ProcRef) {
	if s.ran {
		panic("lynx: Join after Run (use Launch for dynamic processes)")
	}
	s.join(a, b)
}

// join wires the link; shared by Join and Launch. Boot-time joins are
// recorded for the component analysis that drives parallel execution.
func (s *System) join(a, b *ProcRef) {
	if !s.ran {
		s.joins = append(s.joins, [2]int{a.idx, b.idx})
	}
	var ta, tb core.TransEnd
	switch s.cfg.Substrate {
	case Charlotte:
		ea, eb := s.charK.BootLink(a.chTr.KernelProcess(), b.chTr.KernelProcess())
		ta = a.chTr.AdoptBootEnd(ea)
		tb = b.chTr.AdoptBootEnd(eb)
	case SODA:
		ta, tb = sodabind.BootLink(a.sodaTr, b.sodaTr)
	case Chrysalis:
		ta, tb = chrbind.BootLink(a.chrTr, b.chrTr)
	case Ideal:
		ea, eb, err := a.idTr.MakeLink()
		if err != nil {
			panic(err)
		}
		ideal.MoveOwnership(s.fab, a.idTr, b.idTr, eb.(ideal.EndID))
		ta, tb = ea, eb
	}
	a.boots = append(a.boots, ta)
	b.boots = append(b.boots, tb)
}

// runtimeCosts returns the calibrated run-time package overhead for the
// configured substrate.
func (s *System) runtimeCosts() calib.LynxRuntimeCosts {
	switch s.cfg.Substrate {
	case Charlotte:
		return calib.DefaultCharlotteRuntime()
	case SODA:
		return calib.DefaultSODARuntime()
	case Chrysalis:
		return calib.DefaultChrysalisRuntime()
	default:
		return calib.LynxRuntimeCosts{PerOperation: 10 * sim.Microsecond}
	}
}

// planParallel decides whether this run is partitionable and, when it
// is, splits it. Eligibility is topology-and-medium only: at least two
// boot-join connected components, over a medium with finite lookahead
// (netsim.MinLatency > 0 certifies that groups can only couple through
// the state the per-group segments privatize; the Ideal fabric has no
// medium and is trivially eligible). SimWorkers does NOT gate the
// split — a partitioned run at Workers=1 executes its shards
// sequentially — because the partition fixes id allocators, rng
// streams, and fault schedules, and those must be identical at every
// worker count for the byte-identity contract to hold.
//
// When eligible it partitions the env into one shard per component,
// splits the medium into per-group segments, partitions the kernel's
// state, and returns the spec → shard mapping; otherwise it returns
// the identity mapping onto the serial env.
func (s *System) planParallel() func(*ProcRef) *sim.Env {
	serial := func(*ProcRef) *sim.Env { return s.env }
	if len(s.specs) < 2 {
		return serial
	}
	if s.cfg.Substrate != Ideal && netsim.MinLatency(s.net) <= 0 {
		return serial
	}
	// Union-find over the boot-join edges.
	parent := make([]int, len(s.specs))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, j := range s.joins {
		if ra, rb := find(j[0]), find(j[1]); ra != rb {
			parent[rb] = ra
		}
	}
	// Number components in first-appearance (spawn) order so the
	// spec → shard mapping is deterministic.
	groupOf := make(map[int]int)
	comp := make([]int, len(s.specs))
	for i := range s.specs {
		r := find(i)
		g, ok := groupOf[r]
		if !ok {
			g = len(groupOf)
			groupOf[r] = g
		}
		comp[i] = g
	}
	k := len(groupOf)
	if k < 2 {
		return serial
	}
	workers := s.cfg.SimWorkers
	if workers < 1 {
		workers = 1
	}
	rec := s.Obs()
	shards := s.env.EnterParallel(sim.ParallelOptions{
		Groups:  k,
		Workers: workers,
		// Lookahead 0: components never interact, windows are unbounded.
		Lookahead: 0,
		// Observers (obs sinks, exporters) attach between NewSystem and
		// Run; consult the recorder at run time so they still replay in
		// serial order.
		ObservedFn: func() bool { return rec.Active() },
	})
	s.shards = shards
	s.partitioned = true
	s.parallel = workers > 1
	for i, pr := range s.specs {
		pr.group = comp[i]
	}
	// Mid-run launches place round-robin per group, each cursor starting
	// from the boot cursor frozen here.
	s.groupNode = make([]int, k)
	for g := range s.groupNode {
		s.groupNode[g] = s.nextNode
	}
	// Split the medium into per-group segments and shard the kernel.
	switch s.cfg.Substrate {
	case Charlotte:
		rings := s.net.(*netsim.TokenRing).Partition(k)
		s.segs = make([]netsim.Network, k)
		for i, r := range rings {
			s.segs[i] = r
		}
		s.charK.Partition(shards, s.segs)
	case SODA:
		buses := s.net.(*netsim.CSMABus).Partition(k)
		s.segs = make([]netsim.Network, k)
		for i, b := range buses {
			s.segs[i] = b
		}
		s.sodaK.Partition(shards, buses)
	case Chrysalis:
		bps := s.net.(*netsim.Backplane).Partition(k)
		s.segs = make([]netsim.Network, k)
		for i, bp := range bps {
			s.segs[i] = bp
		}
		s.chrK.Partition(shards, bps)
	case Ideal:
		s.fab.Partition(k)
	}
	return func(pr *ProcRef) *sim.Env { return shards[pr.group] }
}

// Parallel reports whether shards actually execute concurrently this
// run: the topology partitioned AND SimWorkers > 1. False until Run,
// and false for partitioned runs driven serially (SimWorkers <= 1),
// which are byte-identical to the concurrent ones. Partitioned reports
// the split itself.
func (s *System) Parallel() bool { return s.parallel }

// Partitioned reports whether materialize split this run into
// shard-per-component (at any SimWorkers value).
func (s *System) Partitioned() bool { return s.partitioned }

// assignGroup moves a boot spec onto its partition group: the kernel
// process (or ideal transport) joins the group's strided id space and
// the binding's timers/emissions move to the shard env — before any
// simproc exists, so nothing is in flight.
func (pr *ProcRef) assignGroup(g int, env *sim.Env) {
	switch {
	case pr.chTr != nil:
		pr.chTr.KernelProcess().AssignGroup(g)
		pr.chTr.SetEnv(env)
	case pr.sodaTr != nil:
		pr.sodaTr.KernelProcess().AssignGroup(g)
		pr.sodaTr.SetEnv(env)
	case pr.chrTr != nil:
		pr.chrTr.KernelProcess().AssignGroup(g)
		pr.chrTr.SetEnv(env)
	case pr.idTr != nil:
		pr.idTr.AssignGroup(g)
		pr.idTr.SetEnv(env)
	}
}

// materialize creates the core processes (idempotent).
func (s *System) materialize() {
	if s.ran {
		return
	}
	s.ran = true
	envFor := s.planParallel()
	s.installFaults()
	costs := s.runtimeCosts()
	for _, pr := range s.specs {
		spec := pr
		env := envFor(pr)
		if s.partitioned {
			// Both ends of every link live in one component, so a
			// link's traffic always runs on one shard.
			pr.assignGroup(pr.group, env)
		}
		pr.proc = core.NewProcess(env, spec.name, spec.tr, costs, func(t *Thread) {
			boot := make([]*End, len(spec.boots))
			for i, te := range spec.boots {
				boot[i] = t.AdoptBootEnd(te)
			}
			spec.main(t, boot)
		})
		s.byProc[pr.proc] = pr
	}
}

// Launch creates a NEW process while the system is running — the paper's
// "processes designed in isolation, and compiled and loaded at disparate
// times" (§2). It must be called from a running thread of an existing
// process (the launcher plays loader). The child is connected to the
// launcher by a fresh boot link; the launcher's end is returned, and the
// child receives its end as boot[0].
func (s *System) Launch(t *Thread, name string, main func(t *Thread, boot []*End)) (*End, *ProcRef) {
	end, refs := s.LaunchGroup(t, []ProcSpec{{Name: name, Main: main}}, nil)
	return end, refs[0]
}

// ProcSpec describes one process of a dynamically-launched group: its
// name and main function, exactly as passed to Spawn.
type ProcSpec struct {
	Name string
	Main func(t *Thread, boot []*End)
}

// LaunchGroup creates a set of NEW processes mid-run as one wired unit —
// the dynamic-composition counterpart of Spawn+Join. Each wires entry
// {a, b} wires a fresh boot link between specs[a] and specs[b] (indices
// into specs, a ≠ b), in order. The launcher is joined to specs[0], the
// group's head, and the launcher's end of that link is returned.
//
// Boot-slice layout: the head receives the launcher link as boot[0]
// followed by its wire ends in wires order; every other process receives
// only its wire ends, in wires order. Like Launch, LaunchGroup must be
// called from a running thread of an existing process; the group's
// processes start once the launcher next yields the processor.
//
// This is the minimal surface an in-simulation workload generator needs:
// one call assembles a multi-process work unit (an echo pair, a
// pipeline, a mesh) with its internal topology, handing the generator a
// single link on which the unit reports completion.
func (s *System) LaunchGroup(t *Thread, specs []ProcSpec, wires [][2]int) (*End, []*ProcRef) {
	if !s.ran {
		panic("lynx: LaunchGroup before Run (use Spawn + Join)")
	}
	if len(specs) == 0 {
		panic("lynx: LaunchGroup with no specs")
	}
	s.mu.Lock()
	parent := s.byProc[t.Process()]
	s.mu.Unlock()
	if parent == nil {
		panic("lynx: LaunchGroup from a thread of an unknown process")
	}
	// Home-shard placement: on a partitioned run the whole group is born
	// on the launcher's shard — kernel processes, transports, and boot
	// links all allocate from that group's strided id space — so the
	// launch touches no other shard's state and the engine stays
	// parallel. Unpartitioned runs (g = -1) keep the classic global
	// sequences.
	g := parent.group
	env := s.env
	if g >= 0 {
		env = s.shards[g]
	}
	refs := make([]*ProcRef, len(specs))
	for i, spec := range specs {
		refs[i] = s.newProcRef(spec.Name, spec.Main, g)
	}
	s.join(parent, refs[0]) // kernel-level boot wiring works mid-run
	parentTE := parent.boots[len(parent.boots)-1]
	for _, w := range wires {
		if w[0] < 0 || w[0] >= len(specs) || w[1] < 0 || w[1] >= len(specs) || w[0] == w[1] {
			panic(fmt.Sprintf("lynx: LaunchGroup wire %v out of range for %d specs", w, len(specs)))
		}
		s.join(refs[w[0]], refs[w[1]])
	}
	costs := s.runtimeCosts()
	for _, child := range refs {
		childSpec := child
		child.proc = core.NewProcess(env, childSpec.name, child.tr, costs, func(ct *Thread) {
			boot := make([]*End, len(childSpec.boots))
			for i, te := range childSpec.boots {
				boot[i] = ct.AdoptBootEnd(te)
			}
			childSpec.main(ct, boot)
		})
		s.mu.Lock()
		s.byProc[child.proc] = child
		s.mu.Unlock()
	}
	return t.AdoptBootEnd(parentTE), refs
}

// Run executes the system until every process finishes (or an error
// such as deadlock occurs).
func (s *System) Run() error {
	s.materialize()
	err := s.env.Run()
	if err != nil {
		s.fr.Anomaly("run error: " + err.Error())
	}
	return err
}

// RunFor executes the system up to the given virtual-time horizon.
func (s *System) RunFor(d Duration) error {
	s.materialize()
	err := s.env.RunUntil(sim.Time(d))
	if err != nil {
		s.fr.Anomaly("run error: " + err.Error())
	}
	return err
}

// Now reports virtual time.
func (s *System) Now() Time { return s.env.Now() }

// Name returns the process's name.
func (p *ProcRef) Name() string { return p.name }

// Proc returns the underlying core process (after Run has started).
func (p *ProcRef) Proc() *core.Process { return p.proc }

// RuntimeStats returns the run-time package counters (after Run).
func (p *ProcRef) RuntimeStats() *core.Stats {
	if p.proc == nil {
		return &core.Stats{}
	}
	return p.proc.Stats()
}

// CharlotteStats returns Charlotte binding counters (nil elsewhere).
//
// Deprecated: use p.Stats().Charlotte().
func (p *ProcRef) CharlotteStats() *chbind.Stats { return p.Stats().Charlotte() }

// SODAStats returns SODA binding counters (nil elsewhere).
//
// Deprecated: use p.Stats().SODA().
func (p *ProcRef) SODAStats() *sodabind.Stats { return p.Stats().SODA() }

// ChrysalisStats returns Chrysalis binding counters (nil elsewhere).
//
// Deprecated: use p.Stats().Chrysalis().
func (p *ProcRef) ChrysalisStats() *chrbind.Stats { return p.Stats().Chrysalis() }

// DebugState renders the process's run-time state (wedge diagnosis).
func (p *ProcRef) DebugState() string {
	if p.proc == nil {
		return p.name + ": not started"
	}
	return p.proc.DebugState()
}

// Crash kills the process abruptly mid-run (fault injection).
func (p *ProcRef) Crash() {
	if p.proc != nil {
		p.proc.Crash()
	}
}

// CharlotteKernelStats returns kernel counters for a Charlotte system.
//
// Deprecated: use s.Stats().Charlotte().
func (s *System) CharlotteKernelStats() *charlotte.Stats { return s.Stats().Charlotte() }

// SODAKernelStats returns kernel counters for a SODA system.
//
// Deprecated: use s.Stats().SODA().
func (s *System) SODAKernelStats() *soda.Stats { return s.Stats().SODA() }

// ChrysalisKernelStats returns kernel counters for a Chrysalis system.
//
// Deprecated: use s.Stats().Chrysalis().
func (s *System) ChrysalisKernelStats() *chrysalis.Stats { return s.Stats().Chrysalis() }

// Obs returns the active substrate's observability recorder: attach
// exporters (obs.TextExporter, obs.JSONLExporter, obs.ChromeExporter)
// for typed event streams, or read Metrics() for the counter registry.
func (s *System) Obs() *obs.Recorder {
	switch {
	case s.charK != nil:
		return s.charK.Obs()
	case s.sodaK != nil:
		return s.sodaK.Obs()
	case s.chrK != nil:
		return s.chrK.Obs()
	case s.fab != nil:
		return s.fab.Obs()
	}
	return nil
}

// Flight returns the system's flight recorder, or nil when
// Config.Trace.Mode is Off. When a mode is engaged, export sinks must
// attach here — not to Obs() directly, which would bypass sampling:
//
//	sys.Flight().Attach(&obs.JSONLExporter{W: out})
//	sys.Flight().SetDumpWriter(out)
func (s *System) Flight() *flight.Recorder { return s.fr }

// Metrics returns the active substrate's metric registry. It is
// nil-safe end to end: when no recorder exists (a zero-value System) it
// returns the nil registry, whose lookup methods report zero rather
// than panicking.
func (s *System) Metrics() *obs.Metrics {
	if r := s.Obs(); r != nil {
		return r.Metrics()
	}
	return nil
}

// KernelPID returns the process's kernel-level id on the active
// substrate (-1 for Ideal, which has no kernel processes). Per-process
// obs metrics are keyed by this id.
func (p *ProcRef) KernelPID() int {
	switch {
	case p.chTr != nil:
		return p.chTr.KernelProcess().ID()
	case p.sodaTr != nil:
		return int(p.sodaTr.KernelProcess().ID())
	case p.chrTr != nil:
		return p.chrTr.KernelProcess().ID()
	}
	return -1
}
