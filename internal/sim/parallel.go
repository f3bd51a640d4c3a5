// Partitioned execution: one Env split into shard envs (one per proc
// group) that run concurrently.
//
// # Model
//
// EnterParallel splits a fresh root Env into N shard envs. Each shard is
// a full Env — its own 4-ary timer heap (the sharded event set), ready
// ring, rng stream, and arena-allocated timer state — running the
// ordinary resume-loop scheduler. The groups must be disjoint: the
// engine has no cross-shard message, so a group's procs may touch only
// their own shard and state the caller has split per group (lynx
// partitions the connected components of its boot graph, each over its
// own segment of the network medium). A run on the root env therefore
// runs every shard once, to the horizon, on up to Workers goroutines —
// no windows, no barriers.
//
// # Determinism
//
// Unobserved runs need no coordination: shard execution is internally
// deterministic, and shard-crossing state is commutative (atomic
// counters).
//
// Observed runs (a tracer or an obs recorder attached) must reproduce
// the exact event interleave of the equivalent serial run, byte for
// byte, at any worker count. Each shard therefore logs its execution as
// a sequence of records — boot segments (a proc resumed from the initial
// FIFO) and timer blocks (a timer fired plus the cascade of resumes it
// caused) — with the timers each record scheduled and the trace/metric
// emissions it produced, deferred as closures. After the run a replay
// pass re-derives the order in which the serial run would have
// interleaved the shards on one env: the boot-time ready FIFO is drained
// in global push order, then timers are replayed from a priority queue
// ordered by (time, global scheduling rank) — exactly the (at, seq)
// order the serial env uses. Scheduling ranks are assigned as records
// are consumed, mirroring when the serial run would have scheduled each
// timer. A popped reference whose shard log shows a different timer next
// is one that was cancelled (or never fired) and is skipped.
//
// Everything that touches shared state mid-run is either deferred into
// those logs (traces, obs events via Env.Sequenced), made commutative
// (obs counters/histograms are atomic), made shard-local (mid-run Spawn
// on a shard env lands on that home shard, with pids drawn from the
// shard's strided allocator), or forbidden and enforced by panics
// (Spawn and timers on the partitioned root env).
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ParallelOptions configures Env.EnterParallel.
type ParallelOptions struct {
	// Groups is the number of shard envs to create.
	Groups int
	// Workers caps how many shards execute concurrently. Values < 1
	// mean 1. Workers=1 still runs the partitioned engine, but shards
	// execute sequentially in index order.
	Workers int
	// ObservedFn, when set, is consulted at the start of each run (in
	// addition to the tracer): it lets callers whose observers attach
	// after partitioning (e.g. obs sinks added between System
	// construction and Run) still engage deterministic logging.
	ObservedFn func() bool
}

// EnterParallel partitions a fresh root env into opt.Groups shard envs.
// The root env must not have procs, timers, or a run in progress. After
// partitioning, procs and timers belong on the shards; Run/RunUntil on
// the root drives all shards. Shard rng streams are split
// deterministically from the root's stream.
func (e *Env) EnterParallel(opt ParallelOptions) []*Env {
	if opt.Groups < 1 {
		panic("sim: EnterParallel needs at least one group")
	}
	if e.par != nil || e.sh != nil {
		panic("sim: EnterParallel on an already partitioned env")
	}
	if e.running {
		panic("sim: EnterParallel during a run")
	}
	if e.live > 0 || e.ready.n > 0 || e.timers.len() > 0 {
		panic("sim: EnterParallel on an env that already has procs or timers")
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	co := &parCoord{root: e, workers: workers, observedFn: opt.ObservedFn}
	envs := make([]*Env, opt.Groups)
	for i := range envs {
		p := &paddedShard{env: makeEnv(e.rng.Uint64()), st: shardState{co: co, idx: i}}
		sh := &p.env
		sh.tracer = e.tracer
		sh.sh = &p.st
		co.shards = append(co.shards, sh)
		envs[i] = sh
	}
	e.par = co
	return envs
}

// cacheLine is the cache-line size paddedShard separates shards by.
const cacheLine = 64

// paddedShard holds one shard's env and shard state, a cache line clear
// of any neighbouring allocation. Shards run concurrently, and every
// scheduling decision writes the env (clock, ready queue, timer heap,
// resume counts); two shards whose envs shared a cache line would
// invalidate each other's copy of it at every step.
type paddedShard struct {
	_   [cacheLine]byte
	env Env
	st  shardState
	_   [cacheLine]byte
}

// Partitioned reports whether EnterParallel has been called on e.
func (e *Env) Partitioned() bool { return e.par != nil }

// ParallelRunning reports whether e is a partitioned root env currently
// executing a parallel run. Operations that would race across shards
// (e.g. mid-run link creation) use this to fail loudly.
func (e *Env) ParallelRunning() bool { return e.par != nil && e.par.running }

// Sequencing reports whether emissions from e must go through Sequenced
// to appear in deterministic serial order (true only for shard envs of
// an observed partition, during a run).
func (e *Env) Sequencing() bool {
	sh := e.sh
	return sh != nil && sh.logging && sh.co.running
}

// Sequenced runs fn now when e executes serially, or defers it into the
// shard's replay log to run in serial-equivalent order after the
// parallel run. Observers (trace sinks, obs recorders) route their
// emissions through it so output bytes are identical at any worker
// count.
func (e *Env) Sequenced(fn func()) {
	if sh := e.sh; sh != nil && sh.logging && sh.co.running {
		sh.emit(fn)
		return
	}
	fn()
}

// parCoord coordinates one partitioned run: the worker pool and the
// deterministic replay.
type parCoord struct {
	root       *Env
	shards     []*Env
	workers    int
	observedFn func() bool
	running    bool
	// started flips sticky-true at the partition's first run; from then
	// on every spawn (mid-run or between runs) draws from its shard's
	// strided pid allocator instead of the root counter.
	started bool

	// bootQueue records, during setup, the shard index of every push
	// onto a shard's initial ready FIFO (Spawns and pre-run wakes), in
	// global program order — the seed of the serial replay.
	bootQueue []int
	// prelog records timers scheduled during setup, in global program
	// order: they precede every mid-run scheduling in serial (at, seq)
	// rank order.
	prelog []preSched
}

// shardState is the per-shard bookkeeping hung off a shard Env.
type shardState struct {
	co  *parCoord
	idx int

	// pidNext/pidStride implement the shard's strided pid allocator,
	// frozen at the partition's first run: pids for mid-run spawns
	// depend only on this shard's own spawn order.
	pidNext   int
	pidStride int

	// timerChunk is the size of the shard's last timer chunk (see
	// Env.allocTimer).
	timerChunk int

	// logging is true when this run must replay in serial order
	// (refreshed at the start of each run).
	logging bool
	// inBlock is true while the cascade caused by a fired timer is
	// draining (ready pops with no intervening empty-ready state).
	inBlock bool
	// schedN numbers timers scheduled by this shard, in order.
	schedN int
	// cur is the record currently being appended to.
	cur *logRec
	// recs is this run's execution log.
	recs []*logRec
}

// logRec is one unit of shard execution: a boot segment (timerID -1, one
// proc resumed from the initial FIFO plus everything it ran before
// parking) or a timer block (timer logID fired plus its cascade).
type logRec struct {
	timerID int
	// pushes counts ready pushes observed outside any block — i.e.
	// additional boot-FIFO entries this segment appended (pre-run wakes
	// and Spawns are counted in bootQueue instead).
	pushes int
	emits  []func()
	scheds []schedRef
}

// schedRef records a timer scheduled by this record, in program order.
type schedRef struct {
	at Time
	id int
}

type preSched struct {
	shard int
	at    Time
	id    int
}

func (sh *shardState) onSched(tm *timer) {
	tm.logID = sh.schedN
	sh.schedN++
	if !sh.co.running {
		sh.co.prelog = append(sh.co.prelog, preSched{shard: sh.idx, at: tm.at, id: tm.logID})
	} else if sh.cur != nil {
		sh.cur.scheds = append(sh.cur.scheds, schedRef{at: tm.at, id: tm.logID})
	}
}

// onBootPush is called for ready pushes outside timer blocks.
func (sh *shardState) onBootPush() {
	if !sh.co.running {
		sh.co.bootQueue = append(sh.co.bootQueue, sh.idx)
	} else if sh.cur != nil {
		sh.cur.pushes++
	}
}

// onResume is called when a shard resumes a proc from its ready queue.
// Outside a timer block this opens a boot-segment record.
func (sh *shardState) onResume(e *Env, p *Proc) {
	if !sh.inBlock {
		sh.newRec(-1)
	}
	if e.tracer != nil {
		tr, now, id, name := e.tracer, e.now, p.id, p.name
		sh.emit(func() { tr.Resume(now, id, name) })
	}
}

// onFire opens a timer-block record for timer t about to fire.
func (sh *shardState) onFire(t *timer) {
	sh.newRec(t.logID)
	sh.inBlock = true
}

func (sh *shardState) newRec(timerID int) {
	r := &logRec{timerID: timerID}
	sh.recs = append(sh.recs, r)
	sh.cur = r
}

// emit defers fn into the current record (or runs it immediately when no
// record is open, which only happens outside runs).
func (sh *shardState) emit(fn func()) {
	if sh.cur == nil {
		fn()
		return
	}
	sh.cur.emits = append(sh.cur.emits, fn)
}

// runRoot drives one partitioned run to limit (or completion when
// limit < 0): every shard once, then replay and result folding. A timer
// a shard pops past the horizon is abandoned along with its procs, as
// in a serial RunUntil.
func (co *parCoord) runRoot(limit Time) error {
	root := co.root
	if co.running || root.running {
		return errors.New("sim: Run re-entered")
	}
	if root.stopped {
		return root.stopErr
	}
	root.running = true
	defer func() { root.running = false }()

	if !co.started {
		// Freeze the strided pid bases: every pid handed out so far came
		// from the root counter; from here on shard i allocates
		// nextPID+1+i, +stride, +2·stride, … — unique across shards and
		// independent of worker interleaving.
		co.started = true
		k := len(co.shards)
		for i, sh := range co.shards {
			sh.sh.pidNext = root.nextPID + 1 + i
			sh.sh.pidStride = k
		}
	}

	logging := root.tracer != nil || (co.observedFn != nil && co.observedFn())
	for _, sh := range co.shards {
		sh.tracer = root.tracer
		sh.sh.logging = logging
	}

	co.running = true
	co.runShards(limit)
	co.running = false

	if logging {
		co.replaySerial()
	}
	co.resetLogs()
	// Fold shard clocks into the root clock: the latest instant any
	// group reached.
	for _, sh := range co.shards {
		if sh.now > root.now {
			root.now = sh.now
		}
	}
	if err, stopped := co.stopState(); stopped {
		root.stopped = true
		root.stopErr = err
		return err
	}
	live, hitHorizon := 0, false
	for _, sh := range co.shards {
		live += sh.live
		hitHorizon = hitHorizon || sh.end == endLimit
	}
	if live > 0 && !hitHorizon {
		return fmt.Errorf("%w at %v\n%s", ErrDeadlock, root.now, co.diagnose())
	}
	return nil
}

// runShards runs every shard to limit, up to workers shards
// concurrently. The groups are disjoint, so execution order cannot
// affect results; with one worker (or one shard) the goroutine hop is
// skipped entirely.
func (co *parCoord) runShards(limit Time) {
	if co.workers == 1 || len(co.shards) == 1 {
		for _, sh := range co.shards {
			sh.runShard(limit)
		}
		return
	}
	sem := make(chan struct{}, co.workers)
	var wg sync.WaitGroup
	for _, sh := range co.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			sh.runShard(limit)
			<-sem
		}()
	}
	wg.Wait()
}

func (e *Env) runShard(limit Time) {
	e.running = true
	e.runCore(limit)
	e.running = false
}

// stopState reports the first stopped shard's error (by shard index, a
// deterministic choice), or the root's own Stop.
func (co *parCoord) stopState() (error, bool) {
	if co.root.stopped {
		return co.root.stopErr, true
	}
	for _, sh := range co.shards {
		if sh.stopped {
			return sh.stopErr, true
		}
	}
	return nil, false
}

// diagnose merges deadlock diagnostics across shards into the same
// sorted rendering a serial env produces.
func (co *parCoord) diagnose() string {
	var lines []string
	for _, sh := range co.shards {
		lines = append(lines, sh.diagnoseLines()...)
	}
	sort.Strings(lines)
	if len(lines) == 0 {
		return "  (no registered wait queues; procs blocked on raw parks)"
	}
	return strings.Join(lines, "\n")
}

// resetLogs discards the per-run logging state (after replay, or after
// an unobserved run that recorded only the setup-time prelog).
func (co *parCoord) resetLogs() {
	for _, sh := range co.shards {
		st := sh.sh
		st.recs, st.cur, st.schedN = nil, nil, 0
	}
	co.prelog = co.prelog[:0]
	co.bootQueue = co.bootQueue[:0]
}

// replayRef is a pending timer block in the serial replay, ordered by
// (time, scheduling rank) — the serial env's (at, seq) order. Rank is a
// global counter advanced per scheduling in replay order; within one
// shard it increases in the shard's own scheduling order, which is all
// (at, seq) tiebreaking can observe for timers of one shard, and
// cross-shard ties are resolved exactly as the serial interleave would
// have scheduled them.
type replayRef struct {
	at    Time
	rank  int
	shard int
	id    int
}

func refLess(a, b replayRef) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.rank < b.rank
}

// refHeap is a binary min-heap of replayRefs.
type refHeap []replayRef

func (h *refHeap) push(r replayRef) {
	*h = append(*h, r)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *refHeap) pop() replayRef {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && refLess(s[l], s[m]) {
			m = l
		}
		if r < n && refLess(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// replaySerial reconstructs the event order of the equivalent serial run:
// drain the boot FIFO in global push order,
// then fire timer blocks in (time, scheduling rank) order. Consuming a
// record runs its deferred emissions and registers the timers it
// scheduled; a popped reference not matching its shard's next record
// refers to a timer that was cancelled (or never reached) and is
// skipped.
func (co *parCoord) replaySerial() {
	cur := make([]int, len(co.shards))
	var h refHeap
	rank := 0
	sched := func(shard int, at Time, id int) {
		h.push(replayRef{at: at, rank: rank, shard: shard, id: id})
		rank++
	}
	consume := func(si int) *logRec {
		st := co.shards[si].sh
		r := st.recs[cur[si]]
		cur[si]++
		for _, fn := range r.emits {
			fn()
		}
		for _, sr := range r.scheds {
			sched(si, sr.at, sr.id)
		}
		return r
	}

	for _, ps := range co.prelog {
		sched(ps.shard, ps.at, ps.id)
	}
	fifo := append([]int(nil), co.bootQueue...)
	for head := 0; head < len(fifo); head++ {
		si := fifo[head]
		st := co.shards[si].sh
		// Each FIFO token consumes one boot-segment record; a missing
		// record means the shard's run ended before draining its FIFO.
		if cur[si] >= len(st.recs) || st.recs[cur[si]].timerID != -1 {
			continue
		}
		r := consume(si)
		for i := 0; i < r.pushes; i++ {
			fifo = append(fifo, si)
		}
	}
	for len(h) > 0 {
		ref := h.pop()
		st := co.shards[ref.shard].sh
		if cur[ref.shard] >= len(st.recs) {
			continue
		}
		if st.recs[cur[ref.shard]].timerID != ref.id {
			continue // cancelled, or the run ended before it fired
		}
		consume(ref.shard)
	}
}
