// Conservative parallel DES: one Env partitioned into shard envs (one
// per proc group) that execute concurrently inside safe time windows.
//
// # Model
//
// EnterParallel splits a fresh root Env into N shard envs. Each shard is
// a full Env — its own 4-ary timer heap (the sharded event set), ready
// ring, rng stream, and arena-allocated timer state — running the
// ordinary resume-loop scheduler. The coordinator repeatedly computes
// the earliest pending event time across shards, derives a window bound
// from the partition's lookahead, and lets a worker pool run every shard
// with work inside the window concurrently. A barrier follows each
// window; cross-group messages (SendGroup) queued during the window are
// then delivered in deterministic order before the next window opens.
//
// With Lookahead <= 0 the groups are declared non-interacting: the
// window is unbounded (one window runs every shard to completion), which
// is the configuration lynx uses for topologies whose boot graph splits
// into independent components. With Lookahead > 0 cross-group influence
// is permitted but only at >= lookahead delay, the classic conservative
// PDES contract: an event at time t cannot affect another group before
// t+lookahead, so all events in [t, t+lookahead) are safe to execute
// concurrently.
//
// # Determinism
//
// Unobserved runs need no coordination beyond the barrier: shard
// execution is internally deterministic, and shard-crossing state is
// either ordered at barriers or commutative (atomic counters).
//
// Observed runs (a tracer or an obs recorder attached) must reproduce
// the exact event interleave of the equivalent serial run, byte for
// byte, at any worker count. Each shard therefore logs its execution as
// a sequence of records — boot segments (a proc resumed from the initial
// FIFO) and timer blocks (a timer fired plus the cascade of resumes it
// caused) — with the timers each record scheduled and the trace/metric
// emissions it produced, deferred as closures. After the run a replay
// pass reconstructs the serial order:
//
//   - Lookahead <= 0: the serial run would have interleaved the shards
//     on one env, so replay re-derives that order: the boot-time ready
//     FIFO is drained in global push order, then timers are replayed
//     from a priority queue ordered by (time, global scheduling rank) —
//     exactly the (at, seq) order the serial env uses. Scheduling ranks
//     are assigned as records are consumed, mirroring when the serial
//     run would have scheduled each timer. A popped reference whose
//     shard log shows a different timer next is one that was cancelled
//     (or never fired) and is skipped.
//   - Lookahead > 0: no serial equivalent exists (SendGroup only exists
//     under partitioning), so replay is a k-way merge of the shards'
//     emission streams by (time, shard index) — deterministic at any
//     worker count.
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
	// Workers caps how many shards execute concurrently per window.
	// Values < 1 mean 1. Workers=1 still runs the partitioned engine,
	// but windows execute shards sequentially in index order.
	Workers int
	// Lookahead is the minimum cross-group influence delay. <= 0
	// declares the groups fully independent (no SendGroup, unbounded
	// windows); > 0 enables SendGroup at >= Lookahead delay.
	Lookahead Duration
	// Observed forces merge logging even without a tracer, so obs
	// recorders sequenced through Env.Sequenced replay in serial order.
	Observed bool
	// ObservedFn, when set, is consulted at the start of each run (in
	// addition to Observed and the tracer): it lets callers whose
	// observers attach after partitioning (e.g. obs sinks added between
	// System construction and Run) still engage deterministic logging.
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
	co := &parCoord{
		root:       e,
		workers:    workers,
		lookahead:  opt.Lookahead,
		observed:   opt.Observed,
		observedFn: opt.ObservedFn,
	}
	envs := make([]*Env, opt.Groups)
	for i := range envs {
		sh := NewEnv(e.rng.Uint64())
		sh.tracer = e.tracer
		sh.sh = &shardState{co: co, idx: i}
		co.shards = append(co.shards, sh)
		envs[i] = sh
	}
	e.par = co
	return envs
}

// GrowPartition appends n fresh shard envs to an existing partition —
// the repartition hook: when topology changes between runs (a launched
// group that belongs to no existing component, a regrouping decided by
// the run-time layer), the caller grows the partition instead of
// tearing it down. It must be called on the partitioned root env,
// between runs. New shards draw their rng seeds from the root stream in
// index order (just like EnterParallel), and every shard's strided pid
// allocator is re-based over the new shard count so pids stay unique
// and deterministic. Returns the new shard envs.
func (e *Env) GrowPartition(n int) []*Env {
	co := e.par
	if co == nil {
		panic("sim: GrowPartition on an env that is not a partitioned root")
	}
	if n < 1 {
		panic("sim: GrowPartition needs at least one new group")
	}
	if co.running || e.running {
		panic("sim: GrowPartition during a run")
	}
	envs := make([]*Env, n)
	for i := range envs {
		sh := NewEnv(e.rng.Uint64())
		sh.tracer = e.tracer
		sh.sh = &shardState{co: co, idx: len(co.shards)}
		co.shards = append(co.shards, sh)
		envs[i] = sh
	}
	if co.started {
		// Re-base the strides: all future pids start above everything
		// allocated so far, shard i offset by i with the new stride.
		base := e.nextPID + 1
		for _, sh := range co.shards {
			if sh.sh.pidNext > base {
				base = sh.sh.pidNext
			}
		}
		k := len(co.shards)
		for i, sh := range co.shards {
			sh.sh.pidNext = base + i
			sh.sh.pidStride = k
		}
	}
	return envs
}

// Partitioned reports whether EnterParallel has been called on e.
func (e *Env) Partitioned() bool { return e.par != nil }

// ParallelRunning reports whether e is a partitioned root env currently
// executing a parallel run. Operations that would race across shards
// (e.g. mid-run link creation) use this to fail loudly.
func (e *Env) ParallelRunning() bool { return e.par != nil && e.par.running }

// Sequencing reports whether emissions from e must go through Sequenced
// to appear in deterministic serial order (true only for shard envs of
// an observed partition, during a window).
func (e *Env) Sequencing() bool {
	sh := e.sh
	return sh != nil && sh.logging && sh.co.running
}

// Sequenced runs fn now when e executes serially, or defers it into the
// shard's merge log to run in serial-equivalent order after the parallel
// run. Observers (trace sinks, obs recorders) route their emissions
// through it so output bytes are identical at any worker count.
func (e *Env) Sequenced(fn func()) {
	if sh := e.sh; sh != nil && sh.logging && sh.co.running {
		sh.emit(e.now, fn)
		return
	}
	fn()
}

// SendGroup schedules fn on the shard env dst at now+d. It is the only
// sanctioned cross-group influence under a finite lookahead, and d must
// be >= the partition's lookahead — that bound is what makes the current
// window safe to execute concurrently. Messages are buffered and
// delivered in deterministic (time, sender group, send order) order at
// the next window barrier.
func (e *Env) SendGroup(dst *Env, d Duration, fn func()) {
	sh, dsh := e.sh, dst.sh
	if sh == nil || dsh == nil || sh.co != dsh.co {
		panic("sim: SendGroup needs source and destination shards of one partition")
	}
	co := sh.co
	if co.lookahead <= 0 {
		panic("sim: SendGroup on a partition without a finite lookahead")
	}
	if d < co.lookahead {
		panic(fmt.Sprintf("sim: SendGroup delay %v below partition lookahead %v", d, co.lookahead))
	}
	co.inboxMu.Lock()
	co.inbox = append(co.inbox, inboxMsg{
		dst: dsh.idx,
		at:  e.now + Time(d),
		src: sh.idx,
		seq: sh.sendSeq,
		fn:  fn,
	})
	co.inboxMu.Unlock()
	sh.sendSeq++
}

// parCoord coordinates one partitioned run: window scheduling, the
// worker pool, cross-group delivery, and the deterministic replay.
type parCoord struct {
	root       *Env
	shards     []*Env
	workers    int
	lookahead  Duration
	observed   bool
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

	// inbox buffers SendGroup messages during a window; drained at each
	// barrier. inboxMu is the only lock shards share mid-window.
	inboxMu sync.Mutex
	inbox   []inboxMsg
}

// shardState is the per-shard bookkeeping hung off a shard Env.
type shardState struct {
	co  *parCoord
	idx int

	// pidNext/pidStride implement the shard's strided pid allocator,
	// frozen at the partition's first run (and re-based by
	// GrowPartition): pids for mid-run spawns depend only on this
	// shard's own spawn order.
	pidNext   int
	pidStride int

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
	// sendSeq numbers SendGroup calls from this shard.
	sendSeq int
}

// logRec is one unit of shard execution: a boot segment (timerID -1, one
// proc resumed from the initial FIFO plus everything it ran before
// parking) or a timer block (timer logID fired plus its cascade).
type logRec struct {
	timerID int
	at      Time
	// pushes counts ready pushes observed outside any block — i.e.
	// additional boot-FIFO entries this segment appended (pre-run wakes
	// and Spawns are counted in bootQueue instead).
	pushes int
	emits  []emitRec
	scheds []schedRef
}

type emitRec struct {
	at Time
	fn func()
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

type inboxMsg struct {
	dst int
	at  Time
	src int
	seq int
	fn  func()
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
		sh.newRec(-1, e.now)
	}
	if e.tracer != nil {
		tr, now, id, name := e.tracer, e.now, p.id, p.name
		sh.emit(now, func() { tr.Resume(now, id, name) })
	}
}

// onFire opens a timer-block record for timer t about to fire.
func (sh *shardState) onFire(t *timer) {
	sh.newRec(t.logID, t.at)
	sh.inBlock = true
}

func (sh *shardState) newRec(timerID int, at Time) {
	r := &logRec{timerID: timerID, at: at}
	sh.recs = append(sh.recs, r)
	sh.cur = r
}

// emit defers fn into the current record (or runs it immediately when no
// record is open, which only happens outside runs).
func (sh *shardState) emit(at Time, fn func()) {
	if sh.cur == nil {
		fn()
		return
	}
	sh.cur.emits = append(sh.cur.emits, emitRec{at: at, fn: fn})
}

// nextEventTime reports the earliest instant at which e has work: now if
// procs are ready, else the earliest pending timer (including a stashed
// over-horizon timer). ok=false means e is idle (done, deadlocked, or
// stopped).
func (e *Env) nextEventTime() (Time, bool) {
	if e.stopped {
		return 0, false
	}
	if e.ready.n > 0 {
		return e.now, true
	}
	best, ok := Time(0), false
	if t := e.overHorizon; t != nil {
		best, ok = t.at, true
	}
	if e.timers.len() > 0 {
		if at := e.timers.s[0].at; !ok || at < best {
			best, ok = at, true
		}
	}
	return best, ok
}

// runRoot drives one partitioned run to limit (or completion when
// limit < 0): window loop, barriers, replay, and result folding.
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

	logging := co.observed || root.tracer != nil || (co.observedFn != nil && co.observedFn())
	for _, sh := range co.shards {
		sh.tracer = root.tracer
		sh.sh.logging = logging
	}

	co.running = true
	hitHorizon := false
	for {
		next, ok := co.nextEventTime()
		if !ok {
			break
		}
		if limit >= 0 && next > limit {
			hitHorizon = true
			break
		}
		bound := limit
		if co.lookahead > 0 {
			// Events in [next, next+lookahead) cannot influence another
			// group (SendGroup enforces delay >= lookahead), so every
			// shard may run through next+lookahead-1 concurrently.
			if b := next + Time(co.lookahead) - 1; bound < 0 || b < bound {
				bound = b
			}
		}
		co.runWindow(bound)
		if _, stopped := co.stopState(); stopped {
			break
		}
		co.deliverInbox()
	}
	co.running = false

	if logging {
		co.replay()
	} else {
		co.resetLogs()
	}
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
	live := 0
	for _, sh := range co.shards {
		live += sh.live
	}
	if live > 0 && !hitHorizon {
		return fmt.Errorf("%w at %v\n%s", ErrDeadlock, root.now, co.diagnose())
	}
	return nil
}

// nextEventTime reports the earliest pending event across all shards.
func (co *parCoord) nextEventTime() (Time, bool) {
	best, ok := Time(0), false
	for _, sh := range co.shards {
		if t, shOK := sh.nextEventTime(); shOK && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// runWindow executes every shard with work at or before bound, up to
// workers shards concurrently. Shard runs are mutually independent
// within a window, so execution order cannot affect results; with one
// worker (or one active shard) the goroutine hop is skipped entirely.
func (co *parCoord) runWindow(bound Time) {
	var active []*Env
	for _, sh := range co.shards {
		if t, ok := sh.nextEventTime(); ok && (bound < 0 || t <= bound) {
			active = append(active, sh)
		}
	}
	if co.workers == 1 || len(active) == 1 {
		for _, sh := range active {
			sh.runWindowShard(bound)
		}
		return
	}
	sem := make(chan struct{}, co.workers)
	var wg sync.WaitGroup
	for _, sh := range active {
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			sh.runWindowShard(bound)
			<-sem
		}()
	}
	wg.Wait()
}

func (e *Env) runWindowShard(bound Time) {
	e.running = true
	e.runCore(bound)
	e.running = false
}

// deliverInbox drains cross-group messages at a barrier, scheduling each
// on its destination shard. Sorting by (time, sender, send order) makes
// delivery order — and therefore destination (at, seq) tiebreaks —
// independent of worker interleaving.
func (co *parCoord) deliverInbox() {
	if len(co.inbox) == 0 {
		return
	}
	msgs := co.inbox
	co.inbox = nil
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, m := range msgs {
		co.shards[m.dst].schedFunc(m.at, m.fn)
	}
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

// replay runs the deferred emissions in deterministic order and resets
// the logs.
func (co *parCoord) replay() {
	if co.lookahead > 0 {
		co.replayMerge()
	} else {
		co.replaySerial()
	}
	co.resetLogs()
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

// replaySerial reconstructs the event order of the equivalent serial run
// for non-interacting groups: drain the boot FIFO in global push order,
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
		for _, em := range r.emits {
			em.fn()
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

// replayMerge merges the shards' emission streams by (time, shard
// index) for finite-lookahead partitions, where no serial-equivalent
// order exists. Within a shard, emissions replay in execution order.
func (co *parCoord) replayMerge() {
	type cursor struct{ rec, em int }
	cs := make([]cursor, len(co.shards))
	for {
		best := -1
		var bestAt Time
		for si, sh := range co.shards {
			st := sh.sh
			c := &cs[si]
			for c.rec < len(st.recs) && c.em >= len(st.recs[c.rec].emits) {
				c.rec++
				c.em = 0
			}
			if c.rec >= len(st.recs) {
				continue
			}
			if at := st.recs[c.rec].emits[c.em].at; best < 0 || at < bestAt {
				best, bestAt = si, at
			}
		}
		if best < 0 {
			return
		}
		c := &cs[best]
		co.shards[best].sh.recs[c.rec].emits[c.em].fn()
		c.em++
	}
}
