package core

import (
	"fmt"
	"strings"

	"repro/internal/calib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Observed is implemented by transports that report into an obs
// recorder; core uses it to account its own queue/block points against
// the same registry as the kernel underneath.
type Observed interface {
	Obs() *obs.Recorder
}

// Stats counts run-time package activity for the experiment harness.
type Stats struct {
	RequestsSent    int64
	RepliesSent     int64
	RequestsServed  int64
	UnwantedReplies int64 // replies that arrived with no waiting coroutine
	EnclosuresSent  int64
	EnclosuresRecv  int64
	Aborts          int64
	CancelFailures  int64 // aborted sends the transport could not recall
}

// Process is a LYNX process: an address space with coroutine threads, a
// set of link ends, and a kernel-specific Transport underneath.
type Process struct {
	name  string
	env   *sim.Env
	sp    *sim.Proc
	tr    Transport
	caps  Capabilities
	costs calib.LynxRuntimeCosts

	threads      map[int]*Thread
	readyThreads []*Thread
	nextTID      int
	liveThreads  int

	ends         map[TransEnd]*End
	endOrder     []TransEnd // creation order, for seed-stable exit teardown
	events       eventQueue
	pendingSends map[uint64]*sendRecord
	pendingWakes []pendingWake
	nextSeq      uint64
	nextTag      uint64

	dead  bool
	stats Stats

	rec       *obs.Recorder  // nil when the transport is unobserved
	blockHist *obs.Histogram // proc_block_ns: time parked at the block point
	queueHist *obs.Histogram // queue_wait_ns: request time in an open queue
}

// NewProcess creates a LYNX process whose main thread runs mainFn, and
// schedules it on env. The transport tr must have been created for this
// process. Runtime overhead is charged per costs.
func NewProcess(env *sim.Env, name string, tr Transport, costs calib.LynxRuntimeCosts, mainFn func(*Thread)) *Process {
	pr := &Process{
		name:         name,
		env:          env,
		tr:           tr,
		caps:         TransportCaps(tr),
		costs:        costs,
		threads:      make(map[int]*Thread),
		ends:         make(map[TransEnd]*End),
		pendingSends: make(map[uint64]*sendRecord),
	}
	if o, ok := tr.(Observed); ok {
		pr.rec = o.Obs()
	}
	pr.blockHist = pr.rec.Histogram(obs.MProcBlockNs)
	pr.queueHist = pr.rec.Histogram(obs.MQueueWaitNs)
	pr.events.init(env, "lynx:"+name+".events")
	pr.spawnThread("main", mainFn)
	pr.sp = env.Spawn("lynx:"+name, func(p *sim.Proc) {
		p.OnKill(func() {
			pr.dead = true
			pr.tr.Shutdown()
		})
		pr.dispatch(p)
	})
	// The simproc exists but has not run yet: safe to hand it to the
	// binding before any traffic.
	tr.SetSink(func(ev Event) { pr.events.put(ev) }, pr.sp)
	if sc, ok := tr.(Screened); ok {
		sc.SetScreen(pr.screen)
	}
	return pr
}

// screen is the process's message-screening predicate (see ScreenFunc).
// A reply is wanted if a coroutine awaits that seq — or if the request
// with that seq is still settling (its EvDelivered is queued but not yet
// processed, so the waiter registration is imminent).
func (pr *Process) screen(te TransEnd, kind MsgKind, seq uint64) bool {
	e, ok := pr.ends[te]
	if !ok || e.dead {
		return false
	}
	if kind == KindRequest {
		return e.wantRequests()
	}
	if _, ok := e.replyWaiters[seq]; ok {
		return true
	}
	for _, rec := range e.outReq {
		if rec.msg.Seq == seq && rec.t != nil {
			return true
		}
	}
	return false
}

// Name returns the process name.
func (pr *Process) Name() string { return pr.name }

// Stats returns the run-time package's counters.
func (pr *Process) Stats() *Stats { return &pr.stats }

// Env returns the simulation environment.
func (pr *Process) Env() *sim.Env { return pr.env }

// SimProc returns the underlying simproc (crash injection in tests).
func (pr *Process) SimProc() *sim.Proc { return pr.sp }

// Crash kills the process abruptly: links are destroyed by the kernel
// (transport Shutdown), blocked peers feel exceptions.
func (pr *Process) Crash() { pr.sp.Kill() }

// Dead reports whether the process has terminated or crashed.
func (pr *Process) Dead() bool { return pr.dead || pr.sp.Done() }

// DebugState renders the process's run-time state — live threads with
// their block reasons, pending sends, and per-end queue state — for
// diagnosing a wedged system.
func (pr *Process) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "process %s: dead=%v liveThreads=%d pendingSends=%d ends=%d\n",
		pr.name, pr.dead, pr.liveThreads, len(pr.pendingSends), len(pr.ends))
	for _, t := range pr.threads {
		fmt.Fprintf(&b, "  thread %d (%s): blocked=%v end=%v\n",
			t.id, t.Name(), t.blocked.kind, t.blocked.end)
	}
	for _, e := range pr.ends {
		fmt.Fprintf(&b, "  end %v: dead=%v moving=%v handler=%v outReq=%d outRep=%d owed=%d inReq=%d recvWait=%d replyWait=%d\n",
			e.te, e.dead, e.moving, e.handler != nil, len(e.outReq), len(e.outRep),
			e.owedReplies, len(e.inReq), len(e.recvWaiters), len(e.replyWaiters))
	}
	for tag, rec := range pr.pendingSends {
		fmt.Fprintf(&b, "  pending send tag=%d kind=%v end=%v inFlight=%v detached=%v\n",
			tag, rec.msg.Kind, rec.end.te, rec.inFlight, rec.t == nil)
	}
	return b.String()
}

// spawnThread creates a thread and marks it ready.
func (pr *Process) spawnThread(name string, fn func(*Thread)) *Thread {
	pr.nextTID++
	t := &Thread{
		pr:   pr,
		id:   pr.nextTID,
		name: name,
		fn:   fn,
	}
	pr.threads[t.id] = t
	pr.liveThreads++
	pr.readyThreads = append(pr.readyThreads, t)
	return t
}

// dispatch is the process's main loop, running on its simproc: run ready
// threads to their next block point; when none are ready, this is the
// process's block point — wait for transport events.
func (pr *Process) dispatch(p *sim.Proc) {
	for {
		// Drain any events that arrived while threads were running, so
		// woken threads and fresh messages interleave fairly.
		for {
			ev, ok := pr.events.tryGet()
			if !ok {
				break
			}
			pr.handleEvent(ev)
		}
		pr.flushWakes()
		if len(pr.readyThreads) > 0 {
			t := pr.readyThreads[0]
			pr.readyThreads = pr.readyThreads[0:copy(pr.readyThreads, pr.readyThreads[1:])]
			pr.resumeThread(t)
			continue
		}
		if pr.idle() {
			break
		}
		// Block point: wait for one of the open queues or a completion.
		blockedAt := pr.env.Now()
		ev := pr.events.get(p)
		wait := sim.Duration(pr.env.Now() - blockedAt)
		pr.blockHist.Observe(wait)
		if pr.rec.Active() {
			pr.rec.EmitEnv(pr.env, obs.Event{Kind: obs.KindQueueWait, Src: pr.name, Wait: wait})
		}
		pr.handleEvent(ev)
	}
	pr.dead = true
	// Orderly exit: destroy every still-live end first, so peers get the
	// language's link-destroyed exception through the normal protocol. A
	// silent disappearance would read as a crash on substrates (SODA)
	// whose crash recovery runs expensive searches. Creation order keeps
	// the announcement sequence seed-stable.
	for _, te := range pr.endOrder {
		if e, ok := pr.ends[te]; ok && !e.dead {
			e.dead = true
			pr.tr.Destroy(te)
		}
	}
	pr.tr.Shutdown()
	pr.env.Trace("lynx", "%s exits", pr.name)
}

// idle reports whether the process has no further work and should
// terminate: no live threads and no prospect of new ones (a Serve
// handler on a live end can still spawn threads).
func (pr *Process) idle() bool {
	if pr.liveThreads > 0 {
		return false
	}
	if len(pr.pendingSends) > 0 {
		return false
	}
	for _, e := range pr.ends {
		if e.handler != nil && !e.dead {
			return false
		}
		if len(e.inReq) > 0 {
			return false
		}
	}
	return true
}

// resumeThread hands the processor to t until it blocks or dies.
func (pr *Process) resumeThread(t *Thread) {
	if t.dead {
		return
	}
	if t.co == nil {
		t.co = pr.env.Carrier(t.run)
	}
	if t.co.Resume() {
		pr.env.Recycle(t.co)
		t.co = nil
		pr.liveThreads--
		delete(pr.threads, t.id)
	}
}

// wakeThread schedules t to resume with the given wake value at the next
// dispatch opportunity.
func (pr *Process) wakeThread(t *Thread, w wake) {
	pr.pendingWakes = append(pr.pendingWakes, pendingWake{t: t, w: w})
}

// pendingWake carries a wake value to a parked thread.
type pendingWake struct {
	t *Thread
	w wake
}

// deregisterReceiver removes t from every receive-waiter list it is on
// (a ReceiveAny waiter sits on several ends; once one end wakes it, the
// others must forget it immediately or a second delivery could double-
// wake it).
func (pr *Process) deregisterReceiver(t *Thread) {
	remove := func(e *End) {
		for i, wt := range e.recvWaiters {
			if wt == t {
				e.recvWaiters = append(e.recvWaiters[:i], e.recvWaiters[i+1:]...)
				e.syncInterest()
				return
			}
		}
	}
	if t.blocked.end != nil {
		remove(t.blocked.end)
	}
	for _, e := range t.blocked.multi {
		remove(e)
	}
}

// abortThread implements Thread.Abort and link-death unblocking.
func (pr *Process) abortThread(target *Thread, err error) {
	pr.stats.Aborts++
	b := target.blocked
	switch b.kind {
	case blockSend:
		rec := b.sendRec
		if rec.inFlight {
			if pr.tr.CancelSend(rec.end.te, rec.tag) {
				// Recalled before receipt: detach cleanly.
				pr.finishSend(rec, false)
				pr.unmoveEnclosures(rec)
			} else {
				// The message was (or will be) received anyway — the
				// paper's problem case. Detach the coroutine; the
				// eventual EvDelivered settles the record, and any
				// enclosures travel with the message.
				pr.stats.CancelFailures++
				rec.t = nil
			}
		} else {
			// Still queued locally: just remove it.
			q := rec.end.queueFor(rec.msg.Kind)
			for i, r := range *q {
				if r == rec {
					*q = append((*q)[:i], (*q)[i+1:]...)
					break
				}
			}
			delete(pr.pendingSends, rec.tag)
			pr.unmoveEnclosures(rec)
		}
		rec.end.syncInterest()
		pr.wakeThread(target, wake{err: err})
	case blockReply:
		delete(b.end.replyWaiters, b.seq)
		b.end.syncInterest()
		pr.wakeThread(target, wake{err: err})
	case blockReceive:
		pr.deregisterReceiver(target)
		pr.wakeThread(target, wake{err: err})
	default:
		// Ready or running: deliver at next block point.
		target.abortErr = err
	}
}

// handleEvent applies one transport event to runtime state.
func (pr *Process) handleEvent(ev Event) {
	switch ev.Kind {
	case EvIncoming:
		pr.handleIncoming(ev)
	case EvDelivered:
		rec, ok := pr.pendingSends[ev.Tag]
		if !ok {
			return
		}
		pr.finishSend(rec, true)
	case EvSendFailed:
		rec, ok := pr.pendingSends[ev.Tag]
		if !ok {
			return
		}
		pr.finishSend(rec, false)
		pr.unmoveEnclosures(rec)
		if rec.t != nil {
			err := ev.Err
			if err == nil {
				err = ErrLinkDestroyed
			}
			pr.wakeThread(rec.t, wake{err: err})
			rec.t = nil
		}
	case EvLinkDead:
		e, ok := pr.ends[ev.End]
		if !ok {
			return
		}
		pr.killEnd(e, ev.Err)
	case EvTick:
		// Internal wakeup; the work is in pendingWakes.
	}
	pr.flushWakes()
}

// flushWakes moves pending wakes into the ready queue, attaching each
// wake value to its thread for park to return.
func (pr *Process) flushWakes() {
	for i := range pr.pendingWakes {
		t, w := pr.pendingWakes[i].t, pr.pendingWakes[i].w
		pr.pendingWakes[i] = pendingWake{} // release references
		if t.dead {
			continue
		}
		pr.readyThreads = append(pr.readyThreads, t)
		// Stash the wake value for park to return.
		t.pendingWake = w
	}
	pr.pendingWakes = pr.pendingWakes[:0]
}

// handleIncoming dispatches a wanted message.
func (pr *Process) handleIncoming(ev Event) {
	e, ok := pr.ends[ev.End]
	if !ok {
		// A message for an end we no longer own (it moved away after
		// the transport queued the event). The transport's hints will
		// redirect the sender; drop here.
		return
	}
	m := ev.Msg
	// Charge scatter/type-check cost for accepting the message.
	pr.sp.Delay(sim.Duration(len(m.Data)) * pr.costs.PerByte)
	// Adopt enclosures: the moved ends now belong to this process.
	links := make([]*End, 0, len(m.Encl))
	for _, te := range m.Encl {
		links = append(links, pr.adoptEnd(te))
		pr.stats.EnclosuresRecv++
	}
	switch m.Kind {
	case KindRequest:
		e.owedReplies++
		req := &Request{end: e, op: m.Op, seq: m.Seq, data: m.Data, links: links}
		pr.stats.RequestsServed++
		switch {
		case len(e.recvWaiters) > 0:
			t := e.recvWaiters[0]
			e.recvWaiters = e.recvWaiters[0:copy(e.recvWaiters, e.recvWaiters[1:])]
			pr.deregisterReceiver(t)
			pr.wakeThread(t, wake{val: req})
		case e.handler != nil:
			h := e.handler
			t := pr.spawnThread("serve:", func(t *Thread) {
				h(t, req)
			})
			t.serveOp = m.Op
		default:
			// Queue opened explicitly; a thread will Receive it later.
			e.inReq = append(e.inReq, m)
			e.inReqAt = append(e.inReqAt, pr.env.Now())
		}
		e.syncInterest()
	case KindReply:
		t, ok := e.replyWaiters[m.Seq]
		if !ok {
			// The reply may have overtaken the delivery confirmation of
			// the request it answers: the connector is then still in its
			// send block, registered on a settling record rather than as
			// a replyWaiter (the same window screen() admits). Hold the
			// reply; finishSend delivers it when the record settles.
			for _, rec := range e.outReq {
				if rec.msg.Seq == m.Seq && rec.t != nil {
					if e.earlyReplies == nil {
						e.earlyReplies = make(map[uint64]*Msg)
					}
					e.earlyReplies[m.Seq] = &Msg{Data: m.Data, Links: links, op: m.Op}
					return
				}
			}
			// No coroutine wants this reply (it was aborted). On
			// capable transports the *sender* has already been failed by
			// the binding; here we just account for it and recover any
			// enclosures back to... nobody: they stay adopted by this
			// process (the language calls this situation a program
			// error; the ends are reachable via Stats for the harness).
			pr.stats.UnwantedReplies++
			return
		}
		delete(e.replyWaiters, m.Seq)
		e.syncInterest()
		if t.blocked.kind == blockReply && t.blocked.op != "" && t.blocked.op != m.Op {
			// Operation-name confirmation failure: the reply does not
			// match the request the coroutine made.
			pr.wakeThread(t, wake{err: ErrBadReply})
			return
		}
		reply := &Msg{Data: m.Data, Links: links, op: m.Op}
		pr.wakeThread(t, wake{val: reply})
	}
}

// adoptEnd registers ownership of a transport end that just moved here
// (or returns the existing End if we already track it).
func (pr *Process) adoptEnd(te TransEnd) *End {
	if e, ok := pr.ends[te]; ok {
		e.moving = false
		return e
	}
	e := pr.newEnd(te)
	return e
}

func (pr *Process) newEnd(te TransEnd) *End {
	e := &End{
		pr:           pr,
		te:           te,
		replyWaiters: make(map[uint64]*Thread),
	}
	pr.ends[te] = e
	pr.endOrder = append(pr.endOrder, te)
	return e
}

// finishSend settles a send record: removes it from the pending map and
// the end's queue head, updates move-rule accounting, wakes the sender
// (delivered case), and pumps the next queued message of that kind.
func (pr *Process) finishSend(rec *sendRecord, delivered bool) {
	delete(pr.pendingSends, rec.tag)
	e := rec.end
	q := e.queueFor(rec.msg.Kind)
	for i, r := range *q {
		if r == rec {
			*q = append((*q)[:i], (*q)[i+1:]...)
			break
		}
	}
	if rec.inFlight {
		e.sentUnreceived--
	}
	rec.inFlight = false
	if delivered {
		// Enclosed ends have left this process for good — unless the
		// message travelled a loopback link and adoptEnd already
		// reclaimed the end (its moving flag was cleared on re-adoption).
		for _, enc := range rec.encl {
			if enc.moving {
				delete(pr.ends, enc.te)
			}
		}
		if rec.msg.Kind == KindReply {
			e.owedReplies--
			if rec.t != nil {
				pr.wakeThread(rec.t, wake{})
				rec.t = nil
			}
		}
		// Request senders stay blocked awaiting the reply; transition
		// their block state — unless the reply already overtook this
		// confirmation, in which case hand it over now.
		if rec.msg.Kind == KindRequest && rec.t != nil {
			if reply, ok := e.earlyReplies[rec.msg.Seq]; ok {
				delete(e.earlyReplies, rec.msg.Seq)
				if rec.msg.Op != "" && reply.op != rec.msg.Op {
					pr.wakeThread(rec.t, wake{err: ErrBadReply})
				} else {
					pr.wakeThread(rec.t, wake{val: reply})
				}
				rec.t = nil
			} else {
				rec.t.blocked = blockState{kind: blockReply, end: e, seq: rec.msg.Seq, op: rec.msg.Op}
				e.replyWaiters[rec.msg.Seq] = rec.t
				e.syncInterest()
			}
		}
	}
	if rec.msg.Kind == KindRequest {
		if _, ok := e.earlyReplies[rec.msg.Seq]; ok {
			// Settled without a live waiter (failed send or aborted
			// connector): the held reply is unwanted after all.
			delete(e.earlyReplies, rec.msg.Seq)
			pr.stats.UnwantedReplies++
		}
	}
	pr.pump(e, rec.msg.Kind)
	e.syncInterest()
}

// pump starts the next queued send of the given kind if none is in
// flight.
func (pr *Process) pump(e *End, k MsgKind) {
	if e.dead {
		return
	}
	q := *e.queueFor(k)
	if len(q) == 0 || q[0].inFlight {
		return
	}
	rec := q[0]
	rec.inFlight = true
	e.sentUnreceived++
	if err := pr.tr.StartSend(e.te, rec.msg, rec.tag); err != nil {
		rec.inFlight = false
		e.sentUnreceived--
		pr.finishSend(rec, false)
		pr.unmoveEnclosures(rec)
		if rec.t != nil {
			pr.wakeThread(rec.t, wake{err: err})
			rec.t = nil
		}
	}
}

// unmoveEnclosures releases the moving mark after a failed/aborted send.
func (pr *Process) unmoveEnclosures(rec *sendRecord) {
	for _, enc := range rec.encl {
		if !enc.dead {
			enc.moving = false
		}
	}
}

// killEnd marks an end dead and raises exceptions in every thread
// touching it.
func (pr *Process) killEnd(e *End, cause error) {
	if e.dead {
		return
	}
	if cause == nil {
		cause = ErrLinkDestroyed
	}
	e.dead = true
	e.deadErr = cause
	for _, rec := range append(append([]*sendRecord{}, e.outReq...), e.outRep...) {
		delete(pr.pendingSends, rec.tag)
		pr.unmoveEnclosures(rec)
		if rec.t != nil {
			pr.wakeThread(rec.t, wake{err: cause})
			rec.t = nil
		}
	}
	e.outReq, e.outRep = nil, nil
	for len(e.recvWaiters) > 0 {
		t := e.recvWaiters[0]
		e.recvWaiters = e.recvWaiters[0:copy(e.recvWaiters, e.recvWaiters[1:])]
		// A ReceiveAny waiter keeps waiting while any of its other ends
		// is still alive: only this end's queue died.
		if len(t.blocked.multi) > 0 {
			anyLive := false
			for _, me := range t.blocked.multi {
				if !me.dead {
					anyLive = true
					break
				}
			}
			if anyLive {
				continue
			}
		}
		pr.deregisterReceiver(t)
		pr.wakeThread(t, wake{err: cause})
	}
	for seq, t := range e.replyWaiters {
		delete(e.replyWaiters, seq)
		pr.wakeThread(t, wake{err: cause})
	}
	e.handler = nil
	e.inReq = nil
	e.inReqAt = nil
}
