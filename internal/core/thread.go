package core

import (
	"fmt"

	"repro/internal/sim"
)

// Thread is a LYNX thread of control: a coroutine within a process.
// Threads execute in mutual exclusion — exactly one thread (or the
// process's dispatcher) runs at a time, and control changes hands only
// at well-defined block points — mirroring §2's "threads execute in
// mutual exclusion and may be managed by the language run-time package,
// much like the coroutines of Modula-2".
//
// Each thread runs on its own coroutine carrier (sim.Carrier), which
// the dispatcher resumes; control returns when the thread blocks or
// returns. While it runs, a thread borrows the process's simproc: a
// Delay or kernel call that parks the simproc suspends the simproc's
// carrier from inside the thread's.
//
// All Thread methods must be called from the thread's own code while it
// is the running thread.
type Thread struct {
	pr *Process
	id int
	// name is the label given at Fork. A serve thread's is "serve:"
	// plus serveOp, joined only when a name is asked for.
	name    string
	serveOp string
	fn      func(*Thread)
	// serve, when set instead of fn, is the handler a serve thread
	// runs on req, the request it was spawned for. The thread owns the
	// Request: the handler's *Request points into it, so one object
	// carries both for as long as anyone holds either.
	serve Handler
	req   Request
	co    *sim.Carrier
	dead  bool
	// abortErr, when set by Abort, is delivered at the thread's next
	// (or current) block point.
	abortErr error
	// blocked describes what the thread is waiting on, for diagnostics
	// and for Abort to find and detach the waiter registration.
	blocked blockState
	// pendingWake carries the wake value attached by flushWakes until
	// park returns it.
	pendingWake wake
}

// wake is what a parked thread receives on resumption.
type wake struct {
	val any
	err error
}

// blockState records why a thread is parked.
type blockState struct {
	kind    blockKind
	end     *End
	sendRec *sendRecord // kind == blockSend
	seq     uint64      // kind == blockReply
	op      string      // kind == blockReply: expected operation name
	multi   []*End      // kind == blockReceive via ReceiveAny
}

type blockKind int

const (
	blockNone    blockKind = iota
	blockSend              // awaiting delivery of a sent message
	blockReply             // awaiting a reply to a delivered request
	blockReceive           // awaiting an incoming request
	blockSleep             // in Thread.Sleep
)

// ID returns the thread id (unique within its process).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's label.
func (t *Thread) Name() string { return t.name + t.serveOp }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.pr }

// park gives the processor back to the dispatcher and blocks until the
// dispatcher reschedules this thread, returning the wake value. If an
// abort is pending it is delivered here.
func (t *Thread) park() wake {
	t.co.Suspend()
	w := t.pendingWake
	t.pendingWake = wake{}
	if t.abortErr != nil && w.err == nil {
		w.err = t.abortErr
		t.abortErr = nil
	}
	t.blocked = blockState{}
	return w
}

// Yield voluntarily gives other threads (and incoming messages) a chance
// to run; the thread continues afterwards. This is a block point.
func (t *Thread) Yield() {
	t.pr.readyThreads = append(t.pr.readyThreads, t)
	t.park()
}

// Delay charges d of virtual compute time to the process while this
// thread runs (the thread keeps the processor; this is NOT a block
// point — other threads do not run, per the mutual exclusion rule).
func (t *Thread) Delay(d sim.Duration) {
	t.pr.sp.Delay(d)
}

// Sleep blocks this thread for d of virtual time. Unlike Delay, this IS
// a block point: other threads (and incoming messages) run meanwhile.
// It returns early with an error only if the thread is aborted.
func (t *Thread) Sleep(d sim.Duration) error {
	pr := t.pr
	th := t
	pr.env.After(d, func() {
		pr.wakeThread(th, wake{})
		pr.events.Put(Event{Kind: EvTick})
	})
	t.blocked = blockState{kind: blockSleep}
	w := t.park()
	return w.err
}

// SleepUntil blocks this thread until absolute virtual time at (or
// returns immediately if at is not in the future). Like Sleep it is a
// block point; unlike Sleep it cannot drift — a generator thread that
// does work between wakeups still wakes exactly on its schedule, which
// is what open-loop arrival processes need.
func (t *Thread) SleepUntil(at sim.Time) error {
	if at <= t.Now() {
		return nil
	}
	pr := t.pr
	th := t
	pr.env.At(at, func() {
		pr.wakeThread(th, wake{})
		pr.events.Put(Event{Kind: EvTick})
	})
	t.blocked = blockState{kind: blockSleep}
	w := t.park()
	return w.err
}

// Now reports current virtual time.
func (t *Thread) Now() sim.Time { return t.pr.sp.Now() }

// Fork creates a new thread running fn, scheduled after the current
// thread next blocks. It returns the new thread.
func (t *Thread) Fork(name string, fn func(*Thread)) *Thread {
	return t.pr.spawnThread(name, fn)
}

// Abort delivers an asynchronous exception to another thread of the same
// process: if target is blocked, it is unblocked with ErrAborted (its
// pending operation is cancelled as far as the transport allows); if it
// is ready or running, the exception surfaces at its next block point.
// Aborting yourself or a dead thread is a no-op. This models LYNX's
// local exceptions aborting a waiting coroutine (§3.2.1 scenario c).
func (t *Thread) Abort(target *Thread) {
	if target == t || target.dead {
		return
	}
	t.pr.abortThread(target, ErrAborted)
}

// run is the carrier body of a thread.
func (t *Thread) run() {
	defer func() {
		if r := recover(); r != nil {
			if sim.IsKilled(r) {
				// The whole process was killed while this thread had its
				// simproc parked: unwind on into the dispatcher, which
				// resumed this carrier and runs on the simproc's.
				panic(r)
			}
			t.pr.env.Stop(fmt.Errorf("lynx: process %s thread %d (%s) panicked: %v",
				t.pr.name, t.id, t.Name(), r))
		}
		t.dead = true
	}()
	if t.abortErr != nil {
		return // aborted before it ever ran
	}
	if t.serve != nil {
		t.serve(t, &t.req)
		return
	}
	t.fn(t)
}
