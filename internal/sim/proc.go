package sim

import (
	"errors"
	"fmt"
)

// killedPanic is the panic payload delivered to a simproc resumed after
// Kill. The proc wrapper recovers it; user code that must clean up on
// crash may also recover it, re-panicking if the payload is unexpected.
type killedPanic struct{ p *Proc }

func (k killedPanic) Error() string {
	return fmt.Sprintf("sim: proc %d (%s) killed", k.p.id, k.p.name)
}

// ErrProcDone is returned by operations attempted on a finished proc.
var ErrProcDone = errors.New("sim: proc already finished")

// Proc is a simulated process: a function run on a coroutine carrier
// by an Env.
type Proc struct {
	env  *Env
	id   int
	name string
	// co is the carrier the proc runs on, taken at its first dispatch
	// and recycled when its function returns.
	co     *Carrier
	fn     func(p *Proc)
	done   bool
	killed bool

	// Park bookkeeping: at most one of these is active while parked.
	waitQ     *WaitQueue // queue this proc is enqueued on, if any
	sleepTmr  *timer     // pending Delay timer, if any
	onKill    []func()   // LIFO cleanup hooks run when the proc dies killed
	wakeValue any        // value passed by the waker, returned by Wait
}

// ID reports the proc's unique id within its Env (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Name reports the label given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now reports current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Killed reports whether Kill has been called on p.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the proc's function has returned.
func (p *Proc) Done() bool { return p.done }

// run is the carrier body wrapping the user function. A kill unwinds
// to here by panic — also when a LYNX thread borrowing the proc was
// the one parked: the panic leaves the thread's carrier and re-raises
// in the dispatcher that resumed it, which runs on this carrier.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				// Re-panicking here would unwind through the scheduler;
				// surface the panic through Stop so Run returns it.
				p.env.Stop(fmt.Errorf("sim: proc %d (%s) panicked: %v", p.id, p.name, r))
			}
			for i := len(p.onKill) - 1; i >= 0; i-- {
				p.onKill[i]()
			}
		}
		p.done = true
	}()
	// Run immediately on first dispatch — unless the proc was killed
	// before it ever ran (spawned and killed within the same scheduling
	// step, e.g. a helper whose owner exits at spawn time). Kill's
	// ready-queue branch relies on the next resume-from-park to observe
	// the flag, but a never-run proc has no park to resume from: without
	// this check its body would start and could block forever on state
	// its (dead) owner will never advance.
	if p.killed {
		panic(killedPanic{p})
	}
	p.fn(p)
}

// park gives up the processor until woken. The parking proc makes the
// scheduling decision itself: if it is its own successor, park returns
// with no switch at all (the fast path); otherwise it records the
// successor for the resume loop (Env.runCore) and suspends its
// carrier. On wake, if the proc was killed while parked, park panics
// with killedPanic, unwinding the user function (deferred cleanups
// run).
func (p *Proc) park() {
	e := p.env
	if n := e.next(); n != p {
		e.succ = n
		p.co.Suspend()
	}
	if p.killed {
		panic(killedPanic{p})
	}
}

// Yield gives up the processor until the scheduler next reaches this proc
// (same virtual instant; other ready procs run first).
func (p *Proc) Yield() {
	p.env.wake(p)
	p.park()
}

// Delay parks the proc for d of virtual time. Delay(0) still yields.
func (p *Proc) Delay(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sleepTmr = p.env.schedSleep(p.env.now+Time(d), p)
	p.park()
}

// OnKill registers fn to run (LIFO) if the proc dies via Kill. Used by
// kernels to model "process termination destroys its resources".
func (p *Proc) OnKill(fn func()) {
	p.onKill = append(p.onKill, fn)
}

// Kill marks the proc dead. If it is parked, it is woken immediately and
// unwinds with cleanup; if it is currently running it unwinds at its next
// park. Killing a finished proc is a no-op.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	switch {
	case p.waitQ != nil:
		p.waitQ.remove(p)
		p.env.wake(p)
	case p.sleepTmr != nil:
		p.sleepTmr.cancelled = true
		p.sleepTmr = nil
		p.env.wake(p)
	default:
		// Running, or in the ready queue already: it will observe killed
		// at its next resume-from-park. If it is in the ready queue the
		// park() check fires when it is stepped... but a proc in the ready
		// queue is *between* park and resume, so the killed flag is seen
		// when its park() returns. Nothing more to do.
	}
}

// KillAt schedules a Kill at absolute virtual time t (crash injection).
func (p *Proc) KillAt(t Time) {
	p.env.At(t, func() { p.Kill() })
}

// IsKilled reports whether a recovered panic value is the kill signal a
// parked proc receives after Kill. Code that runs on a proc's behalf
// (a LYNX thread borrowing the proc) uses it to tell crash unwinding
// from real panics, and re-panics the kill signal.
func IsKilled(r any) bool {
	_, ok := r.(killedPanic)
	return ok
}
