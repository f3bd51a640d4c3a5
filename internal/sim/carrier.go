//go:build go1.23

package sim

import (
	"iter"
	"runtime"
	"sync"
)

// Carrier is a coroutine that runs one function at a time: the
// execution vehicle of every simproc and of every LYNX thread. Resume
// switches into it and returns when the function suspends or returns;
// Suspend, called while it runs, switches back to whoever resumed it.
// Only one side runs at a time, so a switch is a plain coroutine
// transfer (iter.Pull), with no scheduler round trip and no channel.
//
// Carriers come from one process-wide pool, through the Env that runs
// them: Env.Carrier takes one, and Env.Recycle takes back a carrier
// whose function returned. Each Env keeps the last recycled carrier
// for its next taker — a served request finishes and the next one
// starts on the same carrier — and hands it to the pool when its run
// ends.
type Carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	fn    func()
}

// CarrierPoolCap bounds the idle carriers the pool keeps; surplus
// carriers are stopped, which ends their goroutines. Carriers in use
// are not counted: a run holds one per live simproc and LYNX thread.
const CarrierPoolCap = 256

var carrierPool struct {
	sync.Mutex
	free []*Carrier
}

// Carrier returns an idle carrier — the env's spare, one from the
// pool, or a new one — set to run fn when first resumed.
func (e *Env) Carrier(fn func()) *Carrier {
	c := e.spare
	if c != nil {
		e.spare = nil
	} else {
		c = newCarrier()
	}
	c.fn = fn
	return c
}

// Recycle takes back an idle carrier (its function returned), keeping
// it as the env's spare.
func (e *Env) Recycle(c *Carrier) {
	if e.spare != nil {
		e.spare.release()
	}
	e.spare = c
}

// newCarrier takes an idle carrier from the pool, or creates one.
func newCarrier() *Carrier {
	carrierPool.Lock()
	if n := len(carrierPool.free); n > 0 {
		c := carrierPool.free[n-1]
		carrierPool.free = carrierPool.free[:n-1]
		carrierPool.Unlock()
		return c
	}
	carrierPool.Unlock()
	c := &Carrier{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine body: run the current function, then wait for
// the next one (or for stop).
func (c *Carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.fn()
		c.fn = nil
		if !idle(yield) {
			return
		}
	}
}

// idleFrame is the stack depth an idle carrier waits at. The runtime
// sizes each new goroutine's first stack from the mean depth of the
// stacks the collector scans. Idle carriers waiting at the top of their
// loop would pull that mean to the 2 KB minimum, and every goroutine
// started later (sweep and grid workers, request handlers) would pay a
// stack copy per doubling as it grows; at sweep start-up that cost
// ~15 µs per grid.Run on a 2-vCPU host. Waiting below a frame about as
// deep as a parked simproc's keeps the estimate near what it is for
// running carriers.
const idleFrame = 3 << 10

// idle waits, below an idleFrame-sized frame, until the carrier is
// resumed with a new function (true) or stopped (false).
//
//go:noinline
func idle(yield func(struct{}) bool) bool {
	var frame [idleFrame]byte
	ok := yield(struct{}{})
	runtime.KeepAlive(&frame)
	return ok
}

// Resumes counts an env's carrier resumes. Procs counts the resume
// loop's switches into a simproc; Threads counts switches into a LYNX
// thread's carrier made by the simproc that runs it (ResumeThread).
// Both are pure functions of the run's spec and seed.
type Resumes struct {
	Procs, Threads int64
}

// Resumes reports the carrier resumes so far; a partitioned root
// reports the sum over its shards.
func (e *Env) Resumes() Resumes {
	r := e.resumes
	if e.par != nil {
		for _, sh := range e.par.shards {
			r.Procs += sh.resumes.Procs
			r.Threads += sh.resumes.Threads
		}
	}
	return r
}

// ResumeThread resumes c, the carrier of a thread running on one of the
// env's simprocs, counting it in Resumes().Threads.
func (e *Env) ResumeThread(c *Carrier) (returned bool) {
	e.resumes.Threads++
	return c.Resume()
}

// Resume runs the carrier until its function suspends or returns, and
// reports whether it returned. A panic that escapes the function is
// re-raised here, in the resumer; the carrier is then dead and must
// not be recycled.
func (c *Carrier) Resume() (returned bool) {
	c.next()
	return c.fn == nil
}

// Suspend gives control back to the carrier's resumer. It may be
// called from a carrier nested inside this one — a LYNX thread parking
// the simproc it runs on — in which case the calling coroutine is the
// one that later continues from here.
func (c *Carrier) Suspend() { c.yield(struct{}{}) }

// release returns an idle carrier to the pool.
func (c *Carrier) release() {
	carrierPool.Lock()
	if len(carrierPool.free) < CarrierPoolCap {
		carrierPool.free = append(carrierPool.free, c)
		carrierPool.Unlock()
		return
	}
	carrierPool.Unlock()
	c.stop()
}
