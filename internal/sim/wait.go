package sim

// WaitQueue is a FIFO queue of parked simprocs. It is the basic blocking
// primitive from which kernels build semaphores, message queues, and
// condition variables. All operations must be invoked from scheduler or
// simproc context (the single-runner discipline makes them race-free).
type WaitQueue struct {
	env     *Env
	name    string
	waiters []*Proc
}

// NewWaitQueue creates a named wait queue registered for deadlock
// diagnostics.
func NewWaitQueue(env *Env, name string) *WaitQueue {
	wq := &WaitQueue{env: env, name: name}
	env.allQueues = append(env.allQueues, wq)
	return wq
}

// Name returns the diagnostic label.
func (wq *WaitQueue) Name() string { return wq.name }

// Len reports the number of parked waiters.
func (wq *WaitQueue) Len() int { return len(wq.waiters) }

// Wait parks p until a waker calls Wake/WakeAll/WakeValue. It returns the
// value passed by the waker (nil for plain Wake).
func (wq *WaitQueue) Wait(p *Proc) any {
	p.waitQ = wq
	p.wakeValue = nil
	wq.waiters = append(wq.waiters, p)
	p.park()
	v := p.wakeValue
	p.wakeValue = nil
	return v
}

// Wake readies the oldest waiter. It reports whether a waiter existed.
func (wq *WaitQueue) Wake() bool { return wq.WakeValue(nil) }

// WakeValue readies the oldest waiter, arranging for its Wait to return v.
func (wq *WaitQueue) WakeValue(v any) bool {
	if len(wq.waiters) == 0 {
		return false
	}
	p := wq.waiters[0]
	wq.waiters = wq.waiters[0:copy(wq.waiters, wq.waiters[1:])]
	p.waitQ = nil
	p.wakeValue = v
	// Wake through the proc's own env: a queue created on one env must
	// still ready waiters onto the env that schedules them (relevant
	// when procs live on shard envs of a parallel partition).
	p.env.wake(p)
	return true
}

// WakeAll readies every waiter, preserving FIFO order, and reports how
// many were woken.
func (wq *WaitQueue) WakeAll() int {
	n := len(wq.waiters)
	for wq.WakeValue(nil) {
	}
	return n
}

// remove deletes p from the queue without waking it (Kill path).
func (wq *WaitQueue) remove(p *Proc) {
	for i, w := range wq.waiters {
		if w == p {
			wq.waiters = append(wq.waiters[:i], wq.waiters[i+1:]...)
			p.waitQ = nil
			return
		}
	}
}

// Semaphore is a counting semaphore built on a WaitQueue.
type Semaphore struct {
	wq    *WaitQueue
	count int
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(env *Env, name string, initial int) *Semaphore {
	return &Semaphore{wq: NewWaitQueue(env, name), count: initial}
}

// Acquire decrements the count, parking p while the count is zero.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.wq.Wait(p)
	}
	s.count--
}

// TryAcquire decrements without blocking; reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Release increments the count and wakes one waiter if any.
func (s *Semaphore) Release() {
	s.count++
	s.wq.Wake()
}

// Count reports the current count.
func (s *Semaphore) Count() int { return s.count }

// Queue is an unbounded FIFO of T values with blocking receive; the
// lowest-level message queue of the run-time package and the kernel
// models. Items are stored unboxed, and a head index makes each pop
// O(1) without shifting the backlog.
type Queue[T any] struct {
	wq    *WaitQueue
	items []T
	head  int
}

// NewQueue creates an empty queue.
func NewQueue[T any](env *Env, name string) *Queue[T] {
	return &Queue[T]{wq: NewWaitQueue(env, name)}
}

// Mailbox is a queue of boxed values.
type Mailbox = Queue[any]

// NewMailbox creates an empty mailbox.
func NewMailbox(env *Env, name string) *Mailbox { return NewQueue[any](env, name) }

// Put appends v and wakes one blocked receiver.
func (q *Queue[T]) Put(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Full, with a consumed prefix: slide the backlog down instead
		// of growing the array.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
	q.wq.Wake()
}

// Get removes and returns the oldest value, parking p while empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.head == len(q.items) {
		q.wq.Wait(p)
	}
	return q.pop()
}

// TryGet removes and returns the oldest value without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.head == len(q.items) {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release references held by the slot
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
