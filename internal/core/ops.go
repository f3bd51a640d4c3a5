package core

import (
	"fmt"

	"repro/internal/sim"
)

// Msg is a language-level LYNX message: a parameter block plus link ends
// to move. Receipt of a message that encloses ends has the side effect
// of moving those ends from the sending process to the receiver (§2.1).
type Msg struct {
	Data  []byte
	Links []*End
	op    string // set on replies: the confirmed operation name
}

// Op returns the operation name carried by a reply Msg.
func (m *Msg) Op() string { return m.op }

// checkContext panics if the caller is not the running thread
// of its process; the blocking operations below hand the processor
// around and would corrupt state if misused. (Test-only misuse; real
// callers get threads from Fork/Serve.)
func (t *Thread) checkContext() {
	if t.dead {
		panic(ErrProcessDown)
	}
}

// NewLink creates a fresh link with both ends owned by this process —
// typically one end is immediately passed to another process by
// enclosure.
func (t *Thread) NewLink() (*End, *End, error) {
	t.checkContext()
	pr := t.pr
	ta, tb, err := pr.tr.MakeLink()
	if err != nil {
		return nil, nil, err
	}
	return pr.newEnd(ta), pr.newEnd(tb), nil
}

// Destroy destroys the link attached to e. The far end's process feels
// ErrLinkDestroyed on any operation touching its end.
func (t *Thread) Destroy(e *End) error {
	t.checkContext()
	if e.pr != t.pr {
		return ErrNotOwner
	}
	if e.dead {
		return ErrLinkDestroyed
	}
	if e.moving {
		return ErrEndMoving
	}
	err := t.pr.tr.Destroy(e.te)
	t.pr.killEnd(e, ErrLinkDestroyed)
	delete(t.pr.ends, e.te)
	return err
}

// validateEnclosures checks the §2.1 move rules for every enclosed end
// and marks them moving. On error nothing is marked.
func (t *Thread) validateEnclosures(onEnd *End, links []*End) ([]TransEnd, error) {
	pr := t.pr
	tes := make([]TransEnd, 0, len(links))
	for _, enc := range links {
		if enc.pr != pr {
			return nil, ErrNotOwner
		}
		if _, ok := pr.ends[enc.te]; !ok {
			return nil, ErrNotOwner
		}
		if enc == onEnd {
			return nil, fmt.Errorf("lynx: cannot enclose an end of the link it travels on")
		}
		if err := enc.movable(); err != nil {
			return nil, err
		}
		tes = append(tes, enc.te)
	}
	for _, enc := range links {
		enc.moving = true
	}
	return tes, nil
}

// startSend queues a message on the end's stop-and-wait pipeline and
// blocks the thread until the far run-time package receives it (replies)
// or until the reply arrives (requests, handled by caller via the
// blockReply transition in finishSend).
func (t *Thread) startSend(e *End, m *WireMsg, encl []*End) (*sendRecord, error) {
	pr := t.pr
	pr.nextTag++
	rec := &sendRecord{end: e, msg: m, t: t, tag: pr.nextTag, encl: encl}
	pr.pendingSends[rec.tag] = rec
	q := e.queueFor(m.Kind)
	*q = append(*q, rec)
	pr.stats.EnclosuresSent += int64(len(encl))
	// Charge the run-time package's gather/type-check/table overhead.
	t.Delay(pr.costs.PerOperation/2 +
		sim.Duration(len(m.Data))*pr.costs.PerByte +
		sim.Duration(len(encl))*pr.costs.PerEnclosure)
	pr.pump(e, m.Kind)
	return rec, nil
}

// Connect performs a remote operation: it sends a request on e and
// blocks the calling thread until the reply arrives. Link ends in
// msg.Links move to the far process. The process itself keeps running
// other threads meanwhile.
func (t *Thread) Connect(e *End, op string, msg Msg) (*Msg, error) {
	t.checkContext()
	pr := t.pr
	if e.pr != pr {
		return nil, ErrNotOwner
	}
	if e.dead {
		return nil, e.deadError()
	}
	if e.moving {
		return nil, ErrEndMoving
	}
	tes, err := t.validateEnclosures(e, msg.Links)
	if err != nil {
		return nil, err
	}
	pr.nextSeq++
	wm := &WireMsg{Kind: KindRequest, Op: op, Seq: pr.nextSeq, Data: msg.Data, Encl: tes}
	pr.stats.RequestsSent++
	rec, err := t.startSend(e, wm, msg.Links)
	if err != nil {
		return nil, err
	}
	// Sending a request opens the reply queue (§2.1).
	e.syncInterest()
	t.blocked = blockState{kind: blockSend, end: e, sendRec: rec}
	w := t.park()
	if w.err != nil {
		return nil, w.err
	}
	reply, ok := w.val.(*Msg)
	if !ok {
		return nil, fmt.Errorf("lynx: internal: bad wake value %T", w.val)
	}
	return reply, nil
}

// Receive blocks until a request arrives on e and returns it. The end's
// request queue is open while any thread waits in Receive.
func (t *Thread) Receive(e *End) (*Request, error) {
	t.checkContext()
	pr := t.pr
	if e.pr != pr {
		return nil, ErrNotOwner
	}
	if e.dead {
		return nil, e.deadError()
	}
	// A request may already be queued (explicitly-opened queue).
	if len(e.inReq) > 0 {
		m := e.takeQueued()
		links := make([]*End, 0, len(m.Encl))
		for _, te := range m.Encl {
			links = append(links, pr.adoptEnd(te))
		}
		return &Request{end: e, op: m.Op, seq: m.Seq, data: m.Data, links: links}, nil
	}
	e.recvWaiters = append(e.recvWaiters, t)
	e.syncInterest()
	t.blocked = blockState{kind: blockReceive, end: e}
	w := t.park()
	if w.err != nil {
		return nil, w.err
	}
	req, ok := w.val.(*Request)
	if !ok {
		return nil, fmt.Errorf("lynx: internal: bad wake value %T", w.val)
	}
	return req, nil
}

// ReceiveAny blocks until a request arrives on ANY of the given ends and
// returns it — §2.1's block point semantics: "a blocked process waits
// until … an incoming message is available in at least one of its open
// queues. In the latter case, the process chooses a non-empty queue,
// receives that queue's first message, and executes through to the next
// block point." All the listed ends' request queues are open while the
// thread waits.
func (t *Thread) ReceiveAny(ends ...*End) (*Request, error) {
	t.checkContext()
	pr := t.pr
	if len(ends) == 0 {
		return nil, fmt.Errorf("lynx: ReceiveAny with no ends")
	}
	live := 0
	for _, e := range ends {
		if e.pr != pr {
			return nil, ErrNotOwner
		}
		if e.dead {
			continue
		}
		live++
		// Already-queued request? Take the first (fair enough: callers
		// list ends in their preferred order, and arrival order decided
		// what is queued).
		if len(e.inReq) > 0 {
			m := e.takeQueued()
			links := make([]*End, 0, len(m.Encl))
			for _, te := range m.Encl {
				links = append(links, pr.adoptEnd(te))
			}
			return &Request{end: e, op: m.Op, seq: m.Seq, data: m.Data, links: links}, nil
		}
	}
	if live == 0 {
		return nil, ErrLinkDestroyed
	}
	// Register as a waiter on every live end; the first delivery wins
	// and the dispatcher deregisters us from the others.
	for _, e := range ends {
		if !e.dead {
			e.recvWaiters = append(e.recvWaiters, t)
			e.syncInterest()
		}
	}
	t.blocked = blockState{kind: blockReceive, multi: ends}
	w := t.park()
	// Deregister from all ends (the one that woke us already removed us).
	for _, e := range ends {
		for i, wt := range e.recvWaiters {
			if wt == t {
				e.recvWaiters = append(e.recvWaiters[:i], e.recvWaiters[i+1:]...)
				break
			}
		}
		if !e.dead {
			e.syncInterest()
		}
	}
	if w.err != nil {
		return nil, w.err
	}
	req, ok := w.val.(*Request)
	if !ok {
		return nil, fmt.Errorf("lynx: internal: bad wake value %T", w.val)
	}
	return req, nil
}

// Reply answers a received request and blocks the calling thread until
// the client's run-time package has taken the reply (stop-and-wait). On
// transports that support it, ErrUnwantedReply is raised here if the
// requesting coroutine aborted.
func (t *Thread) Reply(req *Request, msg Msg) error {
	t.checkContext()
	pr := t.pr
	e := req.end
	if req.replied {
		return fmt.Errorf("lynx: request %q already replied", req.op)
	}
	if e.dead {
		return e.deadError()
	}
	tes, err := t.validateEnclosures(e, msg.Links)
	if err != nil {
		return err
	}
	req.replied = true
	wm := &WireMsg{Kind: KindReply, Op: req.op, Seq: req.seq, Data: msg.Data, Encl: tes}
	pr.stats.RepliesSent++
	rec, err := t.startSend(e, wm, msg.Links)
	if err != nil {
		return err
	}
	t.blocked = blockState{kind: blockSend, end: e, sendRec: rec}
	w := t.park()
	return w.err
}

// Serve registers a handler for requests on e: each incoming request
// spawns a fresh thread running h, the LYNX entry-procedure model. Pass
// nil to deregister (closing the queue if nothing else holds it open).
func (pr *Process) ServeEnd(e *End, h Handler) error {
	if e.pr != pr {
		return ErrNotOwner
	}
	if e.dead {
		return e.deadError()
	}
	e.handler = h
	e.syncInterest()
	return nil
}

// Serve is the thread-context form of ServeEnd.
func (t *Thread) Serve(e *End, h Handler) error {
	t.checkContext()
	return t.pr.ServeEnd(e, h)
}

// OpenRequests opens e's request queue without a pending Receive; a
// matching CloseRequests revokes it. Arrived-but-unclaimed requests wait
// in the queue for a later Receive. This is the explicit open/close
// control of §2.1 (and the source of Charlotte's failed-Cancel traffic).
func (t *Thread) OpenRequests(e *End) error {
	t.checkContext()
	if e.pr != t.pr {
		return ErrNotOwner
	}
	if e.dead {
		return e.deadError()
	}
	e.explicitOpen = true
	e.syncInterest()
	return nil
}

// CloseRequests closes an explicitly-opened request queue.
func (t *Thread) CloseRequests(e *End) error {
	t.checkContext()
	if e.pr != t.pr {
		return ErrNotOwner
	}
	e.explicitOpen = false
	e.syncInterest()
	return nil
}

// AdoptBootEnd registers a transport end that was assigned to this
// process before it started (boot-time wiring: the way a LYNX process is
// born holding the link ends its loader gave it) and returns the
// language-level End.
func (t *Thread) AdoptBootEnd(te TransEnd) *End {
	t.checkContext()
	return t.pr.adoptEnd(te)
}

// deadError returns the recorded cause of death.
func (e *End) deadError() error {
	if e.deadErr != nil {
		return e.deadErr
	}
	return ErrLinkDestroyed
}
