// Package soda reimplements Kepecs & Solomon's SODA ("Simplified
// Operating system for Distributed Applications") kernel as described in
// §4 of the paper, running on the sim/netsim substrate.
//
// SODA is better described as a communications protocol for a broadcast
// medium with many single-process nodes. Each node pairs a client
// processor with a kernel processor; we model the pair as one simulated
// process whose kernel costs are charged in virtual time.
//
// The interface is the paper's:
//
//   - every process has a unique id and *advertises* names it will
//     respond to; a kernel call generates names unique over space & time;
//   - *discover* uses unreliable broadcast to find a process advertising
//     a given name;
//   - processes do not send messages: they *request a transfer* (name,
//     process id, small out-of-band data, bytes-to-send, bytes-willing-
//     to-receive) — put/get/signal/exchange by which counts are zero;
//   - the target feels a *software interrupt* (single handler, maskable)
//     describing the request, and may *accept* it at any later time,
//     completing the transfer in both directions at once;
//   - completion interrupts are queued while the handler is closed;
//     requests for unadvertised names are delayed and retried by the
//     requesting kernel; a crash interrupt is delivered if the target
//     dies first.
package soda

import (
	"fmt"
	"sort"

	"repro/internal/calib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ProcID identifies a SODA process (equivalently, its node).
type ProcID int

// Name is a capability-like identifier, unique over space and time.
type Name uint64

// OOB is the small out-of-band datum carried by requests and accepts.
// SODA leaves its size unspecified but small; the paper's LYNX design
// wants at least 48 bits, so we provide exactly 48 (enforcing the
// scarcity that §4.2.1 worries about).
type OOB [6]byte

// OOBFromUint64 packs the low 48 bits of v into an OOB.
func OOBFromUint64(v uint64) OOB {
	var o OOB
	for i := 0; i < 6; i++ {
		o[i] = byte(v >> (8 * i))
	}
	return o
}

// Uint64 unpacks the OOB into the low 48 bits of a uint64.
func (o OOB) Uint64() uint64 {
	var v uint64
	for i := 0; i < 6; i++ {
		v |= uint64(o[i]) << (8 * i)
	}
	return v
}

// Status is the result of a SODA kernel call.
type Status int

// Kernel call status codes.
const (
	OK Status = iota
	// NoSuchProc: the target id names no live process.
	NoSuchProc
	// DeadProc: the target died (also delivered via crash interrupts).
	DeadProc
	// TooManyRequests: the per-pair outstanding-request limit would be
	// exceeded (§4.2.1's "unspecified constant").
	TooManyRequests
	// NoSuchRequest: Accept named an unknown or already-accepted request.
	NoSuchRequest
	// NotFound: Discover failed to find an advertiser.
	NotFound
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case NoSuchProc:
		return "NO_SUCH_PROC"
	case DeadProc:
		return "DEAD_PROC"
	case TooManyRequests:
		return "TOO_MANY_REQUESTS"
	case NoSuchRequest:
		return "NO_SUCH_REQUEST"
	case NotFound:
		return "NOT_FOUND"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ReqID identifies an outstanding request.
type ReqID int64

// Kind classifies a request by its transfer directions.
type Kind int

// Request kinds. The kind is implied by which byte counts are nonzero:
// put sends, get receives, signal does neither, exchange does both.
const (
	Signal Kind = iota
	Put
	Get
	Exchange
)

func (k Kind) String() string {
	switch k {
	case Signal:
		return "signal"
	case Put:
		return "put"
	case Get:
		return "get"
	default:
		return "exchange"
	}
}

// KindOf derives the kind from the requested transfer sizes.
func KindOf(sendBytes, recvBytes int) Kind {
	switch {
	case sendBytes > 0 && recvBytes > 0:
		return Exchange
	case sendBytes > 0:
		return Put
	case recvBytes > 0:
		return Get
	default:
		return Signal
	}
}

// Interrupt is a software interrupt delivered to a process's handler.
type Interrupt struct {
	// Kind of interrupt.
	IKind IntKind
	// Req identifies the request this interrupt concerns.
	Req ReqID
	// From is the peer process (requester for IntRequest, accepter for
	// IntCompletion, the dead process for IntCrash).
	From ProcID
	// Name is the advertised name the request specified (IntRequest).
	Name Name
	// OOB carries the request's or accept's out-of-band data.
	OOB OOB
	// Kind of the underlying request (IntRequest).
	ReqKind Kind
	// SendBytes/RecvBytes are the requester's declared sizes (IntRequest).
	SendBytes, RecvBytes int
	// Data is the payload received by this process in the completed
	// transfer (IntCompletion only; nil otherwise).
	Data []byte
	// Sent is how many bytes this process's outgoing payload actually
	// transferred (IntCompletion).
	Sent int
}

// IntKind classifies interrupts.
type IntKind int

// Interrupt kinds.
const (
	IntRequest IntKind = iota
	IntCompletion
	IntCrash
)

func (k IntKind) String() string {
	switch k {
	case IntRequest:
		return "request"
	case IntCompletion:
		return "completion"
	default:
		return "crash"
	}
}

// Handler receives software interrupts. Handlers run in scheduler
// context and must not block; they typically record state and wake a
// waiting simproc.
type Handler func(Interrupt)

// charge spends CPU time on the calling simproc. Kernel calls made from
// interrupt-handler context pass a nil proc: the kernel processor does
// the work asynchronously and no client CPU is charged.
func charge(p *sim.Proc, d sim.Duration) {
	if p != nil {
		p.Delay(d)
	}
}

// Stats is a snapshot of kernel activity for the experiment harness,
// computed on demand from the kernel's obs metrics.
type Stats struct {
	Requests   int64
	Accepts    int64
	Interrupts int64
	Discovers  int64
	Broadcasts int64
	Retries    int64
	Bytes      int64
}

// Kernel is the SODA network: the set of kernel processors and the bus.
//
// For conservative parallel runs the kernel is split into groups
// (Partition): each group owns a shard env, a bus segment, strided id
// allocators, and an overlay process map, so processes of different
// groups share no mutable kernel state mid-run. Processes registered
// before partitioning stay in the shared boot map, which is read-only
// from then on. A request addressed across groups fails with
// NoSuchProc — partition groups are connected components of the boot
// wiring, so no correct program crosses them.
type Kernel struct {
	env   *sim.Env
	bus   *netsim.CSMABus
	costs calib.SODACosts

	procs map[ProcID]*Process // boot map; read-only once partitioned

	def    *kgroup   // the unpartitioned group (boot allocator)
	groups []*kgroup // non-nil after Partition

	rec *obs.Recorder
	// Counter handles, resolved once at construction so the hot paths
	// skip the registry's name lookup.
	cRequests, cAccepts, cInterrupts, cDiscovers, cBroadcasts, cRetries, cBytes *obs.Counter
	// PairLimit is the maximum outstanding requests between an ordered
	// pair of processes (§4.2.1). Zero means unlimited.
	PairLimit int
}

// kgroup is one partition group of the kernel: the shard env its
// processes run on, the bus segment they transmit over, an overlay map
// for processes registered mid-run, and strided id allocators whose
// output depends only on this group's own call order.
type kgroup struct {
	k   *Kernel
	idx int // -1 for the default (unpartitioned) group
	env *sim.Env
	bus *netsim.CSMABus

	procs    map[ProcID]*Process // == k.procs for the default group
	nextProc ProcID
	nextName uint64
	nextReq  ReqID
	stride   int
}

// findProc resolves a process id against the group overlay, then the
// shared boot map. The caller checks group membership before touching
// any mutable field of the result.
func (g *kgroup) findProc(id ProcID) (*Process, bool) {
	if p, ok := g.procs[id]; ok {
		return p, true
	}
	if g.idx >= 0 {
		p, ok := g.k.procs[id]
		return p, ok
	}
	return nil, false
}

// NewKernel creates a SODA kernel over the given bus.
func NewKernel(env *sim.Env, bus *netsim.CSMABus, costs calib.SODACosts) *Kernel {
	k := &Kernel{
		env:       env,
		bus:       bus,
		costs:     costs,
		procs:     make(map[ProcID]*Process),
		rec:       obs.NewRecorder(env, "soda"),
		PairLimit: 8,
	}
	k.def = &kgroup{k: k, idx: -1, env: env, bus: bus, procs: k.procs, nextProc: 1, nextName: 1, nextReq: 1, stride: 1}
	// Create every instrument touched mid-run up front: the metrics
	// registry is unlocked, so lazily inserting from concurrently
	// executing groups would race on the name map.
	k.cRequests = k.rec.Counter(obs.MKernelRequests)
	k.cAccepts = k.rec.Counter(obs.MKernelAccepts)
	k.cInterrupts = k.rec.Counter(obs.MKernelInterrupts)
	k.cDiscovers = k.rec.Counter(obs.MKernelDiscovers)
	k.cBroadcasts = k.rec.Counter(obs.MKernelBroadcasts)
	k.cRetries = k.rec.Counter(obs.MKernelRetries)
	k.cBytes = k.rec.Counter(obs.MKernelBytes)
	return k
}

// Partition splits the kernel into one group per shard env for a
// conservative parallel run: group i's processes run on envs[i] and
// transmit over buses[i] (its per-group medium segment). Ids allocated
// from here on are strided per group, so mid-run NewName/Request/
// NewProcessIn stay deterministic at any worker count. Call before the
// run starts, then AssignGroup every process.
func (k *Kernel) Partition(envs []*sim.Env, buses []*netsim.CSMABus) {
	if len(envs) != len(buses) {
		panic("soda: Partition needs one bus segment per shard env")
	}
	if k.groups != nil {
		panic("soda: Partition called twice")
	}
	stride := len(envs)
	k.groups = make([]*kgroup, stride)
	for i := range envs {
		k.groups[i] = &kgroup{
			k: k, idx: i, env: envs[i], bus: buses[i],
			procs:    make(map[ProcID]*Process),
			nextProc: k.def.nextProc + ProcID(i),
			nextName: k.def.nextName + uint64(i),
			nextReq:  k.def.nextReq + ReqID(i),
			stride:   stride,
		}
	}
}

// transmit charges one request/accept frame on the bus and schedules
// deliver at its arrival instant, consulting the bus's fault hook (if
// any) for the frame's fate. pre is the kernel path cost before the
// wire and post the cost after it (copy loops, interrupt dispatch);
// both are charged once regardless of retries. A dropped frame is
// resent after the kernel's RetryInterval — the same periodic retry
// SODA's kernel already uses for parked requests — and is re-judged by
// the hook on each attempt, so a healed partition lets the retry
// through. While a request frame is lost the requester still observes
// ReqInFlight, so bindings keep waiting instead of misreading the loss
// as a stale hint. A duplicated frame charges the bus for the ghost
// copy at delivery; the kernel discards the duplicate (request and
// completion handling are idempotent), so only bandwidth is lost. With
// no hook installed the path is byte-identical to SendTime + After.
func (g *kgroup) transmit(src, dst netsim.NodeID, nbytes int, pre, post sim.Duration, deliver func()) {
	wire := g.bus.SendTime(g.env.Now(), src, dst, nbytes)
	if h := g.bus.FaultHook(); h != nil {
		v := h.Frame(g.env.Now(), src, dst, nbytes, wire, false)
		if v.Drop {
			g.env.After(pre+g.k.costs.RetryInterval, func() { g.transmit(src, dst, nbytes, 0, post, deliver) })
			return
		}
		wire += v.Extra
		if v.Dup {
			g.env.After(pre+wire+post, func() {
				g.bus.SendTime(g.env.Now(), src, dst, nbytes) // ghost copy occupies the bus
				deliver()
			})
			return
		}
	}
	g.env.After(pre+wire+post, deliver)
}

// Env returns the simulation environment.
func (k *Kernel) Env() *sim.Env { return k.env }

// Obs returns the kernel's observability recorder; the binding shares
// it, and sinks attach to it.
func (k *Kernel) Obs() *obs.Recorder { return k.rec }

// Stats returns a snapshot of the kernel's counters.
func (k *Kernel) Stats() *Stats {
	m := k.rec.Metrics()
	return &Stats{
		Requests:   m.Value(obs.MKernelRequests),
		Accepts:    m.Value(obs.MKernelAccepts),
		Interrupts: m.Value(obs.MKernelInterrupts),
		Discovers:  m.Value(obs.MKernelDiscovers),
		Broadcasts: m.Value(obs.MKernelBroadcasts),
		Retries:    m.Value(obs.MKernelRetries),
		Bytes:      m.Value(obs.MKernelBytes),
	}
}

// eventKind maps a request kind onto its typed event kind.
func eventKind(k Kind) obs.Kind {
	switch k {
	case Put:
		return obs.KindPut
	case Get:
		return obs.KindGet
	case Exchange:
		return obs.KindExchange
	default:
		return obs.KindSignal
	}
}

// DataDelay reports how long n bytes of accepted payload take to become
// usable at the receiving client processor: kernel copy plus bus
// serialization. Bindings use it to defer message visibility to match
// the physical transfer the kernel charges on the completion path.
func (k *Kernel) DataDelay(n int) sim.Duration {
	wirePerByte := sim.Duration(8 * int64(sim.Second) / k.bus.BitRate)
	return sim.Duration(n) * (k.costs.PerByte + wirePerByte)
}

// LiveIDs returns the ids of all live processes in ascending order.
// SODA "makes it easy to guess their ids"; the freeze protocol needs
// this. On a partitioned kernel use Process.LiveIDs, which scopes the
// scan to the caller's group.
func (k *Kernel) LiveIDs() []ProcID {
	return k.def.liveIDs(nil)
}

// LiveIDs returns the ids of all live processes in this process's
// partition group, ascending. Groups are connected components of the
// boot wiring, so the group is "every process in existence" as far as
// any protocol of pr's can observe.
func (pr *Process) LiveIDs() []ProcID {
	return pr.g.liveIDs(pr.g)
}

// liveIDs scans the boot map plus the group overlay for live processes
// of group want (nil: no membership filter), ascending by id.
func (g *kgroup) liveIDs(want *kgroup) []ProcID {
	var ids []ProcID
	for id, p := range g.k.procs {
		if (want == nil || p.g == want) && !p.dead {
			ids = append(ids, id)
		}
	}
	if g.idx >= 0 {
		for id, p := range g.procs {
			if (want == nil || p.g == want) && !p.dead {
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// request is the kernel-side record of an outstanding request.
type request struct {
	id        ReqID
	from, to  ProcID
	name      Name
	oob       OOB
	data      []byte // requester's outgoing payload
	recvBytes int    // requester's willingness to receive
	arrived   bool   // request frame has crossed the bus to the target
	delivered bool   // interrupt raised at target (name was advertised)
	accepted  bool
	withdrawn bool
}

// Process is one SODA node: client processor + kernel processor.
type Process struct {
	k          *Kernel
	g          *kgroup
	id         ProcID
	node       netsim.NodeID
	advertised map[Name]bool
	handler    Handler
	open       bool
	queue      []Interrupt // interrupts queued while closed
	// inbound: requests addressed to this process, by id.
	inbound map[ReqID]*request
	// outbound: requests this process posted, by id.
	outbound map[ReqID]*request
	dead     bool
}

// NewProcess registers a process on the given node with its interrupt
// handler initially open.
func (k *Kernel) NewProcess(node netsim.NodeID) *Process {
	return newProcessIn(k.def, node)
}

// NewProcessIn registers a process directly in partition group g: the
// home-group placement for processes launched after the run has
// started. Its id comes from the group's strided allocator.
func (k *Kernel) NewProcessIn(g int, node netsim.NodeID) *Process {
	return newProcessIn(k.groups[g], node)
}

func newProcessIn(g *kgroup, node netsim.NodeID) *Process {
	pr := &Process{
		k:          g.k,
		g:          g,
		id:         g.nextProc,
		node:       node,
		advertised: make(map[Name]bool),
		open:       true,
		inbound:    make(map[ReqID]*request),
		outbound:   make(map[ReqID]*request),
	}
	g.nextProc += ProcID(g.stride)
	g.procs[pr.id] = pr
	return pr
}

// AssignGroup moves a boot-registered process into partition group g.
// Call after Kernel.Partition, before the run starts.
func (pr *Process) AssignGroup(g int) { pr.g = pr.k.groups[g] }

// Group returns the index of the process's partition group (-1 when
// unpartitioned).
func (pr *Process) Group() int { return pr.g.idx }

// ID returns the process id.
func (pr *Process) ID() ProcID { return pr.id }

// Node returns the process's node.
func (pr *Process) Node() netsim.NodeID { return pr.node }

// NewName generates a name unique over space and time.
func (pr *Process) NewName(p *sim.Proc) Name {
	n := pr.g.nextName
	pr.g.nextName += uint64(pr.g.stride)
	charge(p, pr.k.costs.ClientCall) // cheap local kernel call
	return Name(n)
}

// Advertise begins responding to a name. Requests that were delayed
// waiting for the advertisement are delivered now.
func (pr *Process) Advertise(p *sim.Proc, n Name) {
	charge(p, pr.k.costs.ClientCall)
	pr.advertised[n] = true
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindMark, Proc: int(pr.id),
			Detail: fmt.Sprintf("advertise %d", n),
		})
	}
	for _, r := range pr.pendingFor(n) {
		pr.k.cRetries.Inc()
		pr.deliverRequest(r)
	}
}

// Unadvertise stops responding to a name.
func (pr *Process) Unadvertise(p *sim.Proc, n Name) {
	charge(p, pr.k.costs.ClientCall)
	delete(pr.advertised, n)
}

// Advertises reports whether the process currently advertises n.
func (pr *Process) Advertises(n Name) bool { return pr.advertised[n] }

// pendingFor returns undelivered inbound requests naming n, oldest
// first (ascending request id; ids order by posting time within a
// group, and all of a process's inbound traffic is one group's).
func (pr *Process) pendingFor(n Name) []*request {
	var rs []*request
	for _, id := range pr.inboundIDs() {
		// Only frames that have physically arrived: an Advertise must not
		// deliver a request still serializing onto the bus.
		if r := pr.inbound[id]; r.arrived && !r.delivered && !r.accepted && r.name == n {
			rs = append(rs, r)
		}
	}
	return rs
}

// inboundIDs returns the keys of pr.inbound in ascending order.
func (pr *Process) inboundIDs() []ReqID {
	ids := make([]ReqID, 0, len(pr.inbound))
	for id := range pr.inbound {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SetHandler installs the single software-interrupt handler.
func (pr *Process) SetHandler(h Handler) { pr.handler = h }

// CloseHandler masks interrupts; they queue until OpenHandler.
func (pr *Process) CloseHandler() { pr.open = false }

// OpenHandler unmasks interrupts and flushes the queue in arrival order.
func (pr *Process) OpenHandler() {
	pr.open = true
	for len(pr.queue) > 0 && pr.open {
		ir := pr.queue[0]
		pr.queue = pr.queue[0:copy(pr.queue, pr.queue[1:])]
		pr.raise(ir)
	}
}

// HandlerOpen reports the mask state.
func (pr *Process) HandlerOpen() bool { return pr.open }

// raise delivers an interrupt to the handler, or queues it while masked.
func (pr *Process) raise(ir Interrupt) {
	if pr.dead {
		return
	}
	if !pr.open || pr.handler == nil {
		pr.queue = append(pr.queue, ir)
		return
	}
	if ir.IKind == IntCompletion {
		// The transfer's bookkeeping ends only now that the requester
		// actually sees the completion (see Accept).
		delete(pr.outbound, ir.Req)
	}
	pr.k.cInterrupts.Inc()
	pr.handler(ir)
}

// Request posts a transfer request to process `to` under advertised name
// `name`. data is what the requester wants to send (put/exchange);
// recvBytes is how much it is willing to receive (get/exchange). The
// request id is returned immediately; completion (or crash) arrives as an
// interrupt. The requesting user can proceed meanwhile.
func (pr *Process) Request(p *sim.Proc, to ProcID, name Name, oob OOB, data []byte, recvBytes int) (ReqID, Status) {
	charge(p, pr.k.costs.ClientCall)
	pr.k.cRequests.Inc()
	target, ok := pr.g.findProc(to)
	if !ok || target.g != pr.g {
		// A target outside the partition group is unreachable: groups are
		// connected components of the boot wiring, and its state belongs
		// to a concurrently executing shard. (Membership is checked before
		// any mutable field of target is read.)
		return 0, NoSuchProc
	}
	if target.dead {
		return 0, DeadProc
	}
	if lim := pr.k.PairLimit; lim > 0 {
		n := 0
		for _, r := range pr.outbound {
			if r.to == to && !r.accepted {
				n++
			}
		}
		if n >= lim {
			return 0, TooManyRequests
		}
	}
	rid := pr.g.nextReq
	pr.g.nextReq += ReqID(pr.g.stride)
	buf := make([]byte, len(data))
	copy(buf, data)
	r := &request{
		id: rid, from: pr.id, to: to, name: name,
		oob: oob, data: buf, recvBytes: recvBytes,
	}
	pr.outbound[r.id] = r
	target.inbound[r.id] = r

	// The request descriptor crosses the bus (a small frame).
	k := pr.k
	pr.g.transmit(pr.node, target.node, 32, k.costs.RequestPath, k.costs.InterruptDelivery, func() {
		if r.withdrawn || r.accepted || target.dead {
			return
		}
		r.arrived = true
		if target.advertised[r.name] {
			target.deliverRequest(r)
		}
		// Else: parked; Advertise will deliver it (the kernel's
		// periodic retry, modeled without the bus traffic).
	})
	if k.rec.Active() {
		k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: eventKind(KindOf(len(data), recvBytes)),
			Proc: int(pr.id), Peer: int(to), Seq: uint64(r.id), Bytes: len(buf),
			Detail: fmt.Sprintf("name=%d recv=%d", name, recvBytes),
		})
	}
	return r.id, OK
}

// deliverRequest raises the request interrupt at the target.
func (pr *Process) deliverRequest(r *request) {
	r.delivered = true
	pr.raise(Interrupt{
		IKind: IntRequest, Req: r.id, From: r.from, Name: r.name,
		OOB: r.oob, ReqKind: KindOf(len(r.data), r.recvBytes),
		SendBytes: len(r.data), RecvBytes: r.recvBytes,
	})
}

// Accept completes a previously posted request. data is what the
// accepter sends back toward the requester (bounded by the requester's
// recvBytes); recvBytes is how much of the requester's payload the
// accepter takes (bounded by what was sent). The transfer happens in
// both directions simultaneously; the requester feels a completion
// interrupt carrying oob. Accepting does not block the accepter.
func (pr *Process) Accept(p *sim.Proc, id ReqID, oob OOB, data []byte, recvBytes int) (got []byte, st Status) {
	charge(p, pr.k.costs.ClientCall)
	r, ok := pr.inbound[id]
	if !ok || r.accepted {
		return nil, NoSuchRequest
	}
	requester, ok := pr.g.findProc(r.from)
	if !ok || requester.dead {
		delete(pr.inbound, id)
		return nil, DeadProc
	}
	r.accepted = true
	delete(pr.inbound, id)
	// The requester's outbound entry survives (marked accepted) until its
	// completion interrupt is actually dispatched: RequestDelivered must
	// keep answering true across the accept→interrupt window, or a hint
	// timeout firing inside it would misread a successful transfer as a
	// stale hint and re-post a put that was already taken.
	pr.k.cAccepts.Inc()

	// Transfer sizes: the smaller of the two parties' declarations.
	toAccepter := r.data
	if len(toAccepter) > recvBytes {
		toAccepter = toAccepter[:recvBytes]
	}
	toRequester := data
	if len(toRequester) > r.recvBytes {
		toRequester = toRequester[:r.recvBytes]
	}
	n := len(toAccepter) + len(toRequester)
	pr.k.cBytes.Add(int64(n))

	copyCost := sim.Duration(n) * pr.k.costs.PerByte
	reply := make([]byte, len(toRequester))
	copy(reply, toRequester)
	sent := len(toAccepter)
	k := pr.k
	fromID := pr.id
	pr.g.transmit(pr.node, requester.node, n+32, k.costs.RequestPath, copyCost+k.costs.InterruptDelivery, func() {
		requester.raise(Interrupt{
			IKind: IntCompletion, Req: id, From: fromID, OOB: oob,
			Data: reply, Sent: sent,
		})
	})
	if k.rec.Active() {
		k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindAccept, Proc: int(pr.id), Peer: int(r.from),
			Seq: uint64(id), Bytes: n,
			Detail: fmt.Sprintf("%dB back, %dB taken", len(reply), sent),
		})
	}
	return toAccepter, OK
}

// Discover broadcasts for a process advertising n and blocks for the
// first answer (or the discover timeout). The broadcast is unreliable:
// each advertiser independently misses it with the bus's loss rate.
func (pr *Process) Discover(p *sim.Proc, n Name) (ProcID, Status) {
	pr.k.cDiscovers.Inc()
	pr.k.cBroadcasts.Inc()
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindDiscover, Proc: int(pr.id),
			Detail: fmt.Sprintf("name=%d", n),
		})
	}
	charge(p, pr.k.costs.ClientCall)
	g := pr.g
	wire := g.bus.BroadcastTime(g.env.Now(), pr.node, 16)
	p.Delay(wire)
	// Candidate advertisers, ascending by id, scoped to the caller's
	// partition group: a broadcast never leaves its bus segment, and the
	// rng draw per candidate must follow the group's own stream.
	var found, foundNode = ProcID(0), netsim.NodeID(0)
	for _, id := range g.liveIDs(liveWant(g)) {
		q, _ := g.findProc(id)
		if q.id == pr.id || !q.advertised[n] {
			continue
		}
		if g.bus.BroadcastDelivers(q.node) {
			found, foundNode = q.id, q.node
			break
		}
	}
	if found == 0 {
		// Wait out the timeout window for (absent) answers.
		p.Delay(pr.k.costs.DiscoverTimeout)
		return 0, NotFound
	}
	// The answer frame returns over the bus.
	back := g.bus.SendTime(g.env.Now(), foundNode, pr.node, 16)
	p.Delay(back)
	return found, OK
}

// liveWant is the membership filter for group-scoped scans: none for
// the default group (everything is one group), g itself otherwise.
func liveWant(g *kgroup) *kgroup {
	if g.idx < 0 {
		return nil
	}
	return g
}

// ReqState is the requester-visible lifecycle of an outstanding request.
type ReqState int

const (
	// ReqGone: not outstanding (completed, crashed, or withdrawn).
	ReqGone ReqState = iota
	// ReqInFlight: the request frame is still crossing the bus. Says
	// nothing about the hint's freshness — under load the shared medium
	// can hold a frame far longer than any staleness timeout.
	ReqInFlight
	// ReqUndeliverable: the frame arrived but the target does not
	// advertise the name. The hint is stale (or the advertiser is only
	// briefly between names); recovery is warranted.
	ReqUndeliverable
	// ReqDelivered: the target has seen the request and is simply not
	// accepting yet — normal stop-and-wait blocking.
	ReqDelivered
)

// RequestState reports where an outstanding request of ours is in its
// lifecycle. Bindings use this to tell bus congestion (ReqInFlight)
// apart from a stale hint (ReqUndeliverable): only the latter should
// trigger rediscovery.
func (pr *Process) RequestState(id ReqID) ReqState {
	r, ok := pr.outbound[id]
	switch {
	case !ok:
		return ReqGone
	case r.delivered:
		return ReqDelivered
	case r.arrived:
		return ReqUndeliverable
	default:
		return ReqInFlight
	}
}

// RequestDelivered reports whether an outstanding request of ours has
// had its interrupt raised at the target (i.e. the target advertises the
// name and has seen the descriptor). A LYNX binding uses this to
// distinguish "hint is stale / name unadvertised" (recovery needed) from
// "delivered but not yet accepted" (normal stop-and-wait blocking).
func (pr *Process) RequestDelivered(id ReqID) bool {
	r, ok := pr.outbound[id]
	return ok && r.delivered
}

// Withdraw retracts an unaccepted request this process posted: the
// requesting kernel simply stops retrying and the target forgets the
// descriptor. It fails with NoSuchRequest if the request was already
// accepted (the transfer happened).
func (pr *Process) Withdraw(p *sim.Proc, id ReqID) Status {
	charge(p, pr.k.costs.ClientCall)
	r, ok := pr.outbound[id]
	if !ok || r.accepted {
		return NoSuchRequest
	}
	r.withdrawn = true
	delete(pr.outbound, id)
	if target, tok := pr.g.findProc(r.to); tok {
		delete(target.inbound, id)
	}
	return OK
}

// OutstandingTo counts unaccepted requests this process has posted to a
// given target.
func (pr *Process) OutstandingTo(to ProcID) int {
	n := 0
	for _, r := range pr.outbound {
		if r.to == to && !r.accepted {
			n++
		}
	}
	return n
}

// InboundRequests returns ids of delivered, unaccepted inbound requests
// in arrival order (for tests and the freeze protocol).
func (pr *Process) InboundRequests() []ReqID {
	var ids []ReqID
	for _, id := range pr.inboundIDs() {
		if r := pr.inbound[id]; r.delivered && !r.accepted {
			ids = append(ids, id)
		}
	}
	return ids
}

// Terminate kills the process: its advertisements vanish, inbound
// requests die, and every process with an outstanding request to it
// feels a crash interrupt. Safe to call from OnKill hooks.
func (pr *Process) Terminate() {
	if pr.dead {
		return
	}
	pr.dead = true
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{Kind: obs.KindMark, Proc: int(pr.id), Detail: "terminate"})
	}
	// Walk inbound in request-id order: each entry schedules a timer,
	// and timer ties break by scheduling sequence, so randomized map
	// order would make same-seed runs diverge. The crash interrupts fire
	// on the group env — inbound traffic is group-local by construction.
	for _, id := range pr.inboundIDs() {
		r := pr.inbound[id]
		requester, live := pr.g.findProc(r.from)
		if !live || requester.dead {
			continue
		}
		delete(requester.outbound, id)
		reqID, from := id, pr.id
		pr.g.env.After(pr.k.costs.RetryInterval, func() {
			requester.raise(Interrupt{IKind: IntCrash, Req: reqID, From: from})
		})
	}
	pr.inbound = make(map[ReqID]*request)
	pr.advertised = make(map[Name]bool)
}

// Dead reports whether the process has terminated.
func (pr *Process) Dead() bool { return pr.dead }
