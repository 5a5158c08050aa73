package shardnet

// sim.go is the deterministic in-process network: connections are
// in-memory frame queues under one logical clock, and every pathology —
// delay, drop, duplication, the reordering they produce, and partitions —
// is a seeded draw from the faultinject plan, applied when a frame is
// sent. There is no wall clock and no goroutine sleeps: the network
// advances time by discrete-event warp — when every open endpoint is
// blocked (receiving or waiting on the clock), the clock jumps to the
// earliest pending delivery, receive deadline, or wait target. Tests of
// hostile networks therefore run in microseconds and replay exactly.
//
// Fault semantics, chosen to mirror a real stream transport:
//
//   - delay: one result frame stays in flight for extra ticks while
//     later frames (heartbeats included) overtake it — reordering falls
//     out of delay, it is not a separate mechanism.
//   - drop: a reliable stream is in-order-or-dead, so losing a frame
//     means the connection is severed; both ends see it die.
//   - duplicate: the frame is delivered twice, the copy slightly later.
//   - partition: every frame in both directions on the holding
//     connection is silently discarded for a window; neither side learns
//     the link is gone — only heartbeat silence (lease expiry) does.
//
// Each fault fires once, like every member of the faultinject family.

import (
	"fmt"
	"sync"

	"pinscope/internal/faultinject"
)

// SimNet is one simulated network: a logical clock, a listener, and the
// connections dialed through it. It implements Clock for both sides.
// NewSimNet(nil) is a fault-free in-memory transport: an in-process
// sharded run uses it to drive its worker fleet through the same
// coordinator a cross-machine run uses.
type SimNet struct {
	mu    sync.Mutex
	cond  *sync.Cond
	now   int64
	seq   uint64
	chaos *faultinject.NetChaos

	openEnds int
	holds    int
	dialsDue int // dials ExpectDials still waits for
	waiters  map[*simWaiter]struct{}

	listener *SimListener

	firedDelay map[[2]int]bool
	firedDrop  map[[2]int]bool
	firedDup   map[[2]int]bool
	firedPart  map[[2]int]bool
}

type simWaiter struct{ target int64 }

// NewSimNet builds a simulated network injecting chaos (nil injects
// nothing).
func NewSimNet(chaos *faultinject.NetChaos) *SimNet {
	n := &SimNet{
		chaos:      chaos,
		waiters:    map[*simWaiter]struct{}{},
		firedDelay: map[[2]int]bool{},
		firedDrop:  map[[2]int]bool{},
		firedDup:   map[[2]int]bool{},
		firedPart:  map[[2]int]bool{},
	}
	n.cond = sync.NewCond(&n.mu)
	n.listener = &SimListener{net: n}
	return n
}

// Now returns the logical clock reading.
func (n *SimNet) Now() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// WaitUntil blocks until the logical clock reaches at. A blocked waiter
// participates in the quiescence warp, so the wait costs no wall time
// once every other endpoint is blocked too.
func (n *SimNet) WaitUntil(at int64) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.waitLocked(at)
	return n.now
}

// WaitUntilHold is WaitUntil that takes a Hold as the wait ends,
// atomically with the wake: the waiter's reaction to the deadline is work
// in flight, and the clock must not move past it before it lands. armed
// runs once the wait is registered, when the warp can no longer skip
// past at: it releases the hold that pinned the clock while the wait was
// on its way here.
func (n *SimNet) WaitUntilHold(at int64, armed func()) func() {
	n.mu.Lock()
	w := n.addWaiterLocked(at)
	n.mu.Unlock()
	armed()
	n.mu.Lock()
	n.waitForLocked(w)
	n.holds++
	n.mu.Unlock()
	return n.releaser()
}

func (n *SimNet) waitLocked(at int64) {
	n.waitForLocked(n.addWaiterLocked(at))
}

func (n *SimNet) addWaiterLocked(at int64) *simWaiter {
	w := &simWaiter{target: at}
	n.waiters[w] = struct{}{}
	return w
}

func (n *SimNet) waitForLocked(w *simWaiter) {
	for n.now < w.target {
		if !n.quiescentLocked() || n.runnableLocked() || !n.warpLocked() {
			n.cond.Wait()
		}
	}
	delete(n.waiters, w)
	// Deregistering changes what the warp can see — a peer blocked on
	// "that waiter will act next" must re-evaluate, or its wakeup is lost.
	n.cond.Broadcast()
}

// ExpectDials pins the logical clock until k more connections have been
// dialed. A fleet started as goroutines dials whenever the scheduler
// runs each worker; without the pin the clock could tick between two
// dials, and the tick a worker joins at would be scheduling. Closing the
// listener lifts the pin.
func (n *SimNet) ExpectDials(k int) {
	n.mu.Lock()
	n.dialsDue += k
	n.mu.Unlock()
}

// Hold pins the logical clock: while any hold is outstanding the network
// is not quiescent, so the clock cannot warp. The coordinator takes a
// hold for every frame that is inside its channels — received but not yet
// reacted to, or queued but not yet sent — because work in a Go channel
// is invisible to the endpoint-blocked test, and warping over it would
// fire timeouts against a peer that has in fact already answered. The
// returned release is idempotent.
func (n *SimNet) Hold() func() {
	n.mu.Lock()
	n.holds++
	n.mu.Unlock()
	return n.releaser()
}

// releaser returns the idempotent release of one hold.
func (n *SimNet) releaser() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			n.mu.Lock()
			n.holds--
			n.mu.Unlock()
			n.cond.Broadcast()
		})
	}
}

// Listener returns the network's single listener (the coordinator side).
func (n *SimNet) Listener() *SimListener { return n.listener }

// Dialer returns a Dialer producing worker-side connections.
func (n *SimNet) Dialer() Dialer { return simDialer{net: n} }

// quiescentLocked reports that every open endpoint is blocked in Recv —
// the only state in which advancing the clock cannot race an in-flight
// computation (a goroutine outside Recv will send or close soon, and
// logical time must not pass under it). Recomputed from the endpoint
// states so an end closed while its receiver is mid-wake never skews the
// count.
func (n *SimNet) quiescentLocked() bool {
	if n.holds > 0 || n.dialsDue > 0 {
		return false
	}
	open, blocked := 0, 0
	n.forEachEndLocked(func(e *simEnd) {
		open++
		if e.blocked {
			blocked++
		}
	})
	return blocked >= open
}

// runnableLocked reports that some blocked party is already due to wake
// at the current clock — a deliverable frame, an expired deadline, a dead
// peer, or a reached wait target — and just hasn't been scheduled yet.
// Warping (or declaring deadlock) under it would race that wake-up: the
// clock must hold still until the runnable party has made its move.
func (n *SimNet) runnableLocked() bool {
	run := false
	n.forEachEndLocked(func(e *simEnd) {
		if !e.blocked || run {
			return
		}
		if e.deliverableLocked(n.now) >= 0 ||
			(e.deadline >= 0 && n.now >= e.deadline) ||
			(e.peer().closed && len(e.queue) == 0) {
			run = true
		}
	})
	for w := range n.waiters {
		if n.now >= w.target {
			return true
		}
	}
	return run
}

// warpLocked advances the clock to the earliest pending delivery,
// receive deadline, or wait target strictly ahead of now. With nothing
// to warp to in a quiescent network, every endpoint would wait forever —
// a protocol bug, surfaced loudly instead of hanging the run.
func (n *SimNet) warpLocked() bool {
	target := int64(-1)
	consider := func(at int64) {
		if at > n.now && (target < 0 || at < target) {
			target = at
		}
	}
	n.forEachEndLocked(func(e *simEnd) {
		for _, d := range e.queue {
			consider(d.at)
		}
		if e.blocked && e.deadline >= 0 {
			consider(e.deadline)
		}
	})
	for w := range n.waiters {
		consider(w.target)
	}
	if target < 0 {
		if n.openEnds > 0 && len(n.waiters) == 0 {
			panic("shardnet: simulated network deadlock: every endpoint blocked with nothing in flight, no deadline and no timer")
		}
		return false
	}
	n.now = target
	n.cond.Broadcast()
	return true
}

func (n *SimNet) forEachEndLocked(f func(*simEnd)) {
	for _, c := range n.listener.conns {
		if !c.worker.closed {
			f(c.worker)
		}
		if !c.coord.closed {
			f(c.coord)
		}
	}
}

// simPair is one dialed connection: two ends sharing fault state.
type simPair struct {
	net       *SimNet
	worker    *simEnd
	coord     *simEnd
	partUntil int64 // both directions silently dropped while now < partUntil
}

type simDelivery struct {
	at    int64
	seq   uint64
	frame Frame
}

// simEnd is one side of a simulated connection.
type simEnd struct {
	pair     *simPair
	isWorker bool
	queue    []simDelivery
	closed   bool
	blocked  bool
	deadline int64 // receive deadline while blocked; -1 means none
}

func (e *simEnd) peer() *simEnd {
	if e.isWorker {
		return e.pair.coord
	}
	return e.pair.worker
}

// Send applies the fault plan and enqueues the frame at the peer. The
// baseline hop costs one tick, which is what lets delayed frames be
// overtaken: an undelayed later send arrives first.
func (e *simEnd) Send(f Frame) error {
	n := e.pair.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed || e.peer().closed {
		return ErrClosed
	}
	if n.now < e.pair.partUntil {
		return nil // partitioned: silently eaten, the sender learns nothing
	}
	delay := int64(0)
	dup := false
	if e.isWorker && f.Type == frameResult {
		if slice, item, ok := resultRef(f.Payload); ok {
			key := [2]int{slice, item}
			if ticks, hit := n.chaos.PartitionFor(slice, item); hit && !n.firedPart[key] {
				n.firedPart[key] = true
				e.pair.partUntil = n.now + ticks
				return nil // the triggering frame is inside the partition
			}
			if n.chaos.DropFor(slice, item) && !n.firedDrop[key] {
				n.firedDrop[key] = true
				// In-order-or-dead: a lost frame severs the stream.
				e.closed = true
				e.peer().closed = true
				n.openEnds -= 2
				n.cond.Broadcast()
				return ErrClosed
			}
			if ticks, hit := n.chaos.DelayFor(slice, item); hit && !n.firedDelay[key] {
				n.firedDelay[key] = true
				delay = ticks
			}
			if n.chaos.DupFor(slice, item) && !n.firedDup[key] {
				n.firedDup[key] = true
				dup = true
			}
		}
	}
	peer := e.peer()
	peer.enqueueLocked(n, f, n.now+1+delay)
	if dup {
		// The copy lands on the same tick but a later sequence number: a
		// distinct, strictly-later delivery that cannot be stranded past
		// the end of the run the way a further-future tick could be.
		peer.enqueueLocked(n, f, n.now+1+delay)
	}
	n.cond.Broadcast()
	return nil
}

func (e *simEnd) enqueueLocked(n *SimNet, f Frame, at int64) {
	n.seq++
	e.queue = append(e.queue, simDelivery{at: at, seq: n.seq, frame: f})
}

// Recv blocks for the next deliverable frame, participating in the warp
// while blocked. Frames sent before a peer's death are still delivered;
// only an empty queue on a dead connection reads as closed.
func (e *simEnd) Recv(wait int64) (Frame, error) {
	n := e.pair.net
	n.mu.Lock()
	defer n.mu.Unlock()
	deadline := int64(-1)
	if wait > 0 {
		deadline = n.now + wait
	}
	for {
		if i := e.deliverableLocked(n.now); i >= 0 {
			f := e.queue[i].frame
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return f, nil
		}
		if e.closed {
			return Frame{}, ErrClosed
		}
		if e.peer().closed && len(e.queue) == 0 {
			return Frame{}, ErrClosed
		}
		if deadline >= 0 && n.now >= deadline {
			return Frame{}, ErrRecvTimeout
		}
		e.blocked = true
		e.deadline = deadline
		if !n.quiescentLocked() || n.runnableLocked() || !n.warpLocked() {
			n.cond.Wait()
		}
		e.blocked = false
		e.deadline = -1
	}
}

// deliverableLocked returns the index of the earliest (at, seq) delivery
// due by now, or -1.
func (e *simEnd) deliverableLocked(now int64) int {
	best := -1
	for i, d := range e.queue {
		if d.at > now {
			continue
		}
		if best < 0 || d.at < e.queue[best].at ||
			(d.at == e.queue[best].at && d.seq < e.queue[best].seq) {
			best = i
		}
	}
	return best
}

// Close severs this end; the peer drains its queue and then reads closed.
func (e *simEnd) Close() error {
	n := e.pair.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if !e.closed {
		e.closed = true
		n.openEnds--
		n.cond.Broadcast()
	}
	return nil
}

// SimListener hands out the coordinator end of dialed connections.
type SimListener struct {
	net     *SimNet
	pending []*simPair
	conns   []*simPair
	closed  bool
}

// Accept blocks for the next dialed connection. It does not participate
// in quiescence: an accept loop blocked here holds no endpoint, so it
// cannot block the warp.
func (l *SimListener) Accept() (Conn, error) {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(l.pending) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		n.cond.Wait()
	}
	p := l.pending[0]
	l.pending = l.pending[1:]
	return p.coord, nil
}

// Close stops accepting; queued-but-unaccepted dials are refused.
func (l *SimListener) Close() error {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	n.dialsDue = 0
	n.cond.Broadcast()
	for _, p := range l.pending {
		if !p.worker.closed {
			p.worker.closed = true
			n.openEnds--
		}
		if !p.coord.closed {
			p.coord.closed = true
			n.openEnds--
		}
	}
	l.pending = nil
	n.cond.Broadcast()
	return nil
}

type simDialer struct{ net *SimNet }

// Dial creates a connection pair and queues its coordinator end at the
// listener.
func (d simDialer) Dial() (Conn, error) {
	n := d.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener.closed {
		return nil, fmt.Errorf("shardnet: dial: %w", ErrClosed)
	}
	p := &simPair{net: n}
	p.worker = &simEnd{pair: p, isWorker: true, deadline: -1}
	p.coord = &simEnd{pair: p, deadline: -1}
	n.openEnds += 2
	if n.dialsDue > 0 {
		n.dialsDue--
	}
	n.listener.pending = append(n.listener.pending, p)
	n.listener.conns = append(n.listener.conns, p)
	n.cond.Broadcast()
	return p.worker, nil
}
