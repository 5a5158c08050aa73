// Package netem provides the in-memory network substrate for the study: an
// emulated WiFi segment where test devices dial destination hosts, every
// record crossing the client's access link is captured (the paper's
// tcpdump-at-the-hotspot vantage point), and an interceptor — the MITM
// proxy — can be inserted in front of every connection.
//
// Connections are driven synchronously. The goroutine that dials owns the
// client end; the server end (a host Handler or the Interceptor) runs as a
// coroutine that the client resumes whenever it waits for a record, and
// that runs to completion when the client closes. Records therefore cross
// in one deterministic order, and the network is idle as soon as every
// client transport is closed. A passive capture stores only
// tlswire.Summary views of records, never endpoint-private content, so the
// analysis pipeline genuinely cannot cheat by peeking at plaintext.
package netem

import (
	"errors"
	"fmt"
	"sync"

	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

// Flow is one captured TCP/TLS connection as seen from the monitoring
// point: destination, timing, the observable record sequence, and how each
// side closed. A flow belongs to the goroutine that dialed it.
type Flow struct {
	// Dst is the hostname the client dialed (the capture's flow key; in
	// practice derived from DNS+SNI, and >99% of study traffic had SNI).
	Dst string
	// At is the logical time (seconds since app launch) of the dial.
	At float64

	records     []tlswire.Summary
	recBox      *[]tlswire.Summary // pooled backing array, nil once released
	clientClose tlswire.CloseFlag
	serverClose tlswire.CloseFlag

	// Monitoring-point fault injection: seen counts every record offered to
	// the tap (dropped or not) so drop decisions are index-stable; tailCut
	// is set once the tap stops recording (truncated capture).
	faults  ConnFaults
	seen    int
	tailCut bool
}

// Records returns the captured record summaries in wire order. The slice
// is a read-only view into the flow's pooled buffer: it is valid until the
// capture is released, and a caller that keeps records past that point
// must copy them.
func (f *Flow) Records() []tlswire.Summary { return f.records }

// SNI returns the server name from the captured ClientHello, or "".
func (f *Flow) SNI() string {
	if h := f.ClientHello(); h != nil {
		return h.SNI
	}
	return ""
}

// ClientHello returns the captured ClientHello, or nil.
func (f *Flow) ClientHello() *tlswire.HelloInfo {
	for _, r := range f.records {
		if r.Hello != nil {
			return r.Hello
		}
	}
	return nil
}

// NegotiatedVersion returns the version from the captured ServerHello, or 0.
func (f *Flow) NegotiatedVersion() tlswire.Version {
	for _, r := range f.records {
		if r.SHello != nil {
			return r.SHello.Version
		}
	}
	return 0
}

// ObservedChain returns the certificate chain if it crossed the wire in
// cleartext (TLS <= 1.2 only), else nil.
func (f *Flow) ObservedChain() pki.Chain {
	for _, r := range f.records {
		if len(r.Certs) > 0 {
			return r.Certs
		}
	}
	return nil
}

// CloseFlags returns how the client and server sides ended.
func (f *Flow) CloseFlags() (client, server tlswire.CloseFlag) {
	return f.clientClose, f.serverClose
}

func (f *Flow) addRecord(fromClient bool, r tlswire.Record) {
	idx := f.seen
	f.seen++
	if f.faults.CaptureTailAfter > 0 && idx >= f.faults.CaptureTailAfter {
		// Monitoring stopped mid-flow (window cut / pcap truncation): the
		// record crosses but is never captured, nor is any later close.
		f.tailCut = true
		return
	}
	if f.faults.DropCaptureRecord != nil && f.faults.DropCaptureRecord(idx) {
		return // tap drop: delivery unaffected, observation lost
	}
	f.records = append(f.records, r.Summarize(fromClient))
}

func (f *Flow) addClose(fromClient bool, flag tlswire.CloseFlag) {
	if f.tailCut {
		return // capture ended before the teardown was observed
	}
	if fromClient {
		if f.clientClose == tlswire.CloseNone {
			f.clientClose = flag
		}
	} else {
		if f.serverClose == tlswire.CloseNone {
			f.serverClose = flag
		}
	}
}

// Capture accumulates the flows of one experiment run. Like its flows, a
// capture belongs to the goroutine that dials into it.
type Capture struct {
	flows []*Flow
}

// flowRecPool recycles the record backing arrays of released captures. A
// study runs tens of thousands of flows whose summaries are read once by
// the analysis layer (which copies what it keeps) and then discarded;
// recycling the arrays keeps that churn out of the allocator. Recycled
// arrays may briefly pin Summary-referenced objects (hello infos, certs),
// all of which are world-owned and alive for the study anyway.
var flowRecPool = sync.Pool{
	New: func() any {
		s := make([]tlswire.Summary, 0, 16)
		return &s
	},
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// Flows returns the captured flows in dial order.
func (c *Capture) Flows() []*Flow {
	if c == nil {
		return nil
	}
	out := make([]*Flow, len(c.flows))
	copy(out, c.flows)
	return out
}

func (c *Capture) newFlow(dst string, at float64) *Flow {
	f := &Flow{Dst: dst, At: at}
	if c != nil {
		box := flowRecPool.Get().(*[]tlswire.Summary)
		f.records = (*box)[:0]
		f.recBox = box
		c.flows = append(c.flows, f)
	}
	return f
}

// Last returns the most recently added flow, or nil. Immediately after a
// captured Dial this is that dial's flow.
func (c *Capture) Last() *Flow {
	if c == nil || len(c.flows) == 0 {
		return nil
	}
	return c.flows[len(c.flows)-1]
}

// AddReplayedFlow appends a flow whose records come from a memoized
// handshake outcome rather than a live connection: dst and at are the
// would-be dial's, records and close flags are the snapshot's. The records
// are copied into the flow's (pooled) buffer, so the caller's slice is not
// retained.
func (c *Capture) AddReplayedFlow(dst string, at float64, records []tlswire.Summary, clientClose, serverClose tlswire.CloseFlag) {
	f := c.newFlow(dst, at)
	f.records = append(f.records, records...)
	f.clientClose = clientClose
	f.serverClose = serverClose
	f.seen = len(records)
}

// Release returns the capture's pooled record buffers and drops its flows.
// Call it only once the consuming analysis is done with the capture and
// every client transport dialed into it is closed; the flows' Records()
// views become empty afterwards, and views taken earlier must no longer be
// read. Releasing is optional — unreleased captures are simply garbage
// collected.
func (c *Capture) Release() {
	if c == nil {
		return
	}
	flows := c.flows
	c.flows = nil
	for _, f := range flows {
		if box := f.recBox; box != nil {
			*box = f.records[:0]
			f.recBox = nil
			f.records = nil
			flowRecPool.Put(box)
		}
	}
}

// Handler serves one inbound connection.
type Handler func(t tlswire.Transport)

// ConnFaults are the deterministic fault decisions for one connection. The
// zero value injects nothing.
type ConnFaults struct {
	// ResetAfter, when > 0, tears the connection down with a TCP RST once
	// that many records have crossed it — small values kill the handshake
	// mid-flight, the paper's confounding connection failures (§4.2.2).
	ResetAfter int
	// DropCaptureRecord, when non-nil, reports whether the monitoring tap
	// misses record index i. Delivery is unaffected: the endpoints see the
	// record, the capture does not (pcap drop at the hotspot).
	DropCaptureRecord func(i int) bool
	// CaptureTailAfter, when > 0, stops the tap recording after that many
	// records; later records AND close flags go unobserved, yielding the
	// truncated inconclusive flows of a capture window cut.
	CaptureTailAfter int
}

func (cf ConnFaults) merge(other ConnFaults) ConnFaults {
	if cf.ResetAfter == 0 {
		cf.ResetAfter = other.ResetAfter
	}
	if cf.DropCaptureRecord == nil {
		cf.DropCaptureRecord = other.DropCaptureRecord
	}
	if cf.CaptureTailAfter == 0 {
		cf.CaptureTailAfter = other.CaptureTailAfter
	}
	return cf
}

// FaultTap decides per-connection fault injection for dials on a network.
// Implementations must be safe for concurrent use and deterministic in
// (host, at) so studies stay reproducible.
type FaultTap interface {
	ConnFaults(host string, at float64) ConnFaults
}

// Interceptor sits in front of every intercepted dial; the MITM proxy
// implements it. It should close clientSide before returning; if it does
// not, the connection is closed with FIN when HandleConn returns.
type Interceptor interface {
	HandleConn(clientSide tlswire.Transport, dstHost string, net *Network)
}

// Network is the emulated network segment.
type Network struct {
	mu          sync.Mutex
	servers     map[string]Handler
	interceptor Interceptor
	faultTap    FaultTap
}

// New returns an empty network.
func New() *Network {
	return &Network{servers: make(map[string]Handler)}
}

// Listen registers the handler for host, replacing any previous one.
func (n *Network) Listen(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servers[host] = h
}

// SetInterceptor installs (or with nil removes) the interception proxy for
// subsequent Dials.
func (n *Network) SetInterceptor(i Interceptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.interceptor = i
}

// SetFaultTap installs (or with nil removes) the fault-injection tap
// consulted on every subsequent Dial. DialDirect legs — the proxy's
// upstream side, beyond the monitoring point — are never faulted.
func (n *Network) SetFaultTap(t FaultTap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultTap = t
}

// HasInterceptor reports whether an interception proxy is installed —
// i.e. whether subsequent Dials terminate at the MITM instead of the
// genuine destination. Handshake memo keys include this bit.
func (n *Network) HasInterceptor() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.interceptor != nil
}

// HasFaultTap reports whether a fault-injection tap is installed. Runs on
// a tapped network must bypass handshake memoization so injected faults
// hit real handshakes.
func (n *Network) HasFaultTap() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faultTap != nil
}

// HasHost reports whether host is served.
func (n *Network) HasHost(host string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.servers[host]
	return ok
}

// DialOpts parameterize a dial.
type DialOpts struct {
	// At is the logical dial time in seconds since app launch.
	At float64
	// Capture, when non-nil, records the client-side leg of this
	// connection.
	Capture *Capture
	// Faults injects per-connection faults on top of the network's fault
	// tap; caller-set fields win over tap decisions.
	Faults ConnFaults
}

// Dial opens a connection to host, routed through the interceptor if one
// is installed. The returned transport is the client side, owned by the
// calling goroutine; the caller must Close it (closing is idempotent, so
// deferring a FIN is always safe), and Close returns once the server side
// has finished.
func (n *Network) Dial(host string, opts DialOpts) (tlswire.Transport, error) {
	n.mu.Lock()
	interceptor := n.interceptor
	tap := n.faultTap
	handler, ok := n.servers[host]
	n.mu.Unlock()

	if interceptor == nil && !ok {
		return nil, fmt.Errorf("netem: no route to host %q", host)
	}

	faults := opts.Faults
	if tap != nil {
		faults = faults.merge(tap.ConnFaults(host, opts.At))
	}
	var flow *Flow
	if opts.Capture != nil {
		flow = opts.Capture.newFlow(host, opts.At)
		flow.faults = faults
	}
	c := newConn(flow)
	c.resetAfter = faults.ResetAfter
	if interceptor != nil {
		c.serve(func(t tlswire.Transport) { interceptor.HandleConn(t, host, n) })
	} else {
		c.serve(handler)
	}
	return &c.ends[client], nil
}

// DialDirect bypasses the interceptor — the proxy uses it for its upstream
// leg (which the monitoring point does not capture).
func (n *Network) DialDirect(host string) (tlswire.Transport, error) {
	n.mu.Lock()
	handler, ok := n.servers[host]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netem: no route to host %q", host)
	}
	c := newConn(nil)
	c.serve(handler)
	return &c.ends[client], nil
}

// --- connections -----------------------------------------------------------

// ErrStalled is returned by Recv when both ends of a connection are waiting
// to receive: the peer has nothing queued, has not closed, and is itself
// blocked in Recv. On a real network this is a hang; here it fails fast.
var ErrStalled = errors.New("netem: both ends of the connection are waiting to receive")

// Connection sides, indexing conn's per-side arrays.
const (
	client = 0
	server = 1
)

// conn is one emulated connection: a record queue into each side, each
// side's close state, and the coroutine running the server side. Only the
// goroutine that owns the client end touches it; the server coroutine runs
// only while that goroutine is suspended in resume.
type conn struct {
	ends   [2]end
	queue  [2]recQueue // queue[s] holds records waiting for side s
	buf    *queueBuf   // backs the queues until the connection is finished
	closed [2]bool
	flag   [2]tlswire.CloseFlag
	flow   *Flow // nil for uncaptured legs

	// resetAfter, when > 0, is the number of records the connection carries
	// before an injected RST; crossed counts records sent so far.
	resetAfter, crossed int

	// resume runs the server side until it next waits for a record or
	// returns; nil once it has returned (or when no server side runs).
	resume func() (struct{}, bool)
	// yield suspends the server side, handing control back to the client.
	yield func(struct{}) bool
}

// newConn returns a connection tapped into flow (which may be nil for
// uncaptured legs) with no server side attached yet.
func newConn(flow *Flow) *conn {
	c := &conn{flow: flow, buf: queueBufPool.Get().(*queueBuf)}
	for s := range c.ends {
		c.ends[s] = end{c: c, side: s}
		c.queue[s].recs = c.buf[s][:0]
	}
	return c
}

// queueBuf backs a connection's two record queues. A turn-based exchange
// queues at most one flight per direction, and four records cover every
// flight but the rare longest, so most connections never grow a queue.
type queueBuf [2][4]tlswire.Record

// queueBufPool recycles the queue buffers of finished connections: a study
// opens tens of thousands of connections, and the buffers are most of
// what each one allocates.
var queueBufPool = sync.Pool{New: func() any { return new(queueBuf) }}

// finish releases the queue buffer of a connection whose both sides are
// closed and whose server side has returned. Nothing can be sent on it
// any more; records still queued for an end are discarded.
func (c *conn) finish() {
	if c.buf == nil {
		return
	}
	*c.buf = queueBuf{}
	queueBufPool.Put(c.buf)
	c.buf = nil
	c.queue = [2]recQueue{}
}

// step resumes the server side once and reports whether it left the client
// something to act on: a queued record or a close. A false result with the
// server still running means it is waiting to receive too.
func (c *conn) step() bool {
	if c.resume == nil {
		return false
	}
	if _, ok := c.resume(); !ok {
		c.resume = nil
	}
	return c.queue[client].len() > 0 || c.closed[server]
}

// shut closes side s with flag; the first flag wins. record controls
// whether the monitoring point observes the teardown (injected resets
// record their own server-direction observation instead).
func (c *conn) shut(s int, flag tlswire.CloseFlag, record bool) {
	if c.closed[s] {
		return
	}
	c.closed[s] = true
	c.flag[s] = flag
	if record && c.flow != nil {
		c.flow.addClose(s == client, flag)
	}
}

// end is one side of a connection; it implements tlswire.Transport.
type end struct {
	c    *conn
	side int
}

func (e *end) Send(r tlswire.Record) error {
	c, me, peer := e.c, e.side, 1-e.side
	if c.closed[me] {
		return &tlswire.PeerClosedError{Flag: c.flag[me]}
	}
	if c.closed[peer] {
		return &tlswire.PeerClosedError{Flag: c.flag[peer]}
	}
	if c.resetAfter > 0 {
		if c.crossed >= c.resetAfter {
			// Injected network reset: the record is lost and both ends go
			// down. The monitoring point sees the RST arrive from the
			// server direction — the client never sent a teardown of its
			// own, so the flow stays inconclusive instead of mimicking a
			// client-side pin rejection, exactly like a spoofed/middlebox
			// RST on a real trace.
			if c.flow != nil {
				c.flow.addClose(false, tlswire.CloseRST)
			}
			c.shut(peer, tlswire.CloseRST, false)
			c.shut(me, tlswire.CloseRST, false)
			return &tlswire.PeerClosedError{Flag: tlswire.CloseRST}
		}
		c.crossed++
	}
	if c.flow != nil {
		c.flow.addRecord(me == client, r)
	}
	c.queue[peer].push(r)
	return nil
}

// Recv returns the next queued record. With none queued and neither side
// closed, the client end resumes the server side and the server end
// suspends until the client resumes it; if that leaves both ends waiting,
// Recv returns ErrStalled.
func (e *end) Recv() (tlswire.Record, error) {
	c, me, peer := e.c, e.side, 1-e.side
	for {
		if r, ok := c.queue[me].pop(); ok {
			return r, nil
		}
		if c.closed[peer] {
			return tlswire.Record{}, &tlswire.PeerClosedError{Flag: c.flag[peer]}
		}
		if c.closed[me] {
			return tlswire.Record{}, &tlswire.PeerClosedError{Flag: c.flag[me]}
		}
		var progressed bool
		if me == client {
			progressed = c.step()
		} else {
			progressed = c.yield != nil && c.yield(struct{}{})
		}
		if !progressed {
			return tlswire.Record{}, ErrStalled
		}
	}
}

// Close shuts this end down; later Sends fail and the peer drains what was
// queued, then sees the close. Closing the client end also runs the server
// side to completion, so when it returns the connection is finished — its
// flow's records and close flags are final, and records the client never
// received are discarded.
func (e *end) Close(flag tlswire.CloseFlag) error {
	c := e.c
	c.shut(e.side, flag, true)
	if e.side == client {
		for c.resume != nil {
			c.step()
		}
		if c.closed[server] {
			c.finish()
		}
	}
	return nil
}

// recQueue is a FIFO of records; its backing array is reused once drained.
type recQueue struct {
	recs []tlswire.Record
	head int
}

func (q *recQueue) len() int { return len(q.recs) - q.head }

func (q *recQueue) push(r tlswire.Record) { q.recs = append(q.recs, r) }

func (q *recQueue) pop() (tlswire.Record, bool) {
	if q.head == len(q.recs) {
		return tlswire.Record{}, false
	}
	r := q.recs[q.head]
	q.head++
	if q.head == len(q.recs) {
		q.recs, q.head = q.recs[:0], 0
	}
	return r, true
}
