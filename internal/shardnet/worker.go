package shardnet

// worker.go is the far side of the transport: a worker dials the
// coordinator (with jittered backoff across reconnects), rebuilds its
// bench from the Welcome payload — the run's identity, never its data —
// and then alternates between announcing Ready and working granted
// leases. While working a lease it interleaves heartbeat frames with
// result frames, which is what keeps the lease alive when the result
// stream itself is slow: liveness and progress travel separately.
//
// The worker is deliberately stateless across connections: everything it
// knows (the bench) is rebuilt from the run config, and everything it
// produces is a pure function of (run config, item index). Losing a
// connection mid-slice therefore costs only the recompute; the
// coordinator's journal cursor decides where the takeover resumes.

import (
	"errors"
	"fmt"
)

// Bench computes one item's journal payload. Implementations must be
// pure: the same (slice, item) always yields the same bytes.
type Bench interface {
	RunItem(slice, item int) ([]byte, error)
}

// WorkerOptions configure RunWorker. Clock and NewBench are required.
type WorkerOptions struct {
	Clock Clock
	// NewBench builds the bench from the Welcome payload, once per
	// worker; reconnects reuse it.
	NewBench func(runConfig []byte) (Bench, error)
	// IdleTimeout bounds each idle Recv in clock units; on expiry the
	// worker re-announces Ready, which also recovers grants eaten by a
	// partition (0 = 4·DefaultSimTTL).
	IdleTimeout int64
	// Reconnects is the total dial/connection-failure budget before the
	// worker gives up (0 = 8).
	Reconnects int
	// BackoffSeed/Base/Max parameterize the reconnect backoff; Scope
	// decorrelates it across workers (defaults: base 2, max 64·base).
	BackoffSeed int64
	BackoffBase int64
	BackoffMax  int64
	Scope       string
	// FaultTap, when set, is consulted once per item of a grant, before
	// the item's heartbeat, and injects the Fault it returns (PlanFaults
	// renders a faultinject.ShardPlan as one). Fire-once is the tap's
	// responsibility.
	FaultTap func(slice, item int) Fault
}

// Fault is one injected worker fault at an item of a granted slice. The
// zero value injects nothing.
type Fault struct {
	// Stall > 0 makes the holder go silent for Stall clock units before
	// it computes the item — no heartbeat, no result — and then give the
	// grant up and announce Ready again: a holder silent past its lease
	// TTL must assume the lease is gone, so it never recomputes a slice
	// someone else has taken over. A Fence for the lease ends the stall
	// early.
	Stall int64
	// Kill makes the worker die right before it sends the item's result;
	// over TCP it first writes Torn bytes of the result frame, the wire
	// image of a process dying mid-send.
	Kill bool
	Torn int
}

// tornSender is implemented by transports that can write a torn frame
// prefix before dying (the TCP conn); the simulated network just severs.
type tornSender interface {
	SendTorn(f Frame, torn int) error
}

// errRunDone reports a Done frame that arrived while a grant was stalled.
var errRunDone = errors.New("shardnet: run done")

// RunWorker dials the coordinator and works until Done. It returns nil
// when the coordinator reports the run complete, ErrWorkerKilled when an
// injected death fires, and an error when the reconnect budget or the
// bench fails.
func RunWorker(d Dialer, opt WorkerOptions) error {
	if opt.Clock == nil || opt.NewBench == nil {
		return errors.New("shardnet: worker needs a clock and a bench constructor")
	}
	if opt.IdleTimeout <= 0 {
		opt.IdleTimeout = 4 * DefaultSimTTL
	}
	reconnects := opt.Reconnects
	if reconnects <= 0 {
		reconnects = 8
	}
	base := opt.BackoffBase
	if base <= 0 {
		base = 2
	}
	backoff := NewBackoff(opt.BackoffSeed, "worker/"+opt.Scope, base, opt.BackoffMax)

	var bench Bench
	failures := 0
	for {
		conn, err := d.Dial()
		if err == nil {
			err = runSession(conn, opt, &bench)
			conn.Close()
			if err == nil {
				return nil
			}
		}
		if errors.Is(err, ErrWorkerKilled) {
			return err
		}
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrRecvTimeout) {
			return err // bench or protocol failure: reconnecting cannot help
		}
		failures++
		if failures > reconnects {
			return fmt.Errorf("shardnet: worker giving up after %d connection failures: %w", failures, err)
		}
		opt.Clock.WaitUntil(opt.Clock.Now() + backoff.Delay(failures-1))
	}
}

// runSession speaks one connection's lifetime: Hello/Welcome, then
// Ready/Grant cycles until Done. Connection errors bubble up for the
// reconnect loop; nil means the run is complete.
func runSession(conn Conn, opt WorkerOptions, bench *Bench) error {
	if err := conn.Send(Frame{Type: frameHello}); err != nil {
		return err
	}
	f, err := conn.Recv(opt.IdleTimeout)
	if err != nil {
		return err
	}
	if f.Type != frameWelcome {
		return fmt.Errorf("shardnet: expected Welcome, got frame type 0x%02x", f.Type)
	}
	if *bench == nil {
		b, err := opt.NewBench(f.Payload)
		if err != nil {
			return fmt.Errorf("shardnet: building bench from run config: %w", err)
		}
		*bench = b
	}
	if err := conn.Send(Frame{Type: frameReady}); err != nil {
		return err
	}
	for {
		f, err := conn.Recv(opt.IdleTimeout)
		if errors.Is(err, ErrRecvTimeout) {
			// A grant (or Done) may have been eaten by a partition; the
			// idle worker re-announces itself instead of waiting forever.
			if err := conn.Send(Frame{Type: frameReady}); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		switch f.Type {
		case frameGrant:
			g, err := decodeGrant(f.Payload)
			if err != nil {
				return err
			}
			if err := runGrant(conn, opt, *bench, g); errors.Is(err, errRunDone) {
				return nil
			} else if err != nil {
				return err
			}
			if err := conn.Send(Frame{Type: frameReady}); err != nil {
				return err
			}
		case frameFence:
			// A lease this worker no longer holds died; nothing to drop.
		case frameDone:
			return nil
		}
	}
}

// runGrant works items [Start, Items) of the granted slice, heartbeating
// before each item so the lease outlives slow result frames. The worker
// never learns mid-grant that it was fenced — it cannot Recv while
// computing — so a holder whose lease expired under it (a partition)
// finishes as a zombie whose frames the coordinator refuses; purity makes
// that waste, never corruption. A holder that knows it went silent (an
// injected stall) gives the grant up instead.
func runGrant(conn Conn, opt WorkerOptions, bench Bench, g grant) error {
	hb := encodeLeaseRef(leaseRef{Slice: g.Slice, Epoch: g.Epoch})
	for item := g.Start; item < g.Items; item++ {
		var fault Fault
		if opt.FaultTap != nil {
			fault = opt.FaultTap(g.Slice, item)
		}
		if fault.Stall > 0 {
			return stall(conn, opt.Clock, g, fault.Stall)
		}
		if err := conn.Send(Frame{Type: frameHeartbeat, Payload: hb}); err != nil {
			return err
		}
		payload, err := bench.RunItem(g.Slice, item)
		if err != nil {
			return fmt.Errorf("shardnet: slice %d item %d: %w", g.Slice, item, err)
		}
		rf := Frame{Type: frameResult, Payload: encodeResult(result{
			Slice: g.Slice, Epoch: g.Epoch, Item: item, Payload: payload,
		})}
		if fault.Kill {
			if ts, ok := conn.(tornSender); ok {
				ts.SendTorn(rf, fault.Torn)
			} else {
				conn.Close()
			}
			return ErrWorkerKilled
		}
		if err := conn.Send(rf); err != nil {
			return err
		}
	}
	return nil
}

// stall keeps the holder of g silent for ticks clock units. It blocks in
// Recv rather than on the clock, so on the simulated network the stalled
// end counts as idle and time can pass under it, and a Fence for the
// lease ends the stall at once. Frames about other leases are dropped.
func stall(conn Conn, clock Clock, g grant, ticks int64) error {
	lease := leaseRef{Slice: g.Slice, Epoch: g.Epoch}
	until := clock.Now() + ticks
	for wait := ticks; wait > 0; wait = until - clock.Now() {
		f, err := conn.Recv(wait)
		switch {
		case errors.Is(err, ErrRecvTimeout):
			return nil
		case err != nil:
			return err
		case f.Type == frameDone:
			return errRunDone
		case f.Type == frameFence:
			if ref, err := decodeLeaseRef(f.Payload); err == nil && ref == lease {
				return nil
			}
		}
	}
	return nil
}
