package netem

import (
	"errors"
	"testing"

	"pinscope/internal/tlswire"
)

// WaitIdle marks the point in the fault tests where the network must be
// idle. It has nothing to do: closing a client transport already runs the
// server side to completion, so once every client is closed the network
// is idle.
func (n *Network) WaitIdle() {}

// echoOnce answers the first record with one of twice its length, then
// drains until the client goes away.
func echoOnce(tr tlswire.Transport) {
	r, err := tr.Recv()
	if err != nil {
		return
	}
	tr.Send(tlswire.Record{Length: 2 * r.Length})
	for {
		if _, err := tr.Recv(); err != nil {
			return
		}
	}
}

func TestRecvWithBothEndsWaitingFailsPromptly(t *testing.T) {
	// The client receives before sending anything, so both ends wait: Recv
	// must report the stall instead of hanging, and the connection stays
	// usable afterwards.
	n := New()
	n.Listen("stall.example.com", echoOnce)
	tr, err := n.Dial("stall.example.com", DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tr.Recv(); !errors.Is(err, ErrStalled) {
			t.Fatalf("Recv with both ends waiting: %v, want ErrStalled", err)
		}
	}
	if err := tr.Send(tlswire.Record{Length: 21}); err != nil {
		t.Fatal(err)
	}
	r, err := tr.Recv()
	if err != nil || r.Length != 42 {
		t.Fatalf("after the stall: %+v %v", r, err)
	}
	tr.Close(tlswire.CloseFIN)

	// A lone end with no server side attached stalls the same way, from
	// either side.
	c, s := pair(nil)
	if _, err := c.Recv(); !errors.Is(err, ErrStalled) {
		t.Fatalf("client end with no server: %v", err)
	}
	if _, err := s.Recv(); !errors.Is(err, ErrStalled) {
		t.Fatalf("server end with no client driving it: %v", err)
	}
}

func TestCloseReturnsAfterHandlerReturns(t *testing.T) {
	// The server side runs only when the client waits or closes; Close
	// returns once the handler has returned, with the flow's records and
	// close flags final.
	n := New()
	var got []int
	returned := false
	n.Listen("fin.example.com", func(tr tlswire.Transport) {
		defer func() { returned = true }()
		for {
			r, err := tr.Recv()
			if err != nil {
				return
			}
			got = append(got, r.Length)
		}
	})
	cap := NewCapture()
	tr, err := n.Dial("fin.example.com", DialOpts{Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(tlswire.Record{Length: 1})
	tr.Send(tlswire.Record{Length: 2})
	if returned || len(got) != 0 {
		t.Fatal("the handler ran before the client waited or closed")
	}
	tr.Close(tlswire.CloseFIN)
	if !returned {
		t.Fatal("Close returned before the handler did")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("handler received %v, want [1 2]", got)
	}
	fl := cap.Flows()[0]
	if cc, sc := fl.CloseFlags(); cc != tlswire.CloseFIN || sc != tlswire.CloseFIN {
		t.Fatalf("close flags %s/%s, want FIN/FIN", cc, sc)
	}
	if len(fl.Records()) != 2 {
		t.Fatalf("captured %d records, want 2", len(fl.Records()))
	}
	if err := tr.Close(tlswire.CloseRST); err != nil {
		t.Fatal(err)
	}
	if cc, _ := fl.CloseFlags(); cc != tlswire.CloseFIN {
		t.Fatal("a second Close changed the recorded flag")
	}
}

func TestHandlerPanicReachesDialer(t *testing.T) {
	n := New()
	n.Listen("panic.example.com", func(tr tlswire.Transport) {
		tr.Recv()
		panic("handler exploded")
	})
	tr, err := n.Dial("panic.example.com", DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(tlswire.Record{Length: 1})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		tr.Recv()
	}()
	if recovered != "handler exploded" {
		t.Fatalf("dialer recovered %v, want the handler's panic", recovered)
	}
	// The panicked server side is over: closing neither re-panics nor
	// hangs.
	if err := tr.Close(tlswire.CloseFIN); err != nil {
		t.Fatal(err)
	}
}

// returningInterceptor reads the ClientHello-sized first record and
// returns without closing its side.
type returningInterceptor struct{}

func (returningInterceptor) HandleConn(cs tlswire.Transport, dst string, n *Network) {
	cs.Recv()
}

func TestInterceptorReturningWithoutCloseYieldsPeerClosed(t *testing.T) {
	n := New()
	n.SetInterceptor(returningInterceptor{})
	cap := NewCapture()
	tr, err := n.Dial("gone.example.com", DialOpts{Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(tlswire.Record{Length: 5})
	_, err = tr.Recv()
	var pe *tlswire.PeerClosedError
	if !errors.As(err, &pe) {
		t.Fatalf("Recv after the interceptor returned: %v, want PeerClosedError", err)
	}
	tr.Close(tlswire.CloseFIN)
	if _, sc := cap.Flows()[0].CloseFlags(); sc != pe.Flag {
		t.Fatalf("flow shows server close %s, client saw %s", sc, pe.Flag)
	}
}

// relayInterceptor forwards each client record to the genuine host over a
// nested DialDirect and relays the answer back.
type relayInterceptor struct{ upstreamDone *bool }

func (ri relayInterceptor) HandleConn(cs tlswire.Transport, dst string, n *Network) {
	defer cs.Close(tlswire.CloseFIN)
	up, err := n.DialDirect(dst)
	if err != nil {
		return
	}
	defer func() {
		up.Close(tlswire.CloseFIN)
		*ri.upstreamDone = true
	}()
	for {
		r, err := cs.Recv()
		if err != nil {
			return
		}
		if err := up.Send(r); err != nil {
			return
		}
		resp, err := up.Recv()
		if err != nil {
			return
		}
		if err := cs.Send(resp); err != nil {
			return
		}
	}
}

func TestInterceptorNestedDialDirect(t *testing.T) {
	n := New()
	n.Listen("origin.example.com", echoOnce)
	upstreamDone := false
	n.SetInterceptor(relayInterceptor{upstreamDone: &upstreamDone})
	cap := NewCapture()
	tr, err := n.Dial("origin.example.com", DialOpts{Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(tlswire.Record{Length: 50})
	r, err := tr.Recv()
	if err != nil || r.Length != 100 {
		t.Fatalf("relayed answer %+v %v, want length 100", r, err)
	}
	tr.Close(tlswire.CloseFIN)
	if !upstreamDone {
		t.Fatal("Close returned before the nested upstream leg finished")
	}
	fl := cap.Flows()[0]
	if len(fl.Records()) != 2 {
		t.Fatalf("captured %d records; only the client leg should be captured", len(fl.Records()))
	}
	if cc, sc := fl.CloseFlags(); cc != tlswire.CloseFIN || sc != tlswire.CloseFIN {
		t.Fatalf("close flags %s/%s", cc, sc)
	}
}
