package netem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"pinscope/internal/tlswire"
)

// pair returns the two ends of a connection with no server side attached,
// so a test can drive both ends itself.
func pair(flow *Flow) (c, s *end) {
	cn := newConn(flow)
	return &cn.ends[client], &cn.ends[server]
}

func TestPipeSendRecv(t *testing.T) {
	c, s := pair(nil)
	want := tlswire.Record{WireType: tlswire.RecHandshake, Length: 42}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.WireType != want.WireType || got.Length != want.Length {
		t.Fatalf("got %+v", got)
	}
}

func TestPipeDrainAfterPeerClose(t *testing.T) {
	c, s := pair(nil)
	c.Send(tlswire.Record{Length: 1})
	c.Send(tlswire.Record{Length: 2})
	c.Close(tlswire.CloseFIN)

	r1, err := s.Recv()
	if err != nil || r1.Length != 1 {
		t.Fatalf("first drain: %v %v", r1, err)
	}
	r2, err := s.Recv()
	if err != nil || r2.Length != 2 {
		t.Fatalf("second drain: %v %v", r2, err)
	}
	_, err = s.Recv()
	var pe *tlswire.PeerClosedError
	if !errors.As(err, &pe) || pe.Flag != tlswire.CloseFIN {
		t.Fatalf("after drain: %v", err)
	}
	if !errors.Is(err, tlswire.ErrPeerClosed) {
		t.Fatal("errors.Is(ErrPeerClosed) false")
	}
}

func TestPipeSendAfterPeerRST(t *testing.T) {
	c, s := pair(nil)
	s.Close(tlswire.CloseRST)
	err := c.Send(tlswire.Record{Length: 9})
	var pe *tlswire.PeerClosedError
	if !errors.As(err, &pe) || pe.Flag != tlswire.CloseRST {
		t.Fatalf("send to reset peer: %v", err)
	}
}

func TestPipeCloseIdempotent(t *testing.T) {
	c, _ := pair(nil)
	if err := c.Close(tlswire.CloseRST); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(tlswire.CloseFIN); err != nil {
		t.Fatal(err)
	}
	// First flag wins.
	if got := c.c.flag[client]; got != tlswire.CloseRST {
		t.Fatalf("flag after double close: %s", got)
	}
}

func TestFlowCapturesSummariesNotSecrets(t *testing.T) {
	cap := NewCapture()
	fl := cap.newFlow("h.example.com", 1.5)
	c, _ := pair(fl)
	hello := &tlswire.HelloInfo{SNI: "h.example.com", MaxVersion: tlswire.TLS13}
	c.Send(tlswire.Record{WireType: tlswire.RecHandshake, Length: 100, Hello: hello})
	c.Close(tlswire.CloseFIN)

	if fl.Dst != "h.example.com" || fl.At != 1.5 {
		t.Fatalf("flow metadata: %+v", fl)
	}
	if fl.SNI() != "h.example.com" {
		t.Fatalf("SNI %q", fl.SNI())
	}
	recs := fl.Records()
	if len(recs) != 1 || !recs[0].FromClient {
		t.Fatalf("records: %+v", recs)
	}
	cf, _ := fl.CloseFlags()
	if cf != tlswire.CloseFIN {
		t.Fatalf("client close %s", cf)
	}
}

func TestNetworkListenAndDial(t *testing.T) {
	n := New()
	served := make(chan tlswire.Record, 1)
	n.Listen("svc.example.com", func(tr tlswire.Transport) {
		r, err := tr.Recv()
		if err == nil {
			served <- r
		}
	})
	cap := NewCapture()
	tr, err := n.Dial("svc.example.com", DialOpts{At: 2, Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(tlswire.Record{Length: 7})
	tr.Close(tlswire.CloseFIN)
	if r := <-served; r.Length != 7 {
		t.Fatalf("server saw %+v", r)
	}
	if len(cap.Flows()) != 1 {
		t.Fatalf("%d flows", len(cap.Flows()))
	}
}

type recordingInterceptor struct {
	mu    sync.Mutex
	hosts []string
}

func (ri *recordingInterceptor) HandleConn(cs tlswire.Transport, dst string, n *Network) {
	ri.mu.Lock()
	ri.hosts = append(ri.hosts, dst)
	ri.mu.Unlock()
	cs.Close(tlswire.CloseRST)
}

func TestInterceptorReceivesAllDials(t *testing.T) {
	n := New()
	ri := &recordingInterceptor{}
	n.SetInterceptor(ri)
	// Even unknown hosts route to the interceptor (it owns the routing).
	tr, err := n.Dial("anything.example.com", DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close(tlswire.CloseFIN)
	if len(ri.hosts) != 1 || ri.hosts[0] != "anything.example.com" {
		t.Fatalf("interceptor hosts: %v", ri.hosts)
	}
}

func TestDialDirectBypassesInterceptor(t *testing.T) {
	n := New()
	ri := &recordingInterceptor{}
	n.SetInterceptor(ri)
	hit := make(chan bool, 1)
	n.Listen("direct.example.com", func(tr tlswire.Transport) { hit <- true })
	tr, err := n.DialDirect("direct.example.com")
	if err != nil {
		t.Fatal(err)
	}
	tr.Close(tlswire.CloseFIN)
	if !<-hit {
		t.Fatal("direct handler not invoked")
	}
	if len(ri.hosts) != 0 {
		t.Fatal("interceptor saw a direct dial")
	}
}

func TestCaptureNilSafe(t *testing.T) {
	var c *Capture
	if c.Flows() != nil {
		t.Fatal("nil capture returned flows")
	}
}

func TestPipeOrderedDeliveryProperty(t *testing.T) {
	// Every record sent before a close arrives, in order; the queues are
	// unbounded, so any burst fits.
	f := func(lengths []uint8) bool {
		c, s := pair(nil)
		for i, l := range lengths {
			if err := c.Send(tlswire.Record{Length: int(l) + i<<8}); err != nil {
				return false
			}
		}
		c.Close(tlswire.CloseFIN)
		for i, l := range lengths {
			r, err := s.Recv()
			if err != nil || r.Length != int(l)+i<<8 {
				return false
			}
		}
		_, err := s.Recv()
		return err != nil // drained, then closed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureReleaseRecyclesBuffers(t *testing.T) {
	cap1 := NewCapture()
	f := cap1.newFlow("pool.example.com", 1)
	f.addRecord(true, tlswire.Record{Length: 11})
	f.addRecord(false, tlswire.Record{Length: 22})
	recs := f.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records before release", len(recs))
	}
	cap1.Release()
	if got := f.Records(); len(got) != 0 {
		t.Fatalf("released flow still exposes %d records", len(got))
	}
	if got := cap1.Flows(); len(got) != 0 {
		t.Fatalf("released capture still exposes %d flows", len(got))
	}
	// The view taken before the release is read-only: the released buffer
	// goes back to the pool empty, and the next flow drawn from the pool
	// starts with no records.
	if recs[0].Length != 11 || recs[1].Length != 22 {
		t.Fatal("pre-release view was clobbered by Release")
	}
	if got := NewCapture().newFlow("next.example.com", 2).Records(); len(got) != 0 {
		t.Fatalf("a flow drawn after the release starts with %d records", len(got))
	}
	// Double release is a no-op.
	cap1.Release()
}

func TestAddReplayedFlow(t *testing.T) {
	snap := []tlswire.Summary{
		{FromClient: true, WireType: tlswire.RecHandshake, Length: 321},
		{FromClient: false, WireType: tlswire.RecAppData, Length: 55},
	}
	c := NewCapture()
	c.AddReplayedFlow("replay.example.com", 7.5, snap, tlswire.CloseFIN, tlswire.CloseFIN)
	flows := c.Flows()
	if len(flows) != 1 {
		t.Fatalf("got %d flows", len(flows))
	}
	f := flows[0]
	if f.Dst != "replay.example.com" || f.At != 7.5 {
		t.Fatalf("flow identity %q @ %v", f.Dst, f.At)
	}
	got := f.Records()
	if len(got) != 2 || got[0].Length != 321 || got[1].Length != 55 {
		t.Fatalf("replayed records %+v", got)
	}
	cc, sc := f.CloseFlags()
	if cc != tlswire.CloseFIN || sc != tlswire.CloseFIN {
		t.Fatalf("close flags %v/%v", cc, sc)
	}
	// The replayed flow owns its copy: mutating the snapshot afterwards
	// must not reach the capture.
	snap[0].Length = 999
	if f.Records()[0].Length != 321 {
		t.Fatal("replayed flow aliases the caller's snapshot")
	}
}

func TestLastFlow(t *testing.T) {
	var nilCap *Capture
	if nilCap.Last() != nil {
		t.Fatal("nil capture Last != nil")
	}
	c := NewCapture()
	if c.Last() != nil {
		t.Fatal("empty capture Last != nil")
	}
	c.newFlow("one.example.com", 0)
	f2 := c.newFlow("two.example.com", 1)
	if c.Last() != f2 {
		t.Fatal("Last is not the most recent flow")
	}
}
