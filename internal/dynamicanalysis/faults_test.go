package dynamicanalysis

// faults_test.go exercises the detector against monitoring-point fault
// injection: truncated capture windows must classify inconclusive, not
// failed, and tap record drops must only ever degrade the differential
// verdict toward a miss — never invert an open destination into a pin.

import (
	"testing"

	"pinscope/internal/netem"
	"pinscope/internal/tlswire"
)

// runFaulted is harness.run with per-connection capture faults applied to
// every dial.
func (h *harness) runFaulted(mitm bool, scripts []script, faults netem.ConnFaults) *netem.Capture {
	h.t.Helper()
	if mitm {
		h.net.SetInterceptor(h.proxy)
	} else {
		h.net.SetInterceptor(nil)
	}
	cap := netem.NewCapture()
	for _, s := range scripts {
		tr, err := h.net.Dial(s.host, netem.DialOpts{Capture: cap, Faults: faults})
		if err != nil {
			h.t.Fatal(err)
		}
		conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
			ServerName: s.host,
			RootStore:  h.store,
			Pins:       s.pins,
			PinFailure: s.mode,
			MaxVersion: s.maxV,
		})
		if err == nil && s.used {
			conn.Send([]byte(s.payload))
			conn.Recv()
			conn.Close()
		}
		tr.Close(tlswire.CloseFIN)
	}
	return cap
}

func TestClassifyFlowInconclusiveUnderWindowCut(t *testing.T) {
	// The capture window cuts off mid-handshake: the connection really was
	// torn down by the client (a pin rejection), but the tap never saw the
	// teardown. Without close evidence the flow must stay inconclusive.
	h := newHarness(t, "cut.example.com")
	scripts := []script{{
		host: "cut.example.com", pins: caPin(h, "cut.example.com"),
		mode: tlswire.FailAlertClose, used: true, payload: "x",
	}}
	cap := h.runFaulted(true, scripts, netem.ConnFaults{CaptureTailAfter: 2})
	fl := cap.Flows()[0]
	if got := ClassifyFlow(fl); got != StatusInconclusive {
		t.Fatalf("window-cut flow classified %v, want inconclusive", got)
	}
	sum := SummarizeCapture(cap)
	ds := sum["cut.example.com"]
	if ds.Inconclusive != 1 || ds.Failed != 0 || ds.Used != 0 {
		t.Fatalf("summary %+v, want 1 inconclusive", ds)
	}
}

func TestClassifyFlowInconclusiveOnInjectedReset(t *testing.T) {
	// An injected mid-handshake RST arrives from the server direction; the
	// client never closed. That must not read as a client pin rejection.
	h := newHarness(t, "reset.example.com")
	scripts := []script{{host: "reset.example.com", used: true, payload: "x"}}
	cap := h.runFaulted(true, scripts, netem.ConnFaults{ResetAfter: 2})
	fl := cap.Flows()[0]
	clientClose, serverClose := fl.CloseFlags()
	if clientClose != tlswire.CloseNone || serverClose != tlswire.CloseRST {
		t.Fatalf("closes %s/%s, want none/RST", clientClose, serverClose)
	}
	if got := ClassifyFlow(fl); got != StatusInconclusive {
		t.Fatalf("injected-reset flow classified %v, want inconclusive", got)
	}
}

func TestDetectorDegradesToMissUnderRecordDrops(t *testing.T) {
	// Sweep single-record tap drops over both captures of a two-destination
	// differential. The invariant under ANY observation loss: the open
	// destination is never inverted into a pin (fabrication); the pinned
	// destination may at worst be missed (degradation).
	for drop := 0; drop < 8; drop++ {
		for _, v := range []tlswire.Version{tlswire.TLS12, tlswire.TLS13} {
			h := newHarness(t, "pinned.example.com", "open.example.com")
			scripts := []script{
				{host: "pinned.example.com", pins: caPin(h, "pinned.example.com"),
					mode: tlswire.FailAlertClose, maxV: v, used: true, payload: "GET /secure"},
				{host: "open.example.com", maxV: v, used: true, payload: "GET /"},
			}
			faults := netem.ConnFaults{DropCaptureRecord: func(i int) bool { return i == drop }}
			base := h.runFaulted(false, scripts, faults)
			inter := h.runFaulted(true, scripts, faults)
			res := Detect("test.app", base, inter, Options{})
			if res.Verdicts["open.example.com"].Pinned {
				t.Fatalf("drop=%d v=%v: open destination inverted into a pin", drop, v)
			}
			if ov := res.Verdicts["open.example.com"]; !ov.UsedMITM && drop > 6 {
				// Late drops never touch the payload records; data under MITM
				// must still be observed.
				t.Fatalf("drop=%d v=%v: open destination lost its MITM usage evidence", drop, v)
			}
		}
	}
}

func TestDetectorStillFiresWithoutDrops(t *testing.T) {
	// Control for the sweep above: with the same scripted world and no
	// faults, the pinned destination is detected — so any miss under drops
	// is attributable to the injected observation loss alone.
	h := newHarness(t, "pinned.example.com", "open.example.com")
	scripts := []script{
		{host: "pinned.example.com", pins: caPin(h, "pinned.example.com"),
			mode: tlswire.FailAlertClose, maxV: tlswire.TLS13, used: true, payload: "GET /secure"},
		{host: "open.example.com", maxV: tlswire.TLS13, used: true, payload: "GET /"},
	}
	base := h.runFaulted(false, scripts, netem.ConnFaults{})
	inter := h.runFaulted(true, scripts, netem.ConnFaults{})
	res := Detect("test.app", base, inter, Options{})
	if !res.Verdicts["pinned.example.com"].Pinned {
		t.Fatal("faultless control missed the pinned destination")
	}
	if res.Verdicts["open.example.com"].Pinned {
		t.Fatal("faultless control misdetected the open destination")
	}
}
