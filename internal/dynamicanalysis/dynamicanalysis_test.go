package dynamicanalysis

import (
	"testing"

	"pinscope/internal/detrand"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/netem"
	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
	"pinscope/internal/whois"
)

// harness builds a two-host world and executes a scripted client behaviour
// with and without MITM, returning the detector verdicts.
type harness struct {
	t     *testing.T
	net   *netem.Network
	eco   *pki.Ecosystem
	chain map[string]pki.Chain
	proxy *mitmproxy.Proxy
	store *pki.RootStore // device store including proxy CA
}

func newHarness(t *testing.T, hosts ...string) *harness {
	t.Helper()
	eco, err := pki.BuildEcosystem(detrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, net: netem.New(), eco: eco, chain: map[string]pki.Chain{}}
	rng := detrand.New(2)
	for _, host := range hosts {
		chain, _, err := eco.IssuePublicChain(rng.Child(host), host, pki.LeafOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h.chain[host] = chain
		hh := host
		h.net.Listen(hh, func(tr tlswire.Transport) {
			tlswire.Serve(tr, &tlswire.ServerConfig{Chain: h.chain[hh]})
		})
	}
	h.proxy, err = mitmproxy.NewWithCA(detrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	h.store = eco.AOSP.Clone("device")
	h.store.Add(h.proxy.CACert().Cert)
	return h
}

// script is one client connection to run.
type script struct {
	host    string
	pins    *pki.PinSet
	mode    tlswire.FailureMode
	maxV    tlswire.Version
	used    bool
	payload string
}

func (h *harness) run(mitm bool, scripts []script) *netem.Capture {
	h.t.Helper()
	if mitm {
		h.net.SetInterceptor(h.proxy)
	} else {
		h.net.SetInterceptor(nil)
	}
	cap := netem.NewCapture()
	for _, s := range scripts {
		tr, err := h.net.Dial(s.host, netem.DialOpts{Capture: cap})
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

func (h *harness) detect(scripts []script, opts Options) *Result {
	a := h.run(false, scripts)
	b := h.run(true, scripts)
	return Detect("test.app", a, b, opts)
}

func caPin(h *harness, host string) *pki.PinSet {
	return &pki.PinSet{Pins: []pki.Pin{pki.NewPin(h.chain[host][1], pki.SHA256)}}
}

func TestDetectsPinnedDestination(t *testing.T) {
	for _, mode := range []tlswire.FailureMode{
		tlswire.FailAlertClose, tlswire.FailReset, tlswire.FailSilentIdle,
	} {
		for _, v := range []tlswire.Version{tlswire.TLS12, tlswire.TLS13} {
			h := newHarness(t, "pinned.example.com", "open.example.com")
			res := h.detect([]script{
				{host: "pinned.example.com", pins: caPin(h, "pinned.example.com"),
					mode: mode, maxV: v, used: true, payload: "GET /secure"},
				{host: "open.example.com", maxV: v, used: true, payload: "GET /"},
			}, Options{})
			if !res.Verdicts["pinned.example.com"].Pinned {
				t.Fatalf("mode=%v v=%v: pinned destination missed", mode, v)
			}
			if res.Verdicts["open.example.com"].Pinned {
				t.Fatalf("mode=%v v=%v: open destination misdetected", mode, v)
			}
			if !res.Pins() {
				t.Fatal("Result.Pins false")
			}
			got := res.PinnedDests()
			if len(got) != 1 || got[0] != "pinned.example.com" {
				t.Fatalf("PinnedDests: %v", got)
			}
			notPinned := res.NotPinnedDests()
			if len(notPinned) != 1 || notPinned[0] != "open.example.com" {
				t.Fatalf("NotPinnedDests: %v", notPinned)
			}
		}
	}
}

func TestRedundantConnectionsNotMisdetected(t *testing.T) {
	// A destination contacted with used + redundant (unused) connections in
	// both settings must not be flagged: the MITM run still carries data.
	h := newHarness(t, "multi.example.com")
	scripts := []script{
		{host: "multi.example.com", used: true, payload: "GET /"},
		{host: "multi.example.com", used: false},
		{host: "multi.example.com", used: false},
	}
	res := h.detect(scripts, Options{})
	if res.Verdicts["multi.example.com"].Pinned {
		t.Fatal("redundant connections caused a false pinning verdict")
	}
}

func TestOnlyRedundantConnectionsNotPinned(t *testing.T) {
	// A destination never used in the baseline cannot be called pinned even
	// though its MITM connections all fail/idle.
	h := newHarness(t, "idle.example.com")
	res := h.detect([]script{{host: "idle.example.com", used: false}}, Options{})
	if res.Verdicts["idle.example.com"].Pinned {
		t.Fatal("never-used destination flagged as pinned")
	}
}

func TestVersionFailureNotMisdetected(t *testing.T) {
	// A server that rejects the client's protocol version produces alerts
	// in BOTH settings — the differential design must not call it pinned.
	h := newHarness(t, "legacy.example.com")
	h.net.Listen("legacy.example.com", func(tr tlswire.Transport) {
		tlswire.Serve(tr, &tlswire.ServerConfig{
			Chain:      h.chain["legacy.example.com"],
			MinVersion: tlswire.TLS13,
		})
	})
	scripts := []script{{host: "legacy.example.com", maxV: tlswire.TLS11, used: true}}
	res := h.detect(scripts, Options{})
	if res.Verdicts["legacy.example.com"].Pinned {
		t.Fatal("protocol-version failure misdetected as pinning")
	}
}

func TestServerResetNotMisdetected(t *testing.T) {
	h := newHarness(t, "flaky.example.com")
	h.net.Listen("flaky.example.com", func(tr tlswire.Transport) {
		tlswire.Serve(tr, &tlswire.ServerConfig{
			Chain:         h.chain["flaky.example.com"],
			ResetOnAccept: true,
		})
	})
	res := h.detect([]script{{host: "flaky.example.com", used: true}}, Options{})
	if res.Verdicts["flaky.example.com"].Pinned {
		t.Fatal("server-side reset misdetected as pinning")
	}
}

func TestExclusionSuppressesOSDomains(t *testing.T) {
	// An OS-pinned destination (fails under MITM) is excluded by name.
	h := newHarness(t, "assoc.example.com", "app.example.com")
	scripts := []script{
		{host: "assoc.example.com", pins: caPin(h, "assoc.example.com"),
			mode: tlswire.FailAlertClose, used: true, payload: "verify"},
		{host: "app.example.com", used: true, payload: "GET /"},
	}
	res := h.detect(scripts, Options{ExcludeDomains: []string{"assoc.example.com"}})
	v := res.Verdicts["assoc.example.com"]
	if !v.Excluded || v.Pinned {
		t.Fatalf("exclusion failed: %+v", v)
	}
	if res.Pins() {
		t.Fatal("excluded destination still counted as pinning")
	}
	// Suffix exclusion covers subdomains.
	if !excluded("sub.icloud.com", []string{"icloud.com"}) {
		t.Fatal("suffix exclusion broken")
	}
	if excluded("notanicloud.com", []string{"icloud.com"}) {
		t.Fatal("suffix exclusion matches non-boundary")
	}
}

func TestWeakCipherObservation(t *testing.T) {
	h := newHarness(t, "weak.example.com")
	cap := netem.NewCapture()
	tr, _ := h.net.Dial("weak.example.com", netem.DialOpts{Capture: cap})
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName:   "weak.example.com",
		RootStore:    h.store,
		CipherSuites: tlswire.LegacySuites,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Send([]byte("x"))
	conn.Recv()
	conn.Close()
	tr.Close(tlswire.CloseFIN)
	sum := SummarizeCapture(cap)
	if !sum["weak.example.com"].WeakCipherOffered {
		t.Fatal("weak offer not observed")
	}
	if sum["weak.example.com"].Used != 1 {
		t.Fatalf("used count %d", sum["weak.example.com"].Used)
	}
}

func TestClassifyFlowInconclusiveWhenNeverClosed(t *testing.T) {
	// Build a flow by hand: handshake only, no close events.
	cap := netem.NewCapture()
	h := newHarness(t, "x.example.com")
	tr, _ := h.net.Dial("x.example.com", netem.DialOpts{Capture: cap})
	_, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "x.example.com", RootStore: h.store, MaxVersion: tlswire.TLS12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Connection intentionally left open (capture window ends first).
	fl := cap.Flows()[0]
	if got := ClassifyFlow(fl); got != StatusInconclusive {
		t.Fatalf("open unused flow classified %v", got)
	}
	tr.Close(tlswire.CloseFIN)
	if got := ClassifyFlow(fl); got != StatusFailed {
		t.Fatalf("closed unused flow classified %v", got)
	}
}

func TestIsFirstParty(t *testing.T) {
	reg := whois.NewRegistry()
	reg.Register(whois.Record{Domain: "swiftrecipe.com", Org: "Recipe Labs"})
	reg.Register(whois.Record{Domain: "tracker.net", Org: "AdTech Corp"})
	reg.Register(whois.Record{Domain: "private.io", Org: "Recipe Labs", Private: true})

	if !IsFirstParty("api.swiftrecipe.com", "Recipe Labs", "Swift Recipe", reg) {
		t.Fatal("whois org match failed")
	}
	if IsFirstParty("collect.tracker.net", "Recipe Labs", "Swift Recipe", reg) {
		t.Fatal("foreign org attributed first-party")
	}
	// Privacy-protected: fall back to name-token matching.
	if !IsFirstParty("swiftrecipe.private.io", "Recipe Labs", "Swift Recipe", reg) {
		t.Fatal("name-token fallback failed")
	}
	if IsFirstParty("cdn.unrelated.org", "Recipe Labs", "Swift Recipe", reg) {
		t.Fatal("unrelated unregistered domain attributed first-party")
	}
}
