package mitmproxy

import (
	"bytes"
	"strings"
	"testing"

	"pinscope/internal/detrand"
	"pinscope/internal/netem"
	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

type world struct {
	net   *netem.Network
	eco   *pki.Ecosystem
	proxy *Proxy
	chain pki.Chain // genuine chain of svc.example.com
	// trustingStore is a device store that includes the proxy CA.
	trustingStore *pki.RootStore
}

func newWorld(t *testing.T) *world {
	t.Helper()
	eco, err := pki.BuildEcosystem(detrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	chain, _, err := eco.IssuePublicChain(detrand.New(2), "svc.example.com", pki.LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := netem.New()
	n.Listen("svc.example.com", func(tr tlswire.Transport) {
		tlswire.Serve(tr, &tlswire.ServerConfig{Chain: chain})
	})
	proxy, err := NewWithCA(detrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	n.SetInterceptor(proxy)
	store := eco.AOSP.Clone("device")
	store.Add(proxy.CACert().Cert)
	return &world{net: n, eco: eco, proxy: proxy, chain: chain, trustingStore: store}
}

func TestInterceptionRelaysData(t *testing.T) {
	w := newWorld(t)
	cap := netem.NewCapture()
	tr, err := w.net.Dial("svc.example.com", netem.DialOpts{Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close(tlswire.CloseFIN)

	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "svc.example.com",
		RootStore:  w.trustingStore,
	})
	if err != nil {
		t.Fatalf("handshake through proxy: %v", err)
	}
	// The chain the client saw must be the FORGED one, not the genuine one.
	if conn.PeerChain.Root().Subject.CommonName != "mitmproxy" {
		t.Fatalf("client saw root %q, want forged mitmproxy root",
			conn.PeerChain.Root().Subject.CommonName)
	}
	if err := conn.Send([]byte("GET /secret?adid=XYZ")); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), "200") {
		t.Fatalf("relayed response: %q", resp)
	}
	conn.Close()
	tr.Close(tlswire.CloseFIN)

	logs := w.proxy.Logs()
	if len(logs) != 1 {
		t.Fatalf("%d proxy logs", len(logs))
	}
	lg := logs[0]
	if !lg.ClientOK || !lg.UpstreamOK {
		t.Fatalf("log flags: %+v", lg)
	}
	if len(lg.Payloads) != 1 || !strings.Contains(string(lg.Payloads[0]), "adid=XYZ") {
		t.Fatalf("plaintext not logged: %q", lg.Payloads)
	}
	// The proxy recorded the GENUINE upstream chain.
	if !lg.UpstreamChain.Leaf().Equal(w.chain.Leaf()) {
		t.Fatal("upstream chain not the genuine one")
	}
}

func TestUntrustedProxyCAFailsWithoutInstall(t *testing.T) {
	w := newWorld(t)
	tr, err := w.net.Dial("svc.example.com", netem.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close(tlswire.CloseFIN)
	_, err = tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "svc.example.com",
		RootStore:  w.eco.AOSP, // proxy CA NOT installed
	})
	if err == nil {
		t.Fatal("client accepted forged chain without trusting proxy CA")
	}
	if lg := w.proxy.Logs()[0]; lg.ClientOK {
		t.Fatal("proxy logged ClientOK for rejected handshake")
	}
}

func TestPinnedClientRejectsForgedChain(t *testing.T) {
	w := newWorld(t)
	// Pin the genuine leaf: even though the proxy CA is trusted, the forged
	// chain cannot contain the pinned certificate.
	pins := &pki.PinSet{Pins: []pki.Pin{pki.NewPin(w.chain.Leaf(), pki.SHA256)}}
	tr, err := w.net.Dial("svc.example.com", netem.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close(tlswire.CloseFIN)
	_, err = tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "svc.example.com",
		RootStore:  w.trustingStore,
		Pins:       pins,
	})
	if !tlswire.IsPinFailure(err) {
		t.Fatalf("err = %v, want pin failure", err)
	}
	if lg := w.proxy.Logs()[0]; lg.ClientOK || len(lg.Payloads) != 0 {
		t.Fatalf("pinned connection leaked through proxy: %+v", lg)
	}
}

func TestPinnedClientSucceedsWithoutProxy(t *testing.T) {
	// Sanity check of the differential design: same pinned client works
	// fine when no interception happens.
	w := newWorld(t)
	w.net.SetInterceptor(nil)
	pins := &pki.PinSet{Pins: []pki.Pin{pki.NewPin(w.chain.Leaf(), pki.SHA256)}}
	tr, err := w.net.Dial("svc.example.com", netem.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "svc.example.com",
		RootStore:  w.eco.AOSP,
		Pins:       pins,
	})
	if err != nil {
		t.Fatalf("pinned client failed without MITM: %v", err)
	}
	conn.Close()
}

func TestUpstreamUnreachable(t *testing.T) {
	w := newWorld(t)
	tr, err := w.net.Dial("ghost.example.com", netem.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "ghost.example.com",
		RootStore:  w.trustingStore,
	})
	// Handshake with the proxy succeeds (forged chain), but the first
	// exchange fails because there is no upstream.
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	conn.Send([]byte("hi"))
	if _, err := conn.Recv(); err == nil {
		t.Fatal("expected failure for unreachable upstream")
	}
	if lg := w.proxy.Logs()[0]; lg.UpstreamOK {
		t.Fatal("UpstreamOK for unreachable host")
	}
}

func TestForgedLeafCache(t *testing.T) {
	w := newWorld(t)
	c1, err := w.proxy.forgedChain("a.example.com")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := w.proxy.forgedChain("a.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Leaf().Equal(c2.Leaf()) {
		t.Fatal("cache miss on repeated host")
	}
	c3, err := w.proxy.forgedChain("b.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Leaf().Equal(c3.Leaf()) {
		t.Fatal("distinct hosts share a forged leaf")
	}
	// Forged leaf must carry the requested hostname.
	if c3.Leaf().DNSNames[0] != "b.example.com" {
		t.Fatalf("forged SAN %v", c3.Leaf().DNSNames)
	}
}

func TestResetLogs(t *testing.T) {
	w := newWorld(t)
	tr, _ := w.net.Dial("svc.example.com", netem.DialOpts{})
	tr.Close(tlswire.CloseFIN)
	if len(w.proxy.Logs()) == 0 {
		t.Fatal("no log recorded")
	}
	w.proxy.ResetLogs()
	if len(w.proxy.Logs()) != 0 {
		t.Fatal("ResetLogs did not clear")
	}
}

func TestInterceptionTLS12(t *testing.T) {
	// Interception must work for legacy clients too: the forged chain is
	// delivered in cleartext and the relay still carries data.
	w := newWorld(t)
	cap := netem.NewCapture()
	tr, err := w.net.Dial("svc.example.com", netem.DialOpts{Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "svc.example.com",
		RootStore:  w.trustingStore,
		MaxVersion: tlswire.TLS12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if conn.Version != tlswire.TLS12 {
		t.Fatalf("negotiated %s", conn.Version)
	}
	conn.Send([]byte("GET /legacy"))
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The captured cleartext chain is the FORGED one.
	chain := cap.Flows()[0].ObservedChain()
	if len(chain) == 0 || chain.Root().Subject.CommonName != "mitmproxy" {
		t.Fatalf("capture did not see the forged chain: %v", chain)
	}
	lg := w.proxy.Logs()[0]
	if !lg.ClientOK || len(lg.Payloads) != 1 {
		t.Fatalf("log: %+v", lg)
	}
}

func TestDestPrefersSNI(t *testing.T) {
	lg := &ConnLog{Host: "1.2.3.4", SNI: "real.example.com"}
	if lg.Dest() != "real.example.com" {
		t.Fatalf("Dest = %q", lg.Dest())
	}
	lg2 := &ConnLog{Host: "fallback.example.com"}
	if lg2.Dest() != "fallback.example.com" {
		t.Fatalf("Dest = %q", lg2.Dest())
	}
}

// TestSharedChainStore: two proxies built from the same CA and the same
// deterministic rng derivation, wired to one shared chain store, serve
// pointer-identical forged chains — and the leaf is issued exactly once
// between them. This is the cross-worker plane contract.
func TestSharedChainStore(t *testing.T) {
	base := detrand.New(9)
	ca, err := pki.NewRootCA(base.Child("mitm-ca"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		t.Fatal(err)
	}
	store := pki.NewChainStore()
	p1 := New(ca, base.Child("mitm-forge"))
	p1.UseChainStore(store)
	p2 := New(ca, base.Child("mitm-forge"))
	p2.UseChainStore(store)

	c1, err := p1.forgedChain("shared.example.com")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p2.forgedChain("shared.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Leaf() != c2.Leaf() {
		t.Fatal("proxies sharing a chain store got distinct leaf objects")
	}
	if store.Len() != 1 {
		t.Fatalf("store interned %d chains, want 1", store.Len())
	}

	// A cold proxy on the same derivation must forge the same leaf identity:
	// the key is detrand-derived, so only the (export-invisible) ECDSA
	// signature nonce differs between issuances. Sharing moves who pays the
	// issuance cost, not what the device sees validated or pinned.
	cold := New(ca, detrand.New(9).Child("mitm-forge"))
	c3, err := cold.forgedChain("shared.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Leaf().RawSubjectPublicKeyInfo, c3.Leaf().RawSubjectPublicKeyInfo) {
		t.Fatal("shared-store leaf key differs from a cold proxy's forge")
	}
	if c1.Leaf().DNSNames[0] != c3.Leaf().DNSNames[0] {
		t.Fatal("shared-store leaf SAN differs from a cold proxy's forge")
	}
}

// TestForgeFaultBeatsSharedCache: a transient forge fault must fire even
// when the shared store already holds the host's chain.
func TestForgeFaultBeatsSharedCache(t *testing.T) {
	base := detrand.New(10)
	ca, err := pki.NewRootCA(base.Child("mitm-ca"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		t.Fatal(err)
	}
	p := New(ca, base.Child("mitm-forge"))
	p.UseChainStore(pki.NewChainStore())
	if _, err := p.forgedChain("faulty.example.com"); err != nil {
		t.Fatal(err)
	}
	p.SetForgeFaults(alwaysFail{})
	if _, err := p.forgedChain("faulty.example.com"); err == nil {
		t.Fatal("warm shared cache masked a forge fault")
	}
	p.SetForgeFaults(nil)
	if _, err := p.forgedChain("faulty.example.com"); err != nil {
		t.Fatal(err)
	}
}

type alwaysFail struct{}

func (alwaysFail) ForgeFails(string) bool { return true }
