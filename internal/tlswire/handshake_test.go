package tlswire_test

// The handshake emulation is exercised over real netem pipes so these tests
// double as integration tests of the transport.

import (
	"errors"
	"strings"
	"testing"

	"pinscope/internal/detrand"
	"pinscope/internal/netem"
	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

type fixture struct {
	net   *netem.Network
	eco   *pki.Ecosystem
	chain pki.Chain
	store *pki.RootStore
}

func newFixture(t *testing.T, host string, srvCfg *tlswire.ServerConfig) *fixture {
	t.Helper()
	eco, err := pki.BuildEcosystem(detrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := detrand.New(2)
	chain, _, err := eco.IssuePublicChain(rng, host, pki.LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if srvCfg.Chain == nil {
		srvCfg.Chain = chain
	}
	n := netem.New()
	n.Listen(host, func(tr tlswire.Transport) { tlswire.Serve(tr, srvCfg) })
	return &fixture{net: n, eco: eco, chain: chain, store: eco.AOSP}
}

func dial(t *testing.T, f *fixture, host string, cap *netem.Capture) tlswire.Transport {
	t.Helper()
	tr, err := f.net.Dial(host, netem.DialOpts{Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHandshakeAndEchoTLS13(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{})
	cap := netem.NewCapture()
	tr := dial(t, f, "api.example.com", cap)
	defer tr.Close(tlswire.CloseFIN)

	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com",
		RootStore:  f.store,
	})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if conn.Version != tlswire.TLS13 {
		t.Fatalf("negotiated %s, want TLS1.3", conn.Version)
	}
	if len(conn.PeerChain) != 3 {
		t.Fatalf("peer chain length %d", len(conn.PeerChain))
	}
	if err := conn.Send([]byte("GET / HTTP/1.1")); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), "200") {
		t.Fatalf("response: %q", resp)
	}
	conn.Close()

	flows := cap.Flows()
	if len(flows) != 1 {
		t.Fatalf("%d flows captured", len(flows))
	}
	fl := flows[0]
	if fl.SNI() != "api.example.com" {
		t.Fatalf("SNI %q", fl.SNI())
	}
	if fl.NegotiatedVersion() != tlswire.TLS13 {
		t.Fatalf("captured version %s", fl.NegotiatedVersion())
	}
	// TLS 1.3: certificates must NOT be visible to the capture.
	if fl.ObservedChain() != nil {
		t.Fatal("TLS 1.3 leaked cleartext certificates to the capture")
	}
	// Client app-data records: Finished + request + close_notify (all
	// disguised), i.e. > 2 → "used" by the paper's first heuristic.
	n := 0
	for _, r := range fl.Records() {
		if r.FromClient && r.WireType == tlswire.RecAppData {
			n++
		}
	}
	if n <= 2 {
		t.Fatalf("used 1.3 connection shows only %d client app-data records", n)
	}
}

func TestHandshakeTLS12ExposesChainAndAppData(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{MaxVersion: tlswire.TLS12})
	cap := netem.NewCapture()
	tr := dial(t, f, "api.example.com", cap)
	defer tr.Close(tlswire.CloseFIN)

	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com",
		RootStore:  f.store,
	})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if conn.Version != tlswire.TLS12 {
		t.Fatalf("negotiated %s", conn.Version)
	}
	conn.Send([]byte("hello"))
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	fl := cap.Flows()[0]
	chain := fl.ObservedChain()
	if len(chain) != 3 {
		t.Fatalf("capture saw chain of %d certs, want 3 (cleartext in 1.2)", len(chain))
	}
	// In <=1.2 application data records appear only when data flows.
	app := 0
	for _, r := range fl.Records() {
		if r.FromClient && r.WireType == tlswire.RecAppData {
			app++
		}
	}
	if app != 1 {
		t.Fatalf("client sent %d app-data records, want 1", app)
	}
}

func TestUntrustedChainRejected(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{})
	// Client trusts an empty store.
	empty := pki.NewRootStore("empty")
	tr := dial(t, f, "api.example.com", nil)
	defer tr.Close(tlswire.CloseFIN)
	_, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com",
		RootStore:  empty,
	})
	var he *tlswire.HandshakeError
	if !errors.As(err, &he) || he.Stage != "verify" {
		t.Fatalf("err = %v, want verify-stage failure", err)
	}
}

func TestSkipVerifyAcceptsAnything(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{})
	tr := dial(t, f, "api.example.com", nil)
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com",
		SkipVerify: true,
	})
	if err != nil {
		t.Fatalf("SkipVerify handshake failed: %v", err)
	}
	conn.Close()
}

func TestPinMatchSucceeds(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{})
	pins := &pki.PinSet{Pins: []pki.Pin{pki.NewPin(f.chain[1], pki.SHA256)}} // CA pin
	tr := dial(t, f, "api.example.com", nil)
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com",
		RootStore:  f.store,
		Pins:       pins,
	})
	if err != nil {
		t.Fatalf("pinned handshake failed against matching chain: %v", err)
	}
	conn.Close()
}

// pinFailureSignature runs a pinned client against a non-matching chain in
// the given mode/version and returns the captured flow.
func pinFailureSignature(t *testing.T, mode tlswire.FailureMode, maxV tlswire.Version) *netem.Flow {
	t.Helper()
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{MaxVersion: maxV})
	// Pin a certificate that is NOT in the served chain.
	foreign, err := pki.NewSelfSigned(detrand.New(99), "other.example.com", 1)
	if err != nil {
		t.Fatal(err)
	}
	pins := &pki.PinSet{Pins: []pki.Pin{pki.NewPin(foreign.Cert, pki.SHA256)}}
	cap := netem.NewCapture()
	tr := dial(t, f, "api.example.com", cap)
	_, err = tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com",
		RootStore:  f.store,
		Pins:       pins,
		PinFailure: mode,
	})
	if !tlswire.IsPinFailure(err) {
		t.Fatalf("err = %v, want pin failure", err)
	}
	tr.Close(tlswire.CloseFIN) // app teardown
	return cap.Flows()[0]
}

func TestPinFailureAlertTLS12(t *testing.T) {
	fl := pinFailureSignature(t, tlswire.FailAlertClose, tlswire.TLS12)
	sawAlert := false
	for _, r := range fl.Records() {
		if r.FromClient && r.WireType == tlswire.RecAppData {
			t.Fatal("pinned-failed 1.2 connection carried app data")
		}
		if r.FromClient && r.HasAlert && r.Alert == tlswire.AlertBadCertificate {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Fatal("no client bad_certificate alert captured")
	}
	if c, _ := fl.CloseFlags(); c != tlswire.CloseFIN {
		t.Fatalf("client close flag %s, want FIN", c)
	}
}

func TestPinFailureAlertTLS13IsDisguised(t *testing.T) {
	fl := pinFailureSignature(t, tlswire.FailAlertClose, tlswire.TLS13)
	var clientApp []int
	for _, r := range fl.Records() {
		if r.FromClient && r.HasAlert {
			t.Fatal("1.3 alert visible as plaintext alert record")
		}
		if r.FromClient && r.WireType == tlswire.RecAppData {
			clientApp = append(clientApp, r.Length)
		}
	}
	// The failure signature: a single disguised record of exactly the
	// encrypted-alert length.
	if len(clientApp) != 1 || clientApp[0] != tlswire.EncryptedAlertWireLen {
		t.Fatalf("client app-data records %v, want one of length %d",
			clientApp, tlswire.EncryptedAlertWireLen)
	}
}

func TestPinFailureReset(t *testing.T) {
	fl := pinFailureSignature(t, tlswire.FailReset, tlswire.TLS13)
	if c, _ := fl.CloseFlags(); c != tlswire.CloseRST {
		t.Fatalf("client close flag %s, want RST", c)
	}
}

func TestPinFailureSilentIdle(t *testing.T) {
	fl := pinFailureSignature(t, tlswire.FailSilentIdle, tlswire.TLS13)
	// Handshake completes (client Finished goes out) but nothing further.
	clientApp := 0
	for _, r := range fl.Records() {
		if r.FromClient && r.WireType == tlswire.RecAppData {
			clientApp++
		}
	}
	if clientApp != 1 {
		t.Fatalf("silent-idle client sent %d app-data records, want exactly 1 (Finished)", clientApp)
	}
	if c, _ := fl.CloseFlags(); c != tlswire.CloseFIN {
		t.Fatalf("client close flag %s, want FIN", c)
	}
}

func TestVersionNegotiationFailure(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{MinVersion: tlswire.TLS13})
	cap := netem.NewCapture()
	tr := dial(t, f, "api.example.com", cap)
	defer tr.Close(tlswire.CloseFIN)
	_, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName:   "api.example.com",
		MaxVersion:   tlswire.TLS11,
		CipherSuites: tlswire.LegacySuites,
		RootStore:    f.store,
	})
	var he *tlswire.HandshakeError
	if !errors.As(err, &he) || he.Stage != "peer-alert" || he.Alert != tlswire.AlertProtocolVersion {
		t.Fatalf("err = %v, want protocol_version peer alert", err)
	}
	// This is the paper's confounder: an alert that is NOT pinning.
	fl := cap.Flows()[0]
	found := false
	for _, r := range fl.Records() {
		if !r.FromClient && r.HasAlert && r.Alert == tlswire.AlertProtocolVersion {
			found = true
		}
	}
	if !found {
		t.Fatal("no server protocol_version alert captured")
	}
}

func TestServerResetInjection(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{ResetOnAccept: true})
	cap := netem.NewCapture()
	tr := dial(t, f, "api.example.com", cap)
	defer tr.Close(tlswire.CloseFIN)
	_, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com",
		RootStore:  f.store,
	})
	if err == nil {
		t.Fatal("handshake succeeded against resetting server")
	}
	if _, s := cap.Flows()[0].CloseFlags(); s != tlswire.CloseRST {
		t.Fatalf("server close flag %s, want RST", s)
	}
}

func TestNegotiateVersionAndCipherCoupling(t *testing.T) {
	// A 1.3 session must use a 1.3 suite even when the client also offers
	// legacy suites first.
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{})
	tr := dial(t, f, "api.example.com", nil)
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName:   "api.example.com",
		RootStore:    f.store,
		CipherSuites: tlswire.LegacySuites,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !conn.Cipher.TLS13Suite() {
		t.Fatalf("1.3 session negotiated %s", conn.Cipher)
	}
	conn.Close()
}

func TestWeakCipherClassification(t *testing.T) {
	weak := []tlswire.CipherSuite{
		tlswire.RSA_WITH_RC4_128_SHA, tlswire.RSA_WITH_DES_CBC_SHA,
		tlswire.RSA_WITH_3DES_EDE_CBC_SHA, tlswire.RSA_EXPORT_WITH_RC4_40_MD5,
		tlswire.RSA_EXPORT_WITH_DES40_CBC_SHA,
	}
	for _, c := range weak {
		if !c.IsWeak() {
			t.Fatalf("%s not classified weak", c)
		}
	}
	for _, c := range tlswire.ModernSuites {
		if c.IsWeak() {
			t.Fatalf("%s classified weak", c)
		}
	}
}

func TestExpiredLeafRejected(t *testing.T) {
	eco, err := pki.BuildEcosystem(detrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := detrand.New(4)
	chain, _, err := eco.IssuePublicChain(rng, "old.example.com", pki.LeafOptions{
		NotBefore: pki.StudyEpoch.AddDate(-2, 0, 0),
		NotAfter:  pki.StudyEpoch.AddDate(-1, 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := netem.New()
	n.Listen("old.example.com", func(tr tlswire.Transport) {
		tlswire.Serve(tr, &tlswire.ServerConfig{Chain: chain})
	})
	tr, err := n.Dial("old.example.com", netem.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close(tlswire.CloseFIN)
	_, err = tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "old.example.com",
		RootStore:  eco.AOSP,
	})
	var he *tlswire.HandshakeError
	if !errors.As(err, &he) || he.Stage != "verify" {
		t.Fatalf("expired chain: err = %v, want verify failure", err)
	}
}

func TestDialUnknownHost(t *testing.T) {
	n := netem.New()
	if _, err := n.Dial("nowhere.invalid", netem.DialOpts{}); err == nil {
		t.Fatal("dial to unknown host succeeded")
	}
}

func TestConnSendAfterClose(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{})
	tr := dial(t, f, "api.example.com", nil)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com", RootStore: f.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := conn.Send([]byte("late")); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

func TestSessionTicketsDoNotDisturbClients(t *testing.T) {
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{SessionTickets: 2})
	cap := netem.NewCapture()
	tr := dial(t, f, "api.example.com", cap)
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com", RootStore: f.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tickets arrive before the response; Recv must skip them.
	if err := conn.Send([]byte("GET /")); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil || !strings.Contains(string(resp), "200") {
		t.Fatalf("resp %q err %v", resp, err)
	}
	conn.Close()

	// The tickets appear on the wire as extra server application_data
	// records — and as exactly that, nothing else.
	fl := cap.Flows()[0]
	serverApp := 0
	for _, r := range fl.Records() {
		if !r.FromClient && r.WireType == tlswire.RecAppData {
			serverApp++
		}
	}
	// server flight (2) + 2 tickets + response + close_notify
	if serverApp < 5 {
		t.Fatalf("expected ticket records on the wire, saw %d server app-data records", serverApp)
	}
}

func TestSessionTicketsTLS12Ignored(t *testing.T) {
	// Tickets are a 1.3 feature here; a 1.2 session must not emit them.
	f := newFixture(t, "api.example.com", &tlswire.ServerConfig{
		MaxVersion: tlswire.TLS12, SessionTickets: 3,
	})
	cap := netem.NewCapture()
	tr := dial(t, f, "api.example.com", cap)
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: "api.example.com", RootStore: f.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	for _, r := range cap.Flows()[0].Records() {
		if !r.FromClient && r.WireType == tlswire.RecAppData {
			t.Fatal("1.2 session produced app-data records without app data")
		}
	}
}
