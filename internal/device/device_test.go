package device

import (
	"fmt"
	"strings"
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/apppkg"
	"pinscope/internal/detrand"
	"pinscope/internal/frida"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/netem"
	"pinscope/internal/pii"
	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

// testWorld wires a minimal network: two app hosts plus the Apple
// background and associated domains.
type testWorld struct {
	net      *netem.Network
	eco      *pki.Ecosystem
	chains   map[string]pki.Chain
	proxy    *mitmproxy.Proxy
	deviceRS *pki.RootStore
}

var testHosts = []string{
	"api.myapp.example.com", "tracker.example.net",
	"icloud.com", "apple.com", "mzstatic.com", "assoc.myapp.example.com",
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	eco, err := pki.BuildEcosystem(detrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	n := netem.New()
	chains := map[string]pki.Chain{}
	rng := detrand.New(2)
	for _, h := range testHosts {
		chain, _, err := eco.IssuePublicChain(rng.Child(h), h, pki.LeafOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chains[h] = chain
		host := h
		n.Listen(host, func(tr tlswire.Transport) {
			tlswire.Serve(tr, &tlswire.ServerConfig{Chain: chains[host]})
		})
	}
	proxy, err := mitmproxy.NewWithCA(detrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{net: n, eco: eco, chains: chains, proxy: proxy, deviceRS: eco.IOS}
}

func testApp(w *testWorld, platform appmodel.Platform) *appmodel.App {
	pins := &pki.PinSet{Pins: []pki.Pin{pki.NewPin(w.chains["api.myapp.example.com"][1], pki.SHA256)}}
	return &appmodel.App{
		ID:       "com.example.myapp",
		Name:     "My App",
		Platform: platform,
		Conns: []appmodel.PlannedConn{
			{Host: "api.myapp.example.com", At: 1, Used: true, Pins: pins,
				Lib: appmodel.LibNSURLSession, Path: "/login", FirstParty: true},
			{Host: "tracker.example.net", At: 2, Used: true,
				Lib: appmodel.LibNSURLSession, Path: "/t", PIIKinds: []pii.Kind{pii.AdID}},
			{Host: "tracker.example.net", At: 3, Used: false, // redundant
				Lib: appmodel.LibNSURLSession, Path: "/t"},
			{Host: "api.myapp.example.com", At: 75, Used: true, // outside every window
				Lib: appmodel.LibNSURLSession, Path: "/late", FirstParty: true},
		},
		AssociatedDomains: []string{"assoc.myapp.example.com"},
	}
}

func flowsTo(cap *netem.Capture, host string) []*netem.Flow {
	var out []*netem.Flow
	for _, f := range cap.Flows() {
		if f.Dst == host {
			out = append(out, f)
		}
	}
	return out
}

func hasClientAppData(f *netem.Flow) bool {
	n := 0
	for _, r := range f.Records() {
		if r.FromClient && r.WireType == tlswire.RecAppData {
			n++
		}
	}
	return n > 0
}

func TestRunWithoutMITM(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(10))
	app := testApp(w, appmodel.IOS)
	// A 60 s window covers the whole associated-domain verification burst,
	// so its traffic is guaranteed to land inside the capture.
	cap := d.Run(app, RunOptions{Window: 60})

	// Window filtering: the At=55 connection must not appear.
	api := flowsTo(cap, "api.myapp.example.com")
	if len(api) != 1 {
		t.Fatalf("%d flows to api host, want 1 (late conn filtered)", len(api))
	}
	if !hasClientAppData(api[0]) {
		t.Fatal("pinned conn unused without MITM")
	}
	// Redundant connection: present but one of the two tracker flows
	// carries no request payload beyond the handshake.
	tracker := flowsTo(cap, "tracker.example.net")
	if len(tracker) != 2 {
		t.Fatalf("%d tracker flows", len(tracker))
	}
	// Apple background + associated domain traffic present (LaunchDelay 0).
	if len(flowsTo(cap, "icloud.com")) != 1 {
		t.Fatal("no Apple background traffic captured")
	}
	if len(flowsTo(cap, "assoc.myapp.example.com")) == 0 {
		t.Fatal("no associated-domain traffic captured at LaunchDelay 0")
	}
}

func TestRunAndroidHasNoOSBackground(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.Android, w.net, w.eco.OEM, detrand.New(11))
	app := testApp(w, appmodel.Android)
	app.AssociatedDomains = nil
	cap := d.Run(app, RunOptions{})
	if len(flowsTo(cap, "icloud.com")) != 0 {
		t.Fatal("Android run captured Apple background traffic")
	}
}

func TestLaunchDelaySkipsAssociatedDomains(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(12))
	app := testApp(w, appmodel.IOS)
	cap := d.Run(app, RunOptions{LaunchDelay: 120})
	if len(flowsTo(cap, "assoc.myapp.example.com")) != 0 {
		t.Fatal("associated-domain traffic captured despite 120s delay")
	}
	// Apple service domains persist regardless.
	if len(flowsTo(cap, "apple.com")) != 1 {
		t.Fatal("Apple service traffic missing in delayed run")
	}
}

func TestRunUnderMITM(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(13))
	d.InstallCA(w.proxy.CACert())
	w.net.SetInterceptor(w.proxy)
	app := testApp(w, appmodel.IOS)
	cap := d.Run(app, RunOptions{})

	// Pinned destination: no app data under MITM.
	for _, f := range flowsTo(cap, "api.myapp.example.com") {
		for _, r := range f.Records() {
			if r.FromClient && r.WireType == tlswire.RecAppData &&
				r.Length != tlswire.EncryptedAlertWireLen {
				t.Fatal("pinned conn transmitted data under MITM")
			}
		}
	}
	// Unpinned destination: data flows, proxy logged plaintext with AdID.
	sawAdID := false
	for _, lg := range w.proxy.Logs() {
		for _, p := range lg.Payloads {
			if strings.Contains(string(p), d.Profile.AdID) {
				sawAdID = true
			}
		}
	}
	if !sawAdID {
		t.Fatal("proxy did not observe the device Ad ID on unpinned traffic")
	}
	// OS associated-domain traffic fails under MITM (system store does not
	// trust the proxy CA) — the false-pinning confounder.
	for _, f := range flowsTo(cap, "assoc.myapp.example.com") {
		if hasClientAppData(f) {
			// TLS 1.3 alert is disguised as app data; require it to be
			// alert-sized only.
			for _, r := range f.Records() {
				if r.FromClient && r.WireType == tlswire.RecAppData && r.Length != tlswire.EncryptedAlertWireLen {
					t.Fatal("OS verification traffic succeeded under MITM")
				}
			}
		}
	}
}

func TestHooksDisablePinning(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(14))
	d.InstallCA(w.proxy.CACert())
	w.net.SetInterceptor(w.proxy)
	app := testApp(w, appmodel.IOS)

	hooks, err := frida.Attach(appmodel.IOS, d.Jailbroken)
	if err != nil {
		t.Fatal(err)
	}
	cap := d.Run(app, RunOptions{Hooks: hooks})
	api := flowsTo(cap, "api.myapp.example.com")
	if len(api) != 1 || !hasClientAppData(api[0]) {
		t.Fatal("hooked pinned conn still failed under MITM")
	}
	// Pinned plaintext is now visible at the proxy.
	sawLogin := false
	for _, lg := range w.proxy.Logs() {
		if lg.Host != "api.myapp.example.com" {
			continue
		}
		for _, p := range lg.Payloads {
			if strings.Contains(string(p), "/login") {
				sawLogin = true
			}
		}
	}
	if !sawLogin {
		t.Fatal("pinned payload not observed after circumvention")
	}
}

func TestHooksDoNotCoverCustomStacks(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(15))
	d.InstallCA(w.proxy.CACert())
	w.net.SetInterceptor(w.proxy)
	app := testApp(w, appmodel.IOS)
	app.Conns[0].Lib = appmodel.LibCustomNative

	hooks, _ := frida.Attach(appmodel.IOS, true)
	cap := d.Run(app, RunOptions{Hooks: hooks})
	api := flowsTo(cap, "api.myapp.example.com")
	for _, r := range api[0].Records() {
		if r.FromClient && r.WireType == tlswire.RecAppData && r.Length != tlswire.EncryptedAlertWireLen {
			t.Fatal("custom-native pinned conn was circumvented")
		}
	}
}

func TestDecryptAppRequiresJailbreak(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(16))
	app := testApp(w, appmodel.IOS)
	pkgApp := &appmodel.App{ID: "x"}
	pkgApp.Pkg = newEncryptedPkg()
	if err := d.DecryptApp(pkgApp); err != nil {
		t.Fatalf("jailbroken decrypt failed: %v", err)
	}
	if pkgApp.Pkg.Encrypted {
		t.Fatal("package still encrypted")
	}

	d2 := New(appmodel.Android, w.net, w.eco.OEM, detrand.New(17))
	d2.Jailbroken = false
	pkgApp2 := &appmodel.App{ID: "y", Pkg: newEncryptedPkg()}
	if err := d2.DecryptApp(pkgApp2); err == nil {
		t.Fatal("decrypt succeeded without jailbreak")
	}
	_ = app
}

// pkgImage snapshots every byte a reader of the package can observe.
func pkgImage(p *apppkg.Package) string {
	var b strings.Builder
	fmt.Fprintf(&b, "encrypted=%v\n", p.Encrypted)
	for _, f := range p.Files() {
		fmt.Fprintf(&b, "%s exec=%v %x\n", f.Path, f.Executable, f.Data)
	}
	return b.String()
}

func TestDecryptLeavesInputPackageUnchanged(t *testing.T) {
	// A world's apps are read concurrently by every worker and attempt:
	// decryption must hand back a copy and never write the shared app or
	// its package.
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(19))
	pkg := newEncryptedPkg()
	pkg.Add("Info.plist", []byte("<plist/>"))
	app := &appmodel.App{ID: "com.enc.app", Pkg: pkg}
	before := pkgImage(pkg)

	dec, err := d.Decrypt(app)
	if err != nil {
		t.Fatal(err)
	}
	if dec == app || dec.Pkg == pkg {
		t.Fatal("Decrypt returned the input instead of a copy")
	}
	if dec.Pkg.Encrypted || !strings.Contains(pkgImage(dec.Pkg), fmt.Sprintf("bin exec=true %x", "secret")) {
		t.Fatalf("copy not decrypted: %s", pkgImage(dec.Pkg))
	}
	if app.Pkg != pkg || pkgImage(pkg) != before {
		t.Fatal("Decrypt wrote the input app or its package")
	}

	// DecryptApp swaps the copy into an app the caller owns; the package
	// it replaces is still never written.
	if err := d.DecryptApp(app); err != nil {
		t.Fatal(err)
	}
	if app.Pkg == pkg || app.Pkg.Encrypted {
		t.Fatal("DecryptApp did not install a decrypted package")
	}
	if pkgImage(pkg) != before {
		t.Fatal("DecryptApp wrote its input package")
	}
}

func newEncryptedPkg() *apppkg.Package {
	p := apppkg.New("com.enc.app")
	p.AddExecutable("bin", []byte("secret"))
	p.EncryptIOS()
	return p
}

func TestProbeChainBypassesProxy(t *testing.T) {
	w := newTestWorld(t)
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(18))
	w.net.SetInterceptor(w.proxy)
	chain, err := d.ProbeChain("api.myapp.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Leaf().Equal(w.chains["api.myapp.example.com"].Leaf()) {
		t.Fatal("probe returned forged chain")
	}
	if _, err := d.ProbeChain("missing.example.com"); err == nil {
		t.Fatal("probe to unknown host succeeded")
	}
}

func TestSleepWindowSweep(t *testing.T) {
	// Larger windows capture monotonically more flows.
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)
	app.Conns[3].At = 40 // tail connection: only the 60 s window sees it
	var counts []int
	for i, win := range []float64{15, 30, 60} {
		d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(int64(20+i)))
		cap := d.Run(app, RunOptions{Window: win, LaunchDelay: 120})
		counts = append(counts, len(cap.Flows()))
	}
	if !(counts[0] <= counts[1] && counts[1] <= counts[2]) {
		t.Fatalf("flow counts not monotone in window: %v", counts)
	}
	if counts[2] <= counts[0] {
		t.Fatalf("60s window captured no more than 15s: %v", counts)
	}
}

func TestRunDeterministic(t *testing.T) {
	// Two devices built from the same seed produce byte-identical captures
	// for the same app: flow order, record sequence, and close flags.
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)
	snapshot := func(seed int64) []string {
		d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(seed))
		cap := d.Run(app, RunOptions{})
		var out []string
		for _, f := range cap.Flows() {
			line := f.Dst
			for _, r := range f.Records() {
				line += "|" + r.WireType.String() + ":" + itoa(r.Length)
			}
			c, s := f.CloseFlags()
			line += "|" + c.String() + "/" + s.String()
			out = append(out, line)
		}
		return out
	}
	a, b := snapshot(99), snapshot(99)
	if len(a) != len(b) {
		t.Fatalf("flow counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
	c := snapshot(100)
	same := 0
	for i := range a {
		if i < len(c) && a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical captures (payload randomness dead)")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestProfileStableAcrossDevices(t *testing.T) {
	w := newTestWorld(t)
	d1 := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(42))
	d2 := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(42))
	if *d1.Profile != *d2.Profile {
		t.Fatal("same seed gave different device identities")
	}
}
