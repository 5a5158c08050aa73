package device

import (
	"reflect"
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/detrand"
	"pinscope/internal/faultinject"
	"pinscope/internal/frida"
	"pinscope/internal/netem"
	"pinscope/internal/tlswire"
)

// captureShape extracts the comparable view of a capture: per-flow
// destination, records, and close flags, in dial order.
type flowShape struct {
	dst     string
	at      float64
	records string
	client  string
	server  string
}

func captureShapes(t *testing.T, cap *netem.Capture) []flowShape {
	t.Helper()
	var out []flowShape
	for _, f := range cap.Flows() {
		recs := f.Records()
		shape := flowShape{dst: f.Dst, at: f.At}
		for _, r := range recs {
			dir := "s"
			if r.FromClient {
				dir = "c"
			}
			shape.records += dir + ":" + string(rune('0'+int(r.WireType%10)))
		}
		cc, sc := f.CloseFlags()
		shape.client, shape.server = cc.String(), sc.String()
		out = append(out, shape)
	}
	return out
}

func TestHandshakeMemoReplayMatchesLive(t *testing.T) {
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)
	memo := NewHandshakeMemo()
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
	d.UseHandshakeMemo(memo)

	capLive := d.Run(app, RunOptions{})
	if memo.Hits() != 0 {
		t.Fatalf("first run hit the memo %d times", memo.Hits())
	}
	if memo.Len() == 0 {
		t.Fatal("first run filled nothing")
	}
	live := captureShapes(t, capLive)

	capReplay := d.Run(app, RunOptions{})
	if memo.Hits() == 0 {
		t.Fatal("second run of the identical app never hit the memo")
	}
	replay := captureShapes(t, capReplay)
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("replayed capture differs from live:\nlive:   %+v\nreplay: %+v", live, replay)
	}
}

func TestHandshakeMemoSharedAcrossDevices(t *testing.T) {
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)
	memo := NewHandshakeMemo()

	d1 := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
	d1.UseHandshakeMemo(memo)
	cap1 := d1.Run(app, RunOptions{})

	// A second device with the identical derivation (as every worker's
	// device in a study has) serves the whole run from the shared memo.
	d2 := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
	d2.UseHandshakeMemo(memo)
	hitsBefore := memo.Hits()
	cap2 := d2.Run(app, RunOptions{})
	if memo.Hits() == hitsBefore {
		t.Fatal("second device never hit the shared memo")
	}
	if !reflect.DeepEqual(captureShapes(t, cap1), captureShapes(t, cap2)) {
		t.Fatal("second device's capture differs from the first's")
	}
}

func TestHandshakeMemoBypasses(t *testing.T) {
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)

	// Prime a memo so any non-bypassed rerun would hit it.
	prime := func() (*Device, *HandshakeMemo) {
		memo := NewHandshakeMemo()
		d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
		d.UseHandshakeMemo(memo)
		d.Run(app, RunOptions{})
		if memo.Len() == 0 {
			t.Fatal("priming run filled nothing")
		}
		return d, memo
	}

	t.Run("hooked runs", func(t *testing.T) {
		d, memo := prime()
		before := memo.Hits()
		hooks, err := frida.Attach(appmodel.IOS, true)
		if err != nil {
			t.Fatal(err)
		}
		d.Run(app, RunOptions{Hooks: hooks})
		if memo.Hits() != before {
			t.Fatal("hooked run consulted the memo")
		}
	})

	t.Run("device faults", func(t *testing.T) {
		d, memo := prime()
		before := memo.Hits()
		af := faultinject.NewPlan(7, faultinject.Uniform(0.9)).ForApp(app.ID, 0)
		d.Run(app, RunOptions{Faults: af.Run("baseline")})
		if memo.Hits() != before {
			t.Fatal("faulted run consulted the memo")
		}
	})

	t.Run("network fault tap", func(t *testing.T) {
		d, memo := prime()
		before := memo.Hits()
		af := faultinject.NewPlan(7, faultinject.Uniform(0.9)).ForApp(app.ID, 0)
		w.net.SetFaultTap(af.NetTap("baseline"))
		defer w.net.SetFaultTap(nil)
		d.Run(app, RunOptions{})
		if memo.Hits() != before {
			t.Fatal("run on a tapped network consulted the memo")
		}
	})

	t.Run("no memo installed", func(t *testing.T) {
		d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
		cap1 := d.Run(app, RunOptions{})
		if len(cap1.Flows()) == 0 {
			t.Fatal("memo-less device captured nothing")
		}
	})
}

func TestHandshakeMemoUnderMITM(t *testing.T) {
	// Pinned connections fail against the proxy's forged chain; that
	// failure outcome must memoize and replay like any success.
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)
	w.net.SetInterceptor(w.proxy)
	defer w.net.SetInterceptor(nil)

	memo := NewHandshakeMemo()
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
	d.InstallCA(w.proxy.CACert())
	d.UseHandshakeMemo(memo)

	cap1 := d.Run(app, RunOptions{})
	cap2 := d.Run(app, RunOptions{})
	if memo.Hits() == 0 {
		t.Fatal("MITM rerun never hit the memo")
	}
	if !reflect.DeepEqual(captureShapes(t, cap1), captureShapes(t, cap2)) {
		t.Fatal("replayed MITM capture differs from live")
	}
}

func TestHandshakeMemoProxyPresenceSplitsKeys(t *testing.T) {
	// The same host measured with and without an interceptor has different
	// outcomes; the memo must never serve one leg's outcome to the other.
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)
	memo := NewHandshakeMemo()

	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
	d.InstallCA(w.proxy.CACert())
	d.UseHandshakeMemo(memo)
	d.Run(app, RunOptions{})

	w.net.SetInterceptor(w.proxy)
	defer w.net.SetInterceptor(nil)
	before := memo.Hits()
	d.Run(app, RunOptions{})
	if memo.Hits() != before {
		t.Fatal("MITM leg was served plain-leg outcomes")
	}
}

// quietTap is a fault tap that injects nothing. Installing it still makes
// every run bypass the handshake memo, so each connection runs live.
type quietTap struct{}

func (quietTap) ConnFaults(string, float64) netem.ConnFaults { return netem.ConnFaults{} }

func TestLiveRerunsAreRecordIdentical(t *testing.T) {
	// netem drives client and server synchronously, so a live rerun of
	// the same app must reproduce every flow exactly: the full Summary
	// sequence — including how client and server records interleave — and
	// both close flags, on the plain and the intercepted leg.
	type flowRecord struct {
		dst            string
		records        []tlswire.Summary
		client, server tlswire.CloseFlag
	}
	w := newTestWorld(t)
	app := testApp(w, appmodel.IOS)
	w.net.SetFaultTap(quietTap{})
	defer w.net.SetFaultTap(nil)
	memo := NewHandshakeMemo()
	d := New(appmodel.IOS, w.net, w.deviceRS, detrand.New(4))
	d.InstallCA(w.proxy.CACert())
	d.UseHandshakeMemo(memo)
	live := func() []flowRecord {
		var out []flowRecord
		for _, f := range d.Run(app, RunOptions{}).Flows() {
			cc, sc := f.CloseFlags()
			out = append(out, flowRecord{f.Dst, f.Records(), cc, sc})
		}
		return out
	}
	for _, leg := range []string{"plain", "mitm"} {
		if leg == "mitm" {
			w.net.SetInterceptor(w.proxy)
			defer w.net.SetInterceptor(nil)
		}
		first := live()
		if len(first) == 0 {
			t.Fatalf("%s: live run captured nothing", leg)
		}
		for i := 0; i < 3; i++ {
			if again := live(); !reflect.DeepEqual(first, again) {
				t.Fatalf("%s: live rerun %d differs:\nfirst: %+v\nagain: %+v", leg, i+1, first, again)
			}
		}
	}
	if memo.Hits() != 0 || memo.Len() != 0 {
		t.Fatal("runs on a tapped network used the memo")
	}
}
