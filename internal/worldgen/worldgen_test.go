package worldgen

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/pki"
	"pinscope/internal/staticanalysis"
)

func buildTestWorld(t *testing.T, seed int64) *World {
	t.Helper()
	w, err := Build(TestParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func allApps(w *World) []*appmodel.App {
	var out []*appmodel.App
	seen := map[string]bool{}
	for _, ds := range w.DS.All() {
		for _, a := range w.Apps(ds) {
			key := string(a.Platform) + "/" + a.ID
			if !seen[key] {
				seen[key] = true
				out = append(out, a)
			}
		}
	}
	return out
}

func TestBuildSizes(t *testing.T) {
	w := buildTestWorld(t, 1)
	if n := len(w.DS.CommonAndroid.Listings); n != 60 {
		t.Fatalf("common size %d", n)
	}
	if n := len(w.DS.PopularAndroid.Listings); n != 100 {
		t.Fatalf("popular size %d", n)
	}
	if len(w.CommonPairs) != 60 {
		t.Fatalf("%d common pairs", len(w.CommonPairs))
	}
	for _, ds := range w.DS.All() {
		for _, l := range ds.Listings {
			if w.App(l) == nil {
				t.Fatalf("listing %s/%s not materialized", l.Platform, l.ID)
			}
		}
	}
}

// TestDeterminism builds the same world with one worker and with four and
// requires equal fingerprints. The fingerprint covers everything the study
// reads of a world (see fingerprint), so a build whose output depended on
// worker scheduling — a host, CT submission or whois record committed out
// of listing order, or a serial drawn from a shared counter — fails here.
func TestDeterminism(t *testing.T) {
	build := func(procs int) [sha256.Size]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return fingerprint(buildTestWorld(t, 2))
	}
	if one, four := build(1), build(4); one != four {
		t.Fatalf("world fingerprint with GOMAXPROCS=1 %x differs from GOMAXPROCS=4 %x", one, four)
	}
}

// fingerprint digests a world: every host (name, kind, organization, flags,
// served chain, pre-rotation leaf, private anchor), every app in dataset
// order (identity, release, connections with their pins and trust anchors,
// associated domains, ground truth, and decrypted package files), the CT
// log's per-name and per-key order, and whois. Certificates enter by
// RawTBSCertificate: their ECDSA signatures are hedged and differ between
// mintings of the same certificate.
func fingerprint(w *World) [sha256.Size]byte {
	h := sha256.New()
	put := func(fields ...any) {
		for _, f := range fields {
			b := []byte(fmt.Sprint(f))
			binary.Write(h, binary.BigEndian, uint32(len(b)))
			h.Write(b)
		}
	}
	putCert := func(c *x509.Certificate) {
		if c == nil {
			put("nil")
			return
		}
		put(c.RawTBSCertificate)
	}

	names := make([]string, 0, len(w.Hosts))
	for name := range w.Hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	cns := map[string]bool{}
	var certs []*x509.Certificate
	for _, name := range names {
		hi := w.Hosts[name]
		put(hi.Host, hi.Kind, hi.Org, hi.SelfSigned, hi.CustomPKI, hi.Flaky, hi.ResetOnAccept, len(hi.Chain))
		for _, c := range hi.Chain {
			putCert(c)
			certs = append(certs, c)
		}
		putCert(hi.Leaf.Cert)
		putCert(hi.OriginalLeaf)
		putCert(hi.CustomRoot)
		if hi.OriginalLeaf != nil {
			certs = append(certs, hi.OriginalLeaf)
		}
	}

	putPins := func(ps *pki.PinSet) {
		if ps == nil {
			put("nopins")
			return
		}
		put(len(ps.Pins), len(ps.RawCerts))
		for _, p := range ps.Pins {
			put(p.String())
		}
		for _, c := range ps.RawCerts {
			putCert(c)
		}
	}
	for _, a := range allApps(w) {
		put(a.Platform, a.ID, a.Name, a.Developer, a.Category, a.CrossKey, a.Release, len(a.Conns))
		for _, c := range a.Conns {
			put(c.Host, c.At, c.Used, c.FailureMode, c.MaxVersion, c.Ciphers, c.Lib, c.PIIKinds, c.Path, c.FirstParty)
			putPins(c.Pins)
			if c.TrustAnchors == nil {
				put("noanchors")
			} else {
				put(c.TrustAnchors.Name, c.TrustAnchors.Len())
				for _, r := range c.TrustAnchors.Certs() {
					putCert(r)
				}
			}
		}
		put(a.AssociatedDomains, a.Truth.PinsAtRuntime, a.Truth.PinnedHosts,
			a.Truth.EmbedsPinMaterial, a.Truth.UsesNSCPins, a.Truth.Obfuscated)
		pkg := a.Pkg.Clone()
		put(pkg.Encrypted)
		pkg.DecryptIOS()
		for _, f := range pkg.Files() {
			put(f.Path, f.Executable, certsByTBS(f.Data))
		}
	}
	for _, pair := range w.CommonPairs {
		put(pair.Name, pair.Android.ID, pair.IOS.ID, pair.TruthClass)
	}

	put(w.CT.Size())
	for _, c := range certs {
		cns[c.Subject.CommonName] = true
	}
	cnList := make([]string, 0, len(cns))
	for cn := range cns {
		cnList = append(cnList, cn)
	}
	sort.Strings(cnList)
	for _, cn := range cnList {
		logged := w.CT.LookupByName(cn)
		put(cn, len(logged))
		for _, c := range logged {
			putCert(c)
			bySPKI := w.CT.Lookup(pki.NewPin(c, pki.SHA256))
			put(len(bySPKI))
			for _, k := range bySPKI {
				putCert(k)
			}
		}
	}

	put(w.Whois.Len())
	for _, name := range names {
		org, ok := w.Whois.Lookup(name)
		put(name, org, ok)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// certsByTBS returns data with every certificate in it replaced by its
// RawTBSCertificate: a whole-file DER certificate, or each PEM block.
func certsByTBS(data []byte) []byte {
	if c, err := x509.ParseCertificate(data); err == nil {
		return c.RawTBSCertificate
	}
	const begin, end = "-----BEGIN CERTIFICATE-----", "-----END CERTIFICATE-----\n"
	var out []byte
	for {
		i := bytes.Index(data, []byte(begin))
		if i < 0 {
			return append(out, data...)
		}
		j := bytes.Index(data[i:], []byte(end))
		if j < 0 {
			return append(out, data...)
		}
		j += i + len(end)
		c, err := pki.DecodePEM(data[i:j])
		if err != nil {
			return append(out, data...)
		}
		out = append(append(out, data[:i]...), c.RawTBSCertificate...)
		data = data[j:]
	}
}

// TestPinnedAppsWork is the central world invariant: every pinned
// connection's pin set matches the chain its destination actually serves,
// and the chain validates against the trust configuration the connection
// uses — pinning apps must function when not intercepted.
func TestPinnedAppsWork(t *testing.T) {
	w := buildTestWorld(t, 3)
	deviceStores := map[appmodel.Platform]*pki.RootStore{
		appmodel.Android: w.Eco.OEM,
		appmodel.IOS:     w.Eco.IOS,
	}
	checked := 0
	for _, a := range allApps(w) {
		for _, c := range a.Conns {
			h := w.Hosts[c.Host]
			if h == nil {
				t.Fatalf("app %s contacts unknown host %s", a.ID, c.Host)
			}
			if c.Pins.Empty() {
				continue
			}
			checked++
			if !c.Pins.MatchChain(h.Chain) {
				t.Fatalf("app %s: pins for %s do not match served chain", a.ID, c.Host)
			}
			store := deviceStores[a.Platform]
			if c.TrustAnchors != nil {
				store = c.TrustAnchors
			}
			if err := h.Chain.Validate(store, c.Host, pki.StudyEpoch); err != nil {
				t.Fatalf("app %s: chain for %s fails validation: %v", a.ID, c.Host, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pinned connections in the world")
	}
}

func TestPinningRatesShape(t *testing.T) {
	// With a 100-app popular set, rates are noisy; assert ordering and
	// loose ranges rather than exact values.
	w := buildTestWorld(t, 4)
	rate := func(ds interface{ apps(*World) []*appmodel.App }) float64 { return 0 }
	_ = rate
	count := func(apps []*appmodel.App) (pin, static int) {
		for _, a := range apps {
			if a.Truth.PinsAtRuntime {
				pin++
			}
			if a.Truth.EmbedsPinMaterial {
				static++
			}
		}
		return
	}
	pa, sa := count(w.Apps(w.DS.PopularAndroid))
	pi, si := count(w.Apps(w.DS.PopularIOS))
	ra, _ := count(w.Apps(w.DS.RandomAndroid))
	ri, _ := count(w.Apps(w.DS.RandomIOS))

	if pi <= pa/2 {
		t.Fatalf("iOS popular pinning (%d) should exceed Android (%d)", pi, pa)
	}
	if ra >= pa || ri >= pi {
		t.Fatalf("random pinning (%d/%d) should be far below popular (%d/%d)", ra, ri, pa, pi)
	}
	if sa <= pa || si <= pi {
		t.Fatalf("static material (%d/%d) should exceed dynamic pinning (%d/%d)", sa, si, pa, pi)
	}
}

func TestCommonPairClassesRealized(t *testing.T) {
	w := buildTestWorld(t, 5)
	classes := map[string]int{}
	for _, p := range w.CommonPairs {
		classes[p.TruthClass]++
		pinsA := p.Android.Truth.PinsAtRuntime
		pinsI := p.IOS.Truth.PinsAtRuntime
		switch p.TruthClass {
		case "neither":
			if pinsA || pinsI {
				t.Fatalf("pair %s class neither but pins %v/%v", p.Name, pinsA, pinsI)
			}
		case "both-identical":
			if !pinsA || !pinsI {
				t.Fatalf("pair %s class both-identical but pins %v/%v", p.Name, pinsA, pinsI)
			}
			sa, si := p.Android.PinnedHostSet(), p.IOS.PinnedHostSet()
			if len(sa) != len(si) {
				t.Fatalf("pair %s identical sets differ in size", p.Name)
			}
			for h := range sa {
				if !si[h] {
					t.Fatalf("pair %s pinned sets differ at %s", p.Name, h)
				}
			}
		case "android-only-inconsistent", "android-only-inconclusive":
			if !pinsA || pinsI {
				t.Fatalf("pair %s class %s but pins %v/%v", p.Name, p.TruthClass, pinsA, pinsI)
			}
		case "ios-only-inconsistent", "ios-only-inconclusive":
			if pinsA || !pinsI {
				t.Fatalf("pair %s class %s but pins %v/%v", p.Name, p.TruthClass, pinsA, pinsI)
			}
		}
	}
	if classes["neither"] == 0 {
		t.Fatal("no neither pairs — class draw broken")
	}
}

func TestStaticMaterialIsScannable(t *testing.T) {
	w := buildTestWorld(t, 6)
	found, pinningApps := 0, 0
	for _, a := range allApps(w) {
		if !a.Truth.PinsAtRuntime || a.Truth.Obfuscated {
			continue
		}
		pinningApps++
		if a.Platform == appmodel.IOS {
			a.Pkg.DecryptIOS()
		}
		r, err := staticanalysis.Analyze(a)
		if err != nil {
			t.Fatalf("analyze %s: %v", a.ID, err)
		}
		if r.HasCertMaterial() {
			found++
		}
	}
	if pinningApps == 0 {
		t.Fatal("no unobfuscated pinning apps")
	}
	// First-party pin material is always scannable; SDK-only pinning apps
	// embed material through their SDK dirs, also scannable.
	if found < pinningApps*8/10 {
		t.Fatalf("static analysis found material in only %d/%d pinning apps", found, pinningApps)
	}
}

func TestObfuscatedAppsHideFromStatic(t *testing.T) {
	// Obfuscated FP-pinning apps without pinning SDKs must yield nothing.
	w := buildTestWorld(t, 7)
	for _, a := range allApps(w) {
		if !a.Truth.Obfuscated || a.Platform == appmodel.IOS {
			continue
		}
		r, err := staticanalysis.Analyze(a)
		if err != nil {
			t.Fatal(err)
		}
		// The app may still carry SDK material; but its own pins are gone.
		for _, p := range r.Pins {
			if p.Path == "smali/"+a.ID+"/net/PinningConfig.smali" {
				t.Fatalf("obfuscated app %s leaked first-party pins", a.ID)
			}
		}
	}
}

func TestIOSPackagesEncrypted(t *testing.T) {
	w := buildTestWorld(t, 8)
	for _, a := range allApps(w) {
		if a.Platform != appmodel.IOS {
			continue
		}
		if !a.Pkg.Encrypted {
			t.Fatalf("iOS app %s not encrypted", a.ID)
		}
		if _, err := staticanalysis.Analyze(a); err == nil {
			t.Fatalf("encrypted iOS app %s accepted by static analysis", a.ID)
		}
		break
	}
}

func TestHostsServeValidChains(t *testing.T) {
	w := buildTestWorld(t, 9)
	for host, h := range w.Hosts {
		if h.SelfSigned || h.CustomPKI {
			continue
		}
		if w.Eco.IsDefaultPKI(h.Chain, host) != true {
			t.Fatalf("public host %s chain not default-PKI", host)
		}
	}
}

func TestSelfSignedTrustAnchorValidates(t *testing.T) {
	// The trust configuration generated for self-signed pinned hosts must
	// actually validate in crypto/x509, or those apps would be broken.
	w := buildTestWorld(t, 10)
	for _, h := range w.Hosts {
		if !h.SelfSigned {
			continue
		}
		store := pki.NewRootStore("anchor")
		store.Add(h.CustomRoot)
		if err := h.Chain.Validate(store, h.Host, pki.StudyEpoch); err != nil {
			t.Fatalf("self-signed host %s rejected by its own anchor: %v", h.Host, err)
		}
		return
	}
	t.Skip("no self-signed host in this seed")
}

func TestRotatedLeavesKeepPins(t *testing.T) {
	w := buildTestWorld(t, 11)
	rotated := 0
	for _, h := range w.Hosts {
		if h.OriginalLeaf == nil {
			continue
		}
		rotated++
		if h.Chain.Leaf().Equal(h.OriginalLeaf) {
			t.Fatalf("host %s marked rotated but serves original leaf", h.Host)
		}
		// Key reuse: SPKI pin of the original matches the served leaf.
		pin := pki.NewPin(h.OriginalLeaf, pki.SHA256)
		if !pin.Matches(h.Chain.Leaf()) {
			t.Fatalf("host %s rotation changed the key", h.Host)
		}
	}
	t.Logf("%d rotated hosts", rotated)
}

func TestAssociatedDomainsExist(t *testing.T) {
	w := buildTestWorld(t, 12)
	withAssoc := 0
	for _, a := range allApps(w) {
		if a.Platform != appmodel.IOS {
			continue
		}
		if len(a.AssociatedDomains) > 0 {
			withAssoc++
		}
		for _, d := range a.AssociatedDomains {
			if w.Hosts[d] == nil {
				t.Fatalf("associated domain %s of %s has no server", d, a.ID)
			}
		}
	}
	if withAssoc == 0 {
		t.Fatal("no iOS apps with associated domains")
	}
}

func TestConnCountsPlausible(t *testing.T) {
	w := buildTestWorld(t, 13)
	apps := allApps(w)
	total := 0
	for _, a := range apps {
		if len(a.Conns) < 3 {
			t.Fatalf("app %s has only %d connections", a.ID, len(a.Conns))
		}
		total += len(a.Conns)
	}
	avg := float64(total) / float64(len(apps))
	if avg < 8 || avg > 40 {
		t.Fatalf("average connections per app %.1f outside plausible band", avg)
	}
}

func TestNetworkInstallsAllHosts(t *testing.T) {
	w := buildTestWorld(t, 14)
	n := w.NewNetwork(true)
	for host := range w.Hosts {
		if !n.HasHost(host) {
			t.Fatalf("host %s not installed", host)
		}
	}
	// Flaky hosts disappear from the probe network.
	nProbe := w.NewNetwork(false)
	flaky := 0
	for host, h := range w.Hosts {
		if h.Flaky {
			flaky++
			if nProbe.HasHost(host) {
				t.Fatalf("flaky host %s present in probe network", host)
			}
		}
	}
	t.Logf("%d flaky hosts", flaky)
}
