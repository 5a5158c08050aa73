package worldgen

import (
	"crypto/x509"
	"fmt"
	"sort"
	"strings"

	"pinscope/internal/appmodel"
	"pinscope/internal/apppkg"
	"pinscope/internal/appstore"
	"pinscope/internal/detrand"
	"pinscope/internal/pii"
	"pinscope/internal/pki"
	"pinscope/internal/sdkregistry"
	"pinscope/internal/tlswire"
)

// blueprint carries the per-app generation decisions into buildApp.
type blueprint struct {
	listing *appstore.Listing
	tier    Tier

	pins          bool
	fpPin, sdkPin bool
	pinEverything bool

	// fpContact is the list of first-party domains this build contacts;
	// fpPinned the subset it pins. Pairs preset these; singles derive them.
	fpContact []string
	fpPinned  map[string]bool

	// allowCustomPKI gates the custom/self-signed destination draws (off
	// for common pairs, which share first-party hosts across platforms).
	allowCustomPKI bool
	// forceUsedFP guarantees first-party connections transmit data, so a
	// pair's consistency class survives into the traffic (pairs only).
	forceUsedFP bool
	// caPinOnly restricts pin configurations to CA pins; pairs share hosts
	// across platforms, so leaf rotation games are off-limits.
	caPinOnly bool
}

// planDataset plans every not-yet-planned app of a dataset, one unit per
// listing, and marks it planned. Each app's plan stream carries on into
// its build.
func (w *World) planDataset(ds *appstore.Dataset, tier Tier, planned map[string]bool) []*unit {
	avg := w.avgCatMult(ds)
	var units []*unit
	for _, l := range ds.Listings {
		key := string(l.Platform) + "/" + l.ID
		if planned[key] {
			continue // dataset collision: reuse the first materialization
		}
		planned[key] = true
		rng := w.rng.Child("plan/" + key)
		base := dynPinRate[l.Platform][tier]
		p := base * catMultOf(l.Category) / avg
		if p > 0.9 {
			p = 0.9
		}
		bp := &blueprint{listing: l, tier: tier, pins: rng.Bool(p), allowCustomPKI: true}
		w.planSingle(bp, rng)
		units = append(units, &unit{builds: []appBuild{{key: key, bp: bp, rng: rng}}})
	}
	return units
}

// avgCatMult is the dataset-mean category multiplier, used to normalize so
// the tier-average pinning rate stays on target.
func (w *World) avgCatMult(ds *appstore.Dataset) float64 {
	if len(ds.Listings) == 0 {
		return 1
	}
	var sum float64
	for _, l := range ds.Listings {
		sum += catMultOf(l.Category)
	}
	return sum / float64(len(ds.Listings))
}

func catMultOf(cat string) float64 {
	if m, ok := catPinMult[cat]; ok {
		return m
	}
	return 1
}

// planSingle fills the pinning-shape decisions for a non-common app: which
// first-party domains exist and which are pinned.
func (w *World) planSingle(bp *blueprint, rng *detrand.Source) {
	l := bp.listing
	slug := w.slugFor(l.Name, string(l.Platform)+"/"+l.ID)
	nFP := 1 + rng.Intn(3)
	subs := []string{"api", "www", "cdn", "sync"}
	for i := 0; i < nFP; i++ {
		bp.fpContact = append(bp.fpContact, subs[i]+"."+slug+".com")
	}
	bp.fpPinned = map[string]bool{}
	if !bp.pins {
		return
	}
	mech := rng.Float64()
	switch {
	case mech < pinMechanismFirstParty:
		bp.fpPin = true
	case mech < pinMechanismFirstParty+pinMechanismBoth:
		bp.fpPin, bp.sdkPin = true, true
	default:
		bp.sdkPin = true
	}
	bp.pinEverything = rng.Bool(pinEverythingRate)
	if bp.pinEverything {
		bp.fpPin = true
	}
	// Pure-SDK apps: third-party-pinning apps often contact no
	// developer-owned domain at all (Figure 5's Android claim).
	if bp.sdkPin && !bp.fpPin {
		noFP := sdkOnlyNoFPRateAndroid
		if l.Platform == appmodel.IOS {
			noFP = sdkOnlyNoFPRateIOS
		}
		if rng.Bool(noFP) {
			bp.fpContact = nil
		}
	}
	if bp.fpPin {
		pinAllRate := androidPinAllFPRate
		if l.Platform == appmodel.IOS {
			pinAllRate = iosPinAllFPRate
		}
		if bp.pinEverything || rng.Bool(pinAllRate) {
			for _, d := range bp.fpContact {
				bp.fpPinned[d] = true
			}
		} else {
			// Pin a strict subset (at least one, at least one left out).
			k := 1
			if len(bp.fpContact) > 2 {
				k += rng.Intn(len(bp.fpContact) - 1)
			}
			for _, d := range detrand.Sample(rng, bp.fpContact, k) {
				bp.fpPinned[d] = true
			}
		}
	}
}

// fpPinMaterial is the runtime+static pin configuration for one pinned
// first-party destination.
type fpPinMaterial struct {
	host      string
	runtime   *pki.PinSet
	anchors   *pki.RootStore // non-nil for custom-PKI/self-signed hosts
	embedCert *x509.Certificate
	embedPins []pki.Pin
}

// buildApp materializes the app: hosts, behaviour plan and package bytes.
// The hosts it creates land on the stage; everything else it reads of the
// world was committed before the build phase began.
func (s *stage) buildApp(bp *blueprint, rng *detrand.Source) (*appmodel.App, error) {
	w := s.w
	l := bp.listing
	app := &appmodel.App{
		ID:        l.ID,
		Name:      l.Name,
		Developer: l.Developer,
		Platform:  l.Platform,
		Category:  l.Category,
		CrossKey:  l.CrossKey,
		// The root-program release the app shipped against. Drawn from a
		// dedicated child stream so adding the time axis did not perturb
		// any pre-existing draw in this function.
		Release: w.Timeline.AssignRelease(rng.Child("release"), l.Platform),
	}

	// --- first-party hosts -------------------------------------------------
	var fpMaterials []fpPinMaterial
	for _, d := range bp.fpContact {
		pinned := bp.fpPinned[d]
		h, ok := s.hosts[d]
		if !ok {
			var err error
			switch {
			case pinned && bp.allowCustomPKI && rng.Child("ss/"+d).Bool(selfSignedRate):
				years := 10
				if rng.Bool(0.5) {
					years = 27
				}
				h, err = s.addSelfSignedHost(d, l.Developer, years)
			case pinned && bp.allowCustomPKI && rng.Child("cp/"+d).Bool(customPKIRateFor(l.Platform)):
				h, err = s.addCustomHost(d, l.Developer)
			default:
				h, err = s.addPublicHost(d, KindFirstParty, l.Developer,
					rng.Child("wp/"+d).Bool(whoisPrivateRate))
			}
			if err != nil {
				return nil, err
			}
		}
		if !pinned {
			continue
		}
		mat, err := s.fpPinConfig(h, rng.Child("pin/"+d), bp.caPinOnly)
		if err != nil {
			return nil, err
		}
		fpMaterials = append(fpMaterials, mat)
		if !h.CustomPKI && !h.SelfSigned && rng.Child("flaky/"+d).Bool(flakyHostRate) {
			h.Flaky = true
		}
	}
	fpMatByHost := map[string]fpPinMaterial{}
	for _, m := range fpMaterials {
		fpMatByHost[m.host] = m
	}

	// --- SDK selection -----------------------------------------------------
	var sdks []sdkregistry.SDK
	tierMult := sdkTierMult[bp.tier]
	for _, s := range sdkregistry.Catalog(l.Platform) {
		p := s.Weight * tierMult
		if p > 0.95 {
			p = 0.95
		}
		if rng.Child("sdk/" + s.Name).Bool(p) {
			sdks = append(sdks, s)
		}
	}
	if bp.sdkPin {
		hasPinning := false
		for _, s := range sdks {
			if s.Pinning && len(s.PinnedDomains) > 0 {
				hasPinning = true
				break
			}
		}
		if !hasPinning {
			cands := sdkregistry.PinningSDKs(l.Platform)
			var usable []sdkregistry.SDK
			weights := []float64{}
			for _, s := range cands {
				if len(s.PinnedDomains) > 0 {
					usable = append(usable, s)
					weights = append(weights, s.Weight)
				}
			}
			sdks = append(sdks, usable[rng.WeightedIndex(weights)])
		}
	}

	// --- shared third-party pool -------------------------------------------
	nMisc := rng.NormInt(miscDomainsMean, miscDomainsSpread, miscDomainsMin, miscDomainsMax)
	miscHosts := detrand.Sample(rng.Child("misc"), w.pool, nMisc)

	// --- behaviour plan ------------------------------------------------------
	weakGeneric := rng.Bool(weakGenericRate[l.Platform][bp.tier])
	weakPinned := bp.pins && rng.Bool(weakPinnedRate[l.Platform][bp.tier])
	failureMode := tlswire.FailureMode(rng.WeightedIndex(pinFailureModeWeights))
	fpLib := pickLib(rng, fpLibMix[l.Platform])
	fpPinLib := pickLib(rng, fpPinnedLibMix[l.Platform])

	arrival := func(r *detrand.Source) float64 {
		weights := make([]float64, len(arrivalBuckets))
		for i, b := range arrivalBuckets {
			weights[i] = b.w
		}
		b := arrivalBuckets[r.WeightedIndex(weights)]
		return b.min + r.Float64()*(b.max-b.min)
	}
	version := func(r *detrand.Source) tlswire.Version {
		return []tlswire.Version{tlswire.TLS13, tlswire.TLS12, tlswire.TLS11}[r.WeightedIndex(versionMixWeights)]
	}

	pinnedHostSet := map[string]bool{}
	addConn := func(r *detrand.Source, host string, kind HostKind, pins *pki.PinSet,
		anchors *pki.RootStore, lib appmodel.TLSLib, kinds []pii.Kind, path string) {
		if bp.pinEverything && pins == nil {
			pins = s.chainCAPin(host)
			// Pin-everything apps run every connection through the one
			// stack that implements their global pinning policy.
			lib = fpPinLib
		}
		weak := weakGeneric
		if pins != nil {
			weak = weakPinned
		}
		ciphers := tlswire.ModernSuites
		if weak {
			ciphers = tlswire.LegacySuites
		}
		used := r.Bool(usedConnRate)
		at := arrival(r)
		if pins != nil {
			// Apps exercise the APIs they bothered to pin: pinned primaries
			// transmit data, early in the session.
			used = true
			if at > 25 {
				at = r.Float64() * 20
			}
		}
		if bp.forceUsedFP && kind == KindFirstParty {
			used = true
		}
		pc := appmodel.PlannedConn{
			Host: host, At: at,
			Used:         used,
			Pins:         pins,
			TrustAnchors: anchors,
			FailureMode:  failureMode,
			MaxVersion:   version(r),
			Ciphers:      ciphers,
			Lib:          lib,
			PIIKinds:     kinds,
			Path:         path,
			FirstParty:   kind == KindFirstParty,
		}
		app.Conns = append(app.Conns, pc)
		if pins != nil {
			pinnedHostSet[host] = true
		}
		if r.Bool(redundantConnRate) {
			red := pc
			red.Used = false
			red.At = arrival(r)
			red.PIIKinds = nil
			app.Conns = append(app.Conns, red)
		}
	}

	fpPinnedAdIDRate := fpPinnedAdIDRateAndroid
	adIDBoost := pinnedAdIDBoostAndroid
	if l.Platform == appmodel.IOS {
		fpPinnedAdIDRate = fpPinnedAdIDRateIOS
		adIDBoost = pinnedAdIDBoostIOS
	}

	// First-party connections.
	for i, d := range bp.fpContact {
		r := rng.ChildN("fpconn", i)
		var pins *pki.PinSet
		var anchors *pki.RootStore
		lib := fpLib
		if m, ok := fpMatByHost[d]; ok {
			pins = m.runtime
			anchors = m.anchors
			lib = fpPinLib
		}
		kinds := fpPIIKinds(r)
		if pins != nil && r.Bool(fpPinnedAdIDRate) {
			kinds = append(kinds, pii.AdID)
		}
		addConn(r, d, KindFirstParty, pins, anchors, lib, kinds, "/api/v1/sync")
		if r.Bool(fpExtraConnRate) {
			addConn(r.Child("x"), d, KindFirstParty, pins, anchors, lib, nil, "/api/v1/state")
		}
	}

	// SDK connections.
	for i, s := range sdks {
		r := rng.ChildN("sdkconn", i)
		sdkPinSet := w.sdkPins[string(l.Platform)+"/"+s.Name]
		active := bp.sdkPin && s.Pinning
		pinnedDomains := map[string]bool{}
		for _, d := range s.PinnedDomains {
			pinnedDomains[d] = true
		}
		for j, d := range s.Domains {
			cr := r.ChildN("d", j)
			var pins *pki.PinSet
			adRate := s.AdIDRate
			if active && pinnedDomains[d] {
				pins = sdkPinSet
				adRate *= adIDBoost
				if adRate > 0.95 {
					adRate = 0.95
				}
			}
			var kinds []pii.Kind
			if cr.Bool(adRate) {
				kinds = append(kinds, pii.AdID)
			}
			addConn(cr, d, KindSDK, pins, nil, s.Lib, kinds, "/v2/events")
		}
		// TrustKit pins the host app's own domains rather than SDK hosts;
		// when it is the forced pinning SDK the first-party conns above
		// already carry pins, so nothing extra here.
	}

	// Shared third-party pool connections.
	for i, h := range miscHosts {
		r := rng.ChildN("misc", i)
		var kinds []pii.Kind
		rate := map[HostKind]float64{
			KindCDN: cdnAdIDRate, KindAds: adPoolAdIDRate,
			KindMetrics: adPoolAdIDRate * 0.8, KindAPI: 0.04,
		}[h.Kind]
		if r.Bool(rate) {
			kinds = append(kinds, pii.AdID)
		}
		path := map[HostKind]string{
			KindCDN: "/assets/app.js", KindAds: "/ad/bid",
			KindMetrics: "/collect", KindAPI: "/v1/query",
		}[h.Kind]
		addConn(r, h.Host, h.Kind, nil, nil, fpLib, kinds, path)
	}

	// Tail connection for the sleep-sweep shape.
	if rng.Bool(lateConnRate) && len(miscHosts) > 0 {
		r := rng.Child("late")
		h := miscHosts[0]
		pc := appmodel.PlannedConn{
			Host: h.Host, At: 30 + r.Float64()*30, Used: true,
			MaxVersion: version(r), Ciphers: tlswire.ModernSuites,
			Lib: fpLib, Path: "/v1/heartbeat",
		}
		if bp.pinEverything {
			pc.Pins = s.chainCAPin(h.Host)
			pinnedHostSet[h.Host] = true
		}
		app.Conns = append(app.Conns, pc)
	}

	// --- iOS associated domains ---------------------------------------------
	if l.Platform == appmodel.IOS && rng.Child("assoc").Bool(assocDomainRate) {
		r := rng.Child("assocd")
		n := assocDomainMin + r.Intn(assocDomainMax-assocDomainMin+1)
		seen := map[string]bool{}
		// Associated domains point at websites (universal links), so
		// non-pinned hosts like www dominate; pinned API hosts appear only
		// occasionally. This matters: the §4.5 exclusion silences pinning
		// signals on associated domains outside the Common re-run.
		for _, d := range bp.fpContact {
			if len(app.AssociatedDomains) >= n {
				break
			}
			if bp.fpPinned[d] && !r.Bool(0.15) {
				continue
			}
			if !seen[d] {
				seen[d] = true
				app.AssociatedDomains = append(app.AssociatedDomains, d)
			}
		}
		extras := []string{"links", "get", "share", "open", "go", "m"}
		slugDomain := ""
		if len(bp.fpContact) > 0 {
			parts := strings.SplitN(bp.fpContact[0], ".", 2)
			if len(parts) == 2 {
				slugDomain = parts[1]
			}
		}
		for i := 0; len(app.AssociatedDomains) < n && slugDomain != "" && i < len(extras); i++ {
			d := extras[i] + "." + slugDomain
			if _, err := s.addPublicHost(d, KindFirstParty, l.Developer, false); err != nil {
				return nil, err
			}
			app.AssociatedDomains = append(app.AssociatedDomains, d)
		}
	}

	// --- package -------------------------------------------------------------
	obfuscated := bp.pins && rng.Child("obf").Bool(obfuscationRate)
	embedExtra := !bp.pins && rng.Child("extra").Bool(staticExtraRate[l.Platform][bp.tier])
	w.buildPackage(app, bp, rng.Child("pkg"), fpMaterials, sdks, obfuscated, embedExtra)

	// --- ground truth ---------------------------------------------------------
	app.Truth.PinsAtRuntime = len(pinnedHostSet) > 0
	for h := range pinnedHostSet {
		app.Truth.PinnedHosts = append(app.Truth.PinnedHosts, h)
	}
	sort.Strings(app.Truth.PinnedHosts)
	app.Truth.Obfuscated = obfuscated
	return app, nil
}

func customPKIRateFor(p appmodel.Platform) float64 {
	if p == appmodel.Android {
		return customPKIRateAndroid
	}
	return customPKIRateIOS
}

// chainCAPin returns a pin set pinning the host chain's CA (or the leaf for
// chains without one).
func (s *stage) chainCAPin(host string) *pki.PinSet {
	h := s.host(host)
	if h == nil {
		return nil
	}
	target := h.Chain.Leaf()
	if len(h.Chain) > 1 {
		target = h.Chain[1]
	}
	return &pki.PinSet{Pins: []pki.Pin{pki.NewPin(target, pki.SHA256)}}
}

// fpPinConfig draws the pin representation for one pinned first-party host
// (§5.3): CA vs leaf, SPKI vs raw cert, rotation, digest diversity.
func (s *stage) fpPinConfig(h *HostInfo, rng *detrand.Source, caOnly bool) (fpPinMaterial, error) {
	m := fpPinMaterial{host: h.Host, runtime: &pki.PinSet{}}

	if h.CustomPKI || h.SelfSigned {
		// Trust and pin the private anchor; embed it (the app must ship it).
		anchorStore := pki.NewRootStore("custom:" + h.Host)
		anchorStore.Add(h.CustomRoot)
		m.anchors = anchorStore
		pin := pki.NewPin(h.CustomRoot, pki.SHA256)
		m.runtime.Pins = append(m.runtime.Pins, pin)
		m.embedCert = h.CustomRoot
		m.embedPins = append(m.embedPins, pin)
		return m, nil
	}

	caPin := caOnly || rng.Bool(caPinRate)
	var target *x509.Certificate
	if caPin {
		// Intermediate or root, roughly evenly.
		target = h.Chain[1]
		if rng.Bool(0.5) && len(h.Chain) > 2 {
			target = h.Chain[2]
		}
	} else {
		target = h.Chain.Leaf()
	}

	alg := pki.SHA256
	if rng.Bool(sha1PinRate) {
		alg = pki.SHA1
	}
	pin := pki.NewPin(target, alg)
	pin.Hex = rng.Bool(hexPinRate)

	if caPin {
		m.runtime.Pins = append(m.runtime.Pins, pin)
		m.embedPins = append(m.embedPins, pin)
		// CA pins are occasionally shipped as the whole CA cert.
		if rng.Bool(0.3) {
			m.embedCert = target
		}
		return m, nil
	}

	// Leaf pin: SPKI hash vs raw certificate embedding.
	if rng.Bool(spkiPinRate) {
		m.runtime.Pins = append(m.runtime.Pins, pin)
		m.embedPins = append(m.embedPins, pin)
		// Key-reusing rotation keeps SPKI pins valid (§5.3.3).
		if h.OriginalLeaf == nil && rng.Bool(leafRotationRate) {
			if err := s.rotateLeaf(h); err != nil {
				return m, err
			}
		}
	} else {
		m.embedCert = target
		if rng.Bool(rawCertStrictRate) {
			// Truly pins the exact certificate: rotation would break it, so
			// these hosts never rotate.
			m.runtime.RawCerts = append(m.runtime.RawCerts, target)
		} else {
			// Ships the cert but effectively pins its public key.
			m.runtime.Pins = append(m.runtime.Pins, pki.NewPin(target, pki.SHA256))
			if h.OriginalLeaf == nil && rng.Bool(leafRotationRate) {
				if err := s.rotateLeaf(h); err != nil {
					return m, err
				}
			}
		}
	}
	return m, nil
}

func pickLib(rng *detrand.Source, mix map[appmodel.TLSLib]float64) appmodel.TLSLib {
	// Deterministic iteration: sort keys.
	libs := make([]string, 0, len(mix))
	for l := range mix {
		libs = append(libs, string(l))
	}
	sort.Strings(libs)
	weights := make([]float64, len(libs))
	for i, l := range libs {
		weights[i] = mix[appmodel.TLSLib(l)]
	}
	return appmodel.TLSLib(libs[rng.WeightedIndex(weights)])
}

func fpPIIKinds(r *detrand.Source) []pii.Kind {
	var kinds []pii.Kind
	if r.Bool(fpEmailRate) {
		kinds = append(kinds, pii.Email)
	}
	if r.Bool(fpStateRate) {
		kinds = append(kinds, pii.State)
	}
	if r.Bool(fpCityRate) {
		kinds = append(kinds, pii.City)
	}
	if r.Bool(fpGeoRate) {
		kinds = append(kinds, pii.GeoLat)
	}
	return kinds
}

// buildPackage writes the app's file tree: manifests/plists, pin material,
// SDK payload, native code — everything static analysis will scan.
func (w *World) buildPackage(app *appmodel.App, bp *blueprint, rng *detrand.Source,
	fpMats []fpPinMaterial, sdks []sdkregistry.SDK, obfuscated, embedExtra bool) {

	pkg := apppkg.New(app.ID)
	isAndroid := app.Platform == appmodel.Android

	// Collect printable pin material (unless the app obfuscates it).
	var pinStrings []string
	var certFiles []*x509.Certificate
	if !obfuscated {
		for _, m := range fpMats {
			for _, p := range m.embedPins {
				pinStrings = append(pinStrings, p.String())
			}
			if m.embedCert != nil {
				certFiles = append(certFiles, m.embedCert)
			}
		}
	}
	if bp.pins {
		app.Truth.EmbedsPinMaterial = !obfuscated
	}

	// Unused material for non-pinning apps (the static/dynamic gap).
	if embedExtra {
		h := detrand.Pick(rng.Child("extrapick"), w.pool)
		if rng.Bool(0.5) {
			certFiles = append(certFiles, h.Chain[1])
		} else {
			pinStrings = append(pinStrings, pki.NewPin(h.Chain[1], pki.SHA256).String())
		}
		app.Truth.EmbedsPinMaterial = true
	}

	if isAndroid {
		w.buildAndroidPackage(app, bp, rng, pkg, fpMats, sdks, pinStrings, certFiles, obfuscated)
	} else {
		w.buildIOSPackage(app, bp, rng, pkg, sdks, pinStrings, certFiles)
	}
	app.Pkg = pkg
}

func (w *World) buildAndroidPackage(app *appmodel.App, bp *blueprint, rng *detrand.Source,
	pkg *apppkg.Package, fpMats []fpPinMaterial, sdks []sdkregistry.SDK,
	pinStrings []string, certFiles []*x509.Certificate, obfuscated bool) {

	pkgPath := "smali/" + strings.ReplaceAll(app.ID, ".", "/")

	// NSC (the prior-work-visible mechanism). Pins land in the NSC for
	// first-party material and, failing that, for the app's pinning SDK
	// domains (developers transcribe SDK integration guides into NSCs).
	nscRef := ""
	useNSCPins := bp.pins && rng.Child("nsc").Bool(nscPinRate[bp.tier])
	plainNSC := !useNSCPins && rng.Child("nscplain").Bool(nscPlainRate)
	if useNSCPins && !obfuscated {
		var nsc apppkg.NSC
		misconfig := rng.Child("miscfg").Bool(nscMisconfigRate)
		for i, m := range fpMats {
			if len(m.embedPins) == 0 {
				continue
			}
			d := apppkg.NSCDomain{Domain: m.host, IncludeSubdomains: true}
			for _, p := range m.embedPins {
				d.Pins = append(d.Pins, nscPinOf(p))
			}
			if misconfig && i == 0 {
				d.OverridePins = true
				d.TrustAnchorSrc = "@raw/debug_ca"
			}
			nsc.Domains = append(nsc.Domains, d)
		}
		if len(nsc.Domains) == 0 {
			for _, s := range sdks {
				if !s.Pinning || len(s.PinnedDomains) == 0 {
					continue
				}
				ps := w.sdkPins[string(app.Platform)+"/"+s.Name]
				if ps == nil || len(ps.Pins) == 0 {
					continue
				}
				d := apppkg.NSCDomain{Domain: s.PinnedDomains[0], IncludeSubdomains: true}
				for _, p := range ps.Pins {
					d.Pins = append(d.Pins, nscPinOf(p))
				}
				nsc.Domains = append(nsc.Domains, d)
				break
			}
		}
		if len(nsc.Domains) > 0 {
			nscRef = "@xml/network_security_config"
			pkg.Add("res/xml/network_security_config.xml", apppkg.BuildNSC(&nsc))
			app.Truth.UsesNSCPins = true
		}
	} else if plainNSC {
		nscRef = "@xml/network_security_config"
		pkg.Add("res/xml/network_security_config.xml", apppkg.BuildNSC(&apppkg.NSC{
			Domains: []apppkg.NSCDomain{{Domain: firstOr(bp.fpContact, "example.org")}},
		}))
	}
	pkg.Add("AndroidManifest.xml", apppkg.BuildManifest(app.ID, app.Name, nscRef))

	// First-party pin code (OkHttp CertificatePinner style).
	if len(pinStrings) > 0 {
		var b strings.Builder
		b.WriteString(".class public L" + strings.ReplaceAll(app.ID, ".", "/") + "/net/PinningConfig;\n")
		for i, ps := range pinStrings {
			fmt.Fprintf(&b, "    const-string v%d, \"%s\"\n", i%16, ps)
		}
		pkg.Add(pkgPath+"/net/PinningConfig.smali", []byte(b.String()))
	}
	for i, c := range certFiles {
		name := fmt.Sprintf("assets/certs/pin_%d", i)
		if rng.ChildN("certform", i).Bool(0.6) {
			pkg.Add(name+".pem", pki.EncodePEM(c))
		} else {
			pkg.Add(name+".der", c.Raw)
		}
	}

	// SDK payload.
	for i, s := range sdks {
		r := rng.ChildN("sdkpkg", i)
		pkg.Add(s.CodePath+"/BuildConfig.smali",
			[]byte(".class public L"+s.CodePath+"/BuildConfig;\n    const-string v0, \"https://"+firstOr(s.Domains, "sdk.example")+"\"\n"))
		if !s.CertCarrier {
			continue
		}
		mat := w.sdkMaterial(app.Platform, s)
		if mat.pin != "" {
			pkg.Add(s.CodePath+"/PinRegistry.smali",
				[]byte(".class public L"+s.CodePath+"/PinRegistry;\n    const-string v0, \""+mat.pin+"\"\n"))
		}
		if mat.cert != nil && r.Bool(0.7) {
			pkg.Add(s.CodePath+"/res/ca.pem", pki.EncodePEM(mat.cert))
		}
	}

	// Native library with extractable strings.
	if rng.Child("native").Bool(nativeLibRate) {
		blob := nativeBlob(rng.Child("blob"), pinStrings, bp.fpContact)
		pkg.AddExecutable("lib/arm64-v8a/libapp.so", blob)
	}

	// Inert filler so packages are not suspiciously minimal.
	pkg.Add("res/values/strings.xml", []byte("<resources><string name=\"app_name\">"+app.Name+"</string></resources>"))
	pkg.Add("assets/config.json", []byte(fmt.Sprintf(`{"app":"%s","flags":{"analytics":true}}`, app.ID)))
}

func (w *World) buildIOSPackage(app *appmodel.App, bp *blueprint, rng *detrand.Source,
	pkg *apppkg.Package, sdks []sdkregistry.SDK,
	pinStrings []string, certFiles []*x509.Certificate) {

	appDir := "Payload/" + slugTitle(app.Name) + ".app"
	pkg.Add(appDir+"/Info.plist", apppkg.BuildInfoPlist(app.ID, app.Name))
	pkg.Add(appDir+"/embedded.mobileprovision",
		apppkg.BuildEntitlements(app.ID, app.AssociatedDomains))

	// Main binary: URLs, pin strings and embedded PEM live inside the
	// (encrypted-at-rest) executable.
	var bin strings.Builder
	bin.WriteString("\xfe\xed\xfa\xceMACH-O-SIM\x00\x00")
	for _, d := range bp.fpContact {
		bin.WriteString("https://" + d + "/api\x00")
	}
	for _, ps := range pinStrings {
		bin.WriteString(ps + "\x00")
	}
	for _, c := range certFiles {
		bin.Write(pki.EncodePEM(c))
		bin.WriteString("\x00\x01\x02")
	}
	bin.WriteString(strings.Repeat("\x00\x7f\x10", 24))
	pkg.AddExecutable(appDir+"/"+slugTitle(app.Name), []byte(bin.String()))

	// Frameworks.
	for i, s := range sdks {
		r := rng.ChildN("sdkpkg", i)
		fwDir := appDir + "/" + s.CodePath
		fwName := strings.TrimSuffix(strings.TrimPrefix(s.CodePath, "Frameworks/"), ".framework")
		var fb strings.Builder
		fb.WriteString("\xfe\xed\xfa\xceFRAMEWORK\x00")
		fb.WriteString("https://" + firstOr(s.Domains, "sdk.example") + "\x00")
		if s.CertCarrier {
			mat := w.sdkMaterial(app.Platform, s)
			if mat.pin != "" {
				fb.WriteString(mat.pin + "\x00")
			}
			if mat.cert != nil && r.Bool(0.6) {
				pkg.Add(fwDir+"/cert.der", mat.cert.Raw)
			}
		}
		pkg.AddExecutable(fwDir+"/"+fwName, []byte(fb.String()))
	}

	// Store form: executables encrypted until dumped on a jailbroken device.
	pkg.EncryptIOS()
}

// sdkMat is an SDK's embeddable material.
type sdkMat struct {
	pin  string
	cert *x509.Certificate
}

// sdkMaterial returns the (global, per-SDK) embedded material matching its
// runtime pin configuration.
func (w *World) sdkMaterial(plat appmodel.Platform, s sdkregistry.SDK) sdkMat {
	var out sdkMat
	if ps := w.sdkPins[string(plat)+"/"+s.Name]; ps != nil && len(ps.Pins) > 0 {
		out.pin = ps.Pins[0].String()
	}
	if len(s.PinnedDomains) > 0 {
		if h := w.Hosts[s.PinnedDomains[0]]; h != nil && len(h.Chain) > 1 {
			out.cert = h.Chain[1]
		}
	} else if len(s.Domains) > 0 {
		if h := w.Hosts[s.Domains[0]]; h != nil && len(h.Chain) > 1 {
			out.cert = h.Chain[1]
		}
	}
	return out
}

// nativeBlob fabricates a shared-object-like binary with embedded strings.
func nativeBlob(rng *detrand.Source, pinStrings, hosts []string) []byte {
	var b []byte
	b = append(b, 0x7f, 'E', 'L', 'F', 2, 1, 1, 0)
	junk := make([]byte, 96)
	rng.Read(junk)
	b = append(b, junk...)
	for _, h := range hosts {
		b = append(b, []byte("https://"+h)...)
		b = append(b, 0)
	}
	if rng.Bool(0.35) {
		for _, ps := range pinStrings {
			b = append(b, []byte(ps)...)
			b = append(b, 0)
		}
	}
	more := make([]byte, 64)
	rng.Read(more)
	return append(b, more...)
}

// nscPinOf renders a pin as an NSC <pin> entry.
func nscPinOf(p pki.Pin) apppkg.NSCPin {
	digest := "SHA-256"
	if p.Alg == pki.SHA1 {
		digest = "SHA-1"
	}
	s := p.String()
	return apppkg.NSCPin{Digest: digest, Value: s[strings.Index(s, "/")+1:]}
}

func firstOr(s []string, def string) string {
	if len(s) > 0 {
		return s[0]
	}
	return def
}

func slugTitle(name string) string {
	var b strings.Builder
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "App"
	}
	return b.String()
}
