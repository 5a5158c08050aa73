// Package worldgen deterministically generates the study's complete world:
// the PKI ecosystem, destination servers with real certificate chains, the
// whois registry, both app stores with their datasets, and every
// materialized app (package bytes + runtime behaviour). All calibration
// constants live in params.go; the analysis pipelines never see them.
package worldgen

import (
	"crypto/x509"
	"fmt"
	"sort"
	"strings"

	"pinscope/internal/appmodel"
	"pinscope/internal/appstore"
	"pinscope/internal/ctlog"
	"pinscope/internal/detrand"
	"pinscope/internal/netem"
	"pinscope/internal/pki"
	"pinscope/internal/rootprogram"
	"pinscope/internal/sdkregistry"
	"pinscope/internal/tlswire"
	"pinscope/internal/whois"
)

// Params sizes the generated world.
type Params struct {
	Seed int64
	// Dataset sizes per platform.
	CommonSize, PopularSize, RandomSize int
	// Store population sizes (scaled stand-ins for the ~1.3M real stores).
	StoreAndroid, StoreIOS int
	// CrossProducts is the number of products listed on both stores.
	CrossProducts int
	// PopularCut is the store rank below which the popular category mix
	// applies.
	PopularCut int
}

// DefaultParams reproduces the paper's dataset sizes (§3).
func DefaultParams() Params {
	return Params{
		Seed:       20221025, // IMC'22 opening day
		CommonSize: 575, PopularSize: 1000, RandomSize: 1000,
		StoreAndroid: 42000, StoreIOS: 39000,
		CrossProducts: 700, PopularCut: 12000,
	}
}

// TestParams is a CI-friendly miniature world.
func TestParams(seed int64) Params {
	return Params{
		Seed:       seed,
		CommonSize: 60, PopularSize: 100, RandomSize: 100,
		StoreAndroid: 4200, StoreIOS: 3900,
		CrossProducts: 80, PopularCut: 1200,
	}
}

// HostKind labels destination hosts for payload/PII synthesis.
type HostKind string

const (
	KindFirstParty HostKind = "first-party"
	KindSDK        HostKind = "sdk"
	KindCDN        HostKind = "cdn"
	KindAds        HostKind = "ads"
	KindMetrics    HostKind = "metrics"
	KindAPI        HostKind = "api"
	KindApple      HostKind = "apple"
)

// HostInfo is one destination server.
type HostInfo struct {
	Host string
	Kind HostKind
	Org  string

	Chain      pki.Chain
	Leaf       *pki.Entity
	SelfSigned bool
	CustomPKI  bool
	// CustomRoot is the private trust anchor for CustomPKI/SelfSigned
	// hosts (what the owning app's client trusts).
	CustomRoot *x509.Certificate

	// OriginalLeaf is the pre-rotation leaf (what shipped apps embedded);
	// nil when no rotation happened.
	OriginalLeaf *x509.Certificate

	// Flaky hosts go offline before the chain-probe phase (Table 6's
	// "Data Unavailable").
	Flaky bool
	// ResetOnAccept hosts abort every connection (a failure confounder).
	ResetOnAccept bool
}

// Datasets groups the six study datasets.
type Datasets struct {
	CommonAndroid, CommonIOS   *appstore.Dataset
	PopularAndroid, PopularIOS *appstore.Dataset
	RandomAndroid, RandomIOS   *appstore.Dataset
}

// All returns the datasets in canonical report order.
func (d *Datasets) All() []*appstore.Dataset {
	return []*appstore.Dataset{
		d.CommonAndroid, d.CommonIOS,
		d.PopularAndroid, d.PopularIOS,
		d.RandomAndroid, d.RandomIOS,
	}
}

// CommonPair is a common app materialized on both platforms.
type CommonPair struct {
	Name    string
	Android *appmodel.App
	IOS     *appmodel.App
	// TruthClass records the generated consistency class (tests only).
	TruthClass string
}

// World is the fully generated study environment.
type World struct {
	Params Params

	Eco   *pki.Ecosystem
	CT    *ctlog.Log
	Whois *whois.Registry
	// Timeline is the versioned root-program axis: platform release lines
	// plus the distrust-event stream. Derived from the same seed as Eco,
	// so a given world always carries the same timeline.
	Timeline *rootprogram.Timeline

	StoreAndroid, StoreIOS *appstore.Store
	DS                     Datasets

	Hosts       map[string]*HostInfo
	CommonPairs []*CommonPair

	apps      map[string]*appmodel.App // key: platform + "/" + listing ID
	usedSlugs map[string]bool
	// pool is the shared third-party host pool in creation order.
	pool []*HostInfo
	rng  *detrand.Source
	// sdkPins caches the runtime pin set per pinning SDK (one per SDK, as
	// a shipped SDK version pins one way everywhere).
	sdkPins map[string]*pki.PinSet
}

// Build generates the world. It is deterministic in Params: the world is
// planned serially, built on GOMAXPROCS workers and committed in a fixed
// order (see build.go), so the worker count never shows in the result.
func Build(p Params) (*World, error) {
	rng := detrand.New(p.Seed)
	eco, err := pki.BuildEcosystem(rng.Child("pki"))
	if err != nil {
		return nil, err
	}
	// Child streams derive without advancing the parent, so adding the
	// timeline leaves every pre-existing draw untouched.
	tl, err := rootprogram.BuildTimeline(rng.Child("rootprogram"), eco)
	if err != nil {
		return nil, err
	}
	w := &World{
		Params:    p,
		Eco:       eco,
		Timeline:  tl,
		CT:        ctlog.New(),
		Whois:     whois.NewRegistry(),
		Hosts:     make(map[string]*HostInfo),
		apps:      make(map[string]*appmodel.App),
		usedSlugs: make(map[string]bool),
		sdkPins:   make(map[string]*pki.PinSet),
		rng:       rng,
	}

	w.StoreAndroid, w.StoreIOS = appstore.Generate(appstore.GenConfig{
		Rng:           rng.Child("stores"),
		AndroidSize:   p.StoreAndroid,
		IOSSize:       p.StoreIOS,
		CrossProducts: p.CrossProducts,
		PopularCut:    p.PopularCut,
	})

	crawl := rng.Child("crawl")
	w.DS.CommonAndroid, w.DS.CommonIOS = appstore.CrawlCommon(w.StoreAndroid, w.StoreIOS, p.CommonSize)
	w.DS.PopularAndroid = appstore.CrawlPopularAndroid(w.StoreAndroid, crawl.Child("pa"), p.PopularSize)
	w.DS.PopularIOS = appstore.CrawlPopularIOS(w.StoreIOS, crawl.Child("pi"), p.PopularSize)
	w.DS.RandomAndroid = appstore.CrawlRandom(w.StoreAndroid, crawl.Child("ra"), p.RandomSize)
	w.DS.RandomIOS = appstore.CrawlRandom(w.StoreIOS, crawl.Child("ri"), p.RandomSize)

	if err := w.buildInfrastructure(); err != nil {
		return nil, err
	}
	if err := w.buildApps(w.planApps()); err != nil {
		return nil, err
	}
	return w, nil
}

// App returns the materialized app for a listing, or nil.
func (w *World) App(l *appstore.Listing) *appmodel.App {
	return w.apps[string(l.Platform)+"/"+l.ID]
}

// Apps returns the materialized apps of a dataset, in listing order.
func (w *World) Apps(d *appstore.Dataset) []*appmodel.App {
	out := make([]*appmodel.App, 0, len(d.Listings))
	for _, l := range d.Listings {
		if a := w.App(l); a != nil {
			out = append(out, a)
		}
	}
	return out
}

// --- host management -------------------------------------------------------

// addPublicHost creates a destination with a public-PKI chain, registers
// whois and submits the chain to the CT log.
func (s *stage) addPublicHost(host string, kind HostKind, org string, private bool) (*HostInfo, error) {
	if h, ok := s.hosts[host]; ok {
		return h, nil
	}
	rng := s.w.rng.Child("host/" + host)
	chain, leaf, err := s.w.Eco.IssuePublicChain(rng, host, pki.LeafOptions{})
	if err != nil {
		return nil, fmt.Errorf("worldgen: host %s: %w", host, err)
	}
	h := &HostInfo{Host: host, Kind: kind, Org: org, Chain: chain, Leaf: leaf}
	s.add(h, whois.Record{Domain: host, Org: org, Private: private})
	s.ct = append(s.ct, chain...)
	return h, nil
}

// addCustomHost creates a destination anchored in a private CA.
func (s *stage) addCustomHost(host, org string) (*HostInfo, error) {
	rng := s.w.rng.Child("host/" + host)
	root, inter, err := s.w.Eco.NewCustomPKI(rng, org)
	if err != nil {
		return nil, err
	}
	leaf, err := inter.IssueLeaf(rng, host, pki.LeafOptions{})
	if err != nil {
		return nil, err
	}
	h := &HostInfo{
		Host: host, Kind: KindFirstParty, Org: org,
		Chain: pki.Chain{leaf.Cert, inter.Cert, root.Cert}, Leaf: leaf,
		CustomPKI: true, CustomRoot: root.Cert,
	}
	s.add(h, whois.Record{Domain: host, Org: org})
	return h, nil
}

// addSelfSignedHost creates a destination serving a bare self-signed
// certificate with an implausibly long validity (§5.3.1 found 27y and 10y).
func (s *stage) addSelfSignedHost(host, org string, validYears int) (*HostInfo, error) {
	rng := s.w.rng.Child("host/" + host)
	leaf, err := pki.NewSelfSigned(rng, host, validYears)
	if err != nil {
		return nil, err
	}
	h := &HostInfo{
		Host: host, Kind: KindFirstParty, Org: org,
		Chain: pki.Chain{leaf.Cert}, Leaf: leaf,
		SelfSigned: true, CustomRoot: leaf.Cert,
	}
	s.add(h, whois.Record{Domain: host, Org: org})
	return h, nil
}

// rotateLeaf reissues the host's leaf with the same key pair, keeping the
// original for §5.3.3 comparisons. Only valid for public-PKI hosts the
// stage created.
func (s *stage) rotateLeaf(h *HostInfo) error {
	// Reissue from the same intermediate that signed the current leaf.
	rng := s.w.rng.Child("rotate/" + h.Host)
	if len(h.Chain) < 2 {
		return fmt.Errorf("worldgen: cannot rotate chain of length %d", len(h.Chain))
	}
	var issuer *pki.Authority
	for _, a := range s.w.Eco.Intermediates {
		if a.Cert.Equal(h.Chain[1]) {
			issuer = a
			break
		}
	}
	if issuer == nil {
		return fmt.Errorf("worldgen: issuer of %s not found", h.Host)
	}
	newLeaf, err := issuer.ReissueLeaf(rng, h.Leaf, pki.LeafOptions{
		NotBefore: pki.StudyEpoch.AddDate(0, -1, 0),
		NotAfter:  pki.StudyEpoch.AddDate(0, 11, 0),
	})
	if err != nil {
		return err
	}
	h.OriginalLeaf = h.Leaf.Cert
	h.Leaf = newLeaf
	h.Chain = pki.Chain{newLeaf.Cert, h.Chain[1], h.Chain[2]}
	s.ct = append(s.ct, newLeaf.Cert)
	return nil
}

// buildInfrastructure creates the shared destination universe: SDK hosts,
// the generic third-party pool, and Apple's service domains. Each host is
// issued on its own stage, in parallel, and committed in creation order.
func (w *World) buildInfrastructure() error {
	type infraHost struct {
		host string
		kind HostKind
		org  string
		pool bool
	}
	var specs []infraHost
	// SDK destinations (sorted for deterministic creation order).
	orgDomains := sdkregistry.OrgDomains()
	domains := make([]string, 0, len(orgDomains))
	for d := range orgDomains {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		specs = append(specs, infraHost{d, KindSDK, orgDomains[d], false})
	}
	// Generic third-party pool.
	for _, p := range []struct {
		prefix, domain string
		kind           HostKind
		org            string
		n              int
	}{
		{"cdn", "webinfra-cache.net", KindCDN, "EdgeCache Networks", 50},
		{"static", "contentcache.com", KindCDN, "ContentCache", 30},
		{"ads", "adnet-exchange.com", KindAds, "AdNet Exchange", 45},
		{"track", "telemetrics.io", KindMetrics, "Telemetrics", 35},
		{"api", "cloudbackend.dev", KindAPI, "CloudBackend", 40},
	} {
		for i := 0; i < p.n; i++ {
			host := fmt.Sprintf("%s%d.%s", p.prefix, i, p.domain)
			specs = append(specs, infraHost{host, p.kind, fmt.Sprintf("%s %d", p.org, i%7), true})
		}
	}
	// Apple service domains (iOS background traffic, §4.5).
	for _, d := range []string{"icloud.com", "apple.com", "mzstatic.com"} {
		specs = append(specs, infraHost{d, KindApple, "Apple Inc", false})
	}

	stages := make([]*stage, len(specs))
	err := parallel(len(specs), func(i int) error {
		sp := specs[i]
		s := w.newStage()
		h, err := s.addPublicHost(sp.host, sp.kind, sp.org, false)
		if err != nil {
			return err
		}
		if sp.pool && w.rng.Child("flk/"+sp.host).Bool(serverResetRate) {
			h.ResetOnAccept = true
		}
		stages[i] = s
		return nil
	})
	if err != nil {
		return err
	}
	for i, s := range stages {
		if err := w.commit(s); err != nil {
			return err
		}
		if specs[i].pool {
			w.pool = append(w.pool, s.hosts[specs[i].host])
		}
	}

	// Runtime pin sets for pinning SDKs: each SDK pins one way globally.
	for _, plat := range appmodel.Platforms {
		for _, sdk := range sdkregistry.PinningSDKs(plat) {
			if len(sdk.PinnedDomains) == 0 {
				continue
			}
			key := string(plat) + "/" + sdk.Name
			rng := w.rng.Child("sdkpin/" + key)
			ps := &pki.PinSet{}
			for _, d := range sdk.PinnedDomains {
				h := w.Hosts[d]
				// SDKs mostly pin the issuing CA (§5.3.2).
				target := h.Chain[1]
				if !rng.Bool(sdkCAPinRate) {
					target = h.Chain.Leaf()
				}
				ps.Pins = append(ps.Pins, pki.NewPin(target, pki.SHA256))
			}
			w.sdkPins[key] = ps
		}
	}
	return nil
}

// InstallServers registers every host's handler on a network. Workers call
// this on private netem instances so app runs can proceed in parallel.
// When includeFlaky is false, flaky hosts are absent (the probe-phase
// network).
func (w *World) InstallServers(n *netem.Network, includeFlaky bool) {
	for _, h := range w.Hosts {
		if h.Flaky && !includeFlaky {
			continue
		}
		host := h
		// Real 1.3 servers hand out a ticket or two after the handshake —
		// more disguised records for the detector to tolerate.
		tickets := 1 + len(host.Host)%2
		n.Listen(h.Host, func(tr tlswire.Transport) {
			tlswire.Serve(tr, &tlswire.ServerConfig{
				Chain:          host.Chain,
				ResetOnAccept:  host.ResetOnAccept,
				SessionTickets: tickets,
			})
		})
	}
}

// NewNetwork builds a ready network with all servers installed.
func (w *World) NewNetwork(includeFlaky bool) *netem.Network {
	n := netem.New()
	w.InstallServers(n, includeFlaky)
	return n
}

// slugFor reserves a unique DNS-safe brand slug for an app name.
func (w *World) slugFor(name, id string) string {
	base := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return -1
	}, name)
	if base == "" {
		base = "app"
	}
	s := base
	if w.usedSlugs[s] {
		s = fmt.Sprintf("%s-%08x", base, w.rng.Child("slug/"+id).Uint64()&0xffffffff)
	}
	w.usedSlugs[s] = true
	return s
}
