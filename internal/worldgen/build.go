package worldgen

// build.go runs the world build on every core without letting the worker
// count show in the result. A cold build is almost all certificate
// issuance and per-app materialization, and both are independent per host
// and per app: each draws from its own detrand child stream, and the pki
// issuers hold no mutable state (serials are derived from issuance
// content). What depends on order is cheap and stays serial:
//
//   - plan: slug reservation and blueprint draws, in listing order
//     (planApps);
//   - build: each unit of work (an infrastructure host, a common pair or
//     one listing) is built on its own stage, which collects the hosts,
//     CT submissions and whois records the unit creates. Units run on
//     GOMAXPROCS workers and read only what was committed before their
//     phase began;
//   - commit: stages are applied to the World in unit order, so w.Hosts,
//     the CT log's order and whois match a one-worker build exactly.
//
// GOMAXPROCS=1 runs the same code with one worker.

import (
	"crypto/x509"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pinscope/internal/appmodel"
	"pinscope/internal/appstore"
	"pinscope/internal/detrand"
	"pinscope/internal/whois"
)

// stage holds what one unit of the build creates, in creation order, until
// it is committed to the World.
type stage struct {
	w     *World
	hosts map[string]*HostInfo
	order []*HostInfo
	ct    []*x509.Certificate
	whois []whois.Record
}

func (w *World) newStage() *stage {
	return &stage{w: w, hosts: make(map[string]*HostInfo)}
}

// add records a host the stage created, with its whois record.
func (s *stage) add(h *HostInfo, rec whois.Record) {
	s.hosts[h.Host] = h
	s.order = append(s.order, h)
	s.whois = append(s.whois, rec)
}

// host returns the named host: one this stage created, else one committed
// to the World before the build phase began, else nil.
func (s *stage) host(name string) *HostInfo {
	if h, ok := s.hosts[name]; ok {
		return h
	}
	return s.w.Hosts[name]
}

// commit applies a built stage to the World. Host names derive from unique
// slugs and fixed infrastructure lists, so no two stages create the same
// host; a collision is a generator bug, and it fails the build rather than
// letting two concurrent stages share one host.
func (w *World) commit(s *stage) error {
	for _, h := range s.order {
		if _, dup := w.Hosts[h.Host]; dup {
			return fmt.Errorf("worldgen: host %s created twice", h.Host)
		}
		w.Hosts[h.Host] = h
	}
	for _, c := range s.ct {
		w.CT.Submit(c)
	}
	for _, rec := range s.whois {
		w.Whois.Register(rec)
	}
	return nil
}

// parallel calls fn(i) for every i in [0, n) on GOMAXPROCS workers, which
// claim indexes in ascending order, and returns the error of the lowest
// failing index: the error a serial loop would have stopped at.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// unit is one independently buildable part of the app world: a common
// pair, whose two builds share first-party hosts, or one listing.
type unit struct {
	builds []appBuild
	pair   *CommonPair // nil for a single listing
	stage  *stage
	apps   []*appmodel.App // parallel to builds once built
}

// appBuild is one planned app.
type appBuild struct {
	key   string // platform + "/" + listing ID
	bp    *blueprint
	rng   *detrand.Source
	label string // names the app in a build error; empty leaves it as is
}

func (u *unit) build(w *World) error {
	u.stage = w.newStage()
	for _, b := range u.builds {
		app, err := u.stage.buildApp(b.bp, b.rng)
		if err != nil {
			if b.label != "" {
				return fmt.Errorf("worldgen: %s: %w", b.label, err)
			}
			return err
		}
		u.apps = append(u.apps, app)
	}
	return nil
}

// planApps plans every app in listing order: the common pairs, then the
// popular and random datasets of each platform. A listing in more than one
// dataset is planned once, by the first.
func (w *World) planApps() []*unit {
	units := w.planCommonPairs()
	planned := make(map[string]bool)
	for _, u := range units {
		for _, b := range u.builds {
			planned[b.key] = true
		}
	}
	for _, d := range []struct {
		ds   *appstore.Dataset
		tier Tier
	}{
		{w.DS.PopularAndroid, TierPopular},
		{w.DS.PopularIOS, TierPopular},
		{w.DS.RandomAndroid, TierRandom},
		{w.DS.RandomIOS, TierRandom},
	} {
		units = append(units, w.planDataset(d.ds, d.tier, planned)...)
	}
	return units
}

// buildApps builds the planned units in parallel and commits them in plan
// order.
func (w *World) buildApps(units []*unit) error {
	if err := parallel(len(units), func(i int) error { return units[i].build(w) }); err != nil {
		return err
	}
	for _, u := range units {
		if err := w.commit(u.stage); err != nil {
			return err
		}
		for i, b := range u.builds {
			w.apps[b.key] = u.apps[i]
		}
		if u.pair != nil {
			u.pair.Android, u.pair.IOS = u.apps[0], u.apps[1]
			w.CommonPairs = append(w.CommonPairs, u.pair)
		}
	}
	return nil
}
