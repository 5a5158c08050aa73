package main

// serve.go is the serve-mixed workload: the committed paper-scale snapshot
// served by pinserve.Server in a child process, driven over loopback by an
// open-loop generator at a fixed ladder of rates while the server reloads
// the snapshot at a fixed interval.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pinscope/internal/core"
	"pinscope/internal/pinserve"
	"pinscope/internal/report"
)

const (
	snapshotPath = "dataset_paper_scale.json"
	// nominalRPS is the rate the latency percentiles are taken at: well
	// under what two loopback connections sustain on a 2-core host, so it
	// measures service time, not queueing.
	nominalRPS = 2000
	// The ladder probes capacity at multiples of the nominal rate.
	ladderTop = 8
	// p99Limit is the latency limit a rung must meet to count as sustained.
	p99Limit = 10 * time.Millisecond
	// abortDelay ends a rung whose requests wait this long for a
	// connection: the queue is growing and the rung is over capacity.
	abortDelay = 200 * time.Millisecond
	// reloadEvery is the snapshot reload interval under load. Reloads are
	// scheduled from each rung's start, so every run of a rung holds the
	// same number of them.
	reloadEvery = 500 * time.Millisecond
	// serveSetups is how many server processes a run starts; all but the
	// last only measure set-up.
	serveSetups = 15
	// warmup is the unmeasured nominal-rate lead-in before the rungs.
	warmup = time.Second
	// nominalShare is the part of --seconds spent at the nominal rate; the
	// other rungs share the rest.
	nominalShare = 0.6
)

// ladder returns the rungs' rates, nominal first.
func ladder() []float64 {
	var out []float64
	for m := 1; m <= ladderTop; m *= 2 {
		out = append(out, nominalRPS*float64(m))
	}
	return out
}

// query is one request with its expected answer.
type query struct {
	path   string
	want   int                           // expected status
	check  func(body []byte) error       // nil: the status is the whole answer
	lookup func(ix *pinserve.Index) bool // the Index call behind the answer; nil for malformed requests
}

// planned is one request of a plan: which query, and when it is due
// relative to the rung's start.
type planned struct {
	item int
	due  time.Duration
}

// makePlan draws a rung's open-loop plan: Poisson arrivals at rate for
// dur, each request drawn uniformly from a pool of n queries. The plan is
// a pure function of (seed, rung, rate, dur, n).
func makePlan(seed int64, rung int, rate float64, dur time.Duration, n int) []planned {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rung)))
	var plan []planned
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return plan
		}
		plan = append(plan, planned{item: rng.Intn(n), due: due})
	}
}

// newQueryPool builds the population requests are drawn from, uniformly,
// with every request's expected answer derived from the decoded snapshot,
// independently of the index. Like the pinserve package's own lookup
// benchmark plan (benchPlan in internal/pinserve/bench_test.go), it holds
// one app lookup per app, one destination lookup per (app, pinned domain)
// and one pin lookup per (app, pin hash), so each kind is weighted by how
// often the dataset holds it, plus the aggregate tables and the health
// check. Beside those it holds one distrust lookup per (probed
// destination, root fingerprint), and each unknown key and malformed
// request once; those expect a 4xx.
func newQueryPool(ds *core.ExportedDataset) ([]query, error) {
	var pool []query
	add := func(q query) { pool = append(pool, q) }
	decodeEqual := func(want any) func([]byte) error {
		typ := reflect.TypeOf(want)
		return func(body []byte) error {
			got := reflect.New(typ)
			if err := json.Unmarshal(body, got.Interface()); err != nil {
				return err
			}
			if !reflect.DeepEqual(got.Elem().Interface(), want) {
				return fmt.Errorf("answer differs from the snapshot: %.200s", body)
			}
			return nil
		}
	}

	// The expected answers, keyed as the service keys them.
	dests := map[string]*pinserve.DestInfo{}
	dest := func(h string) *pinserve.DestInfo {
		if dests[h] == nil {
			dests[h] = &pinserve.DestInfo{Host: h}
		}
		return dests[h]
	}
	pins := map[string][]pinserve.PinMatch{}
	names := map[string]core.ExportedApp{}
	for _, a := range ds.Apps {
		key := pinserve.AppKey(a.Platform, a.ID)
		names[key] = a
		for _, p := range a.PinSPKIHashes {
			k := pinserve.NormalizePin(p)
			pins[k] = append(pins[k], pinserve.PinMatch{Key: key, Name: a.Name, Developer: a.Developer})
		}
		for _, d := range a.PinnedDomains {
			dest(d).PinnedBy = append(dest(d).PinnedBy, key)
		}
		for _, d := range a.CircumventedDomains {
			dest(d).CircumventedBy = append(dest(d).CircumventedBy, key)
		}
	}
	roots := map[string][]string{}
	for i := range ds.Destinations {
		p := &ds.Destinations[i]
		dest(p.Host).Probe = p
		if p.RootFP != "" {
			fp := pinserve.NormalizeFingerprint(p.RootFP)
			roots[fp] = append(roots[fp], p.Host)
		}
	}
	destQ := map[string]query{}
	for h, di := range dests {
		sort.Strings(di.PinnedBy)
		sort.Strings(di.CircumventedBy)
		destQ[h] = query{path: "/v1/dest/" + url.PathEscape(h), want: 200, check: decodeEqual(*di),
			lookup: func(ix *pinserve.Index) bool { _, ok := ix.DestJSON(h); return ok }}
	}
	pinQ := map[string]query{}
	for k, ms := range pins {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].Key < ms[j].Key })
		pinQ[k] = query{path: "/v1/pins?spki=" + url.QueryEscape(k), want: 200,
			check:  decodeEqual(pinserve.PinAnswer{SPKI: k, Count: len(ms), Apps: ms}),
			lookup: func(ix *pinserve.Index) bool { _, ok := ix.PinJSON(k); return ok }}
	}
	distrustQ := map[string]query{}
	for fp, hosts := range roots {
		sort.Strings(hosts)
		want := pinserve.DistrustAnswer{Fingerprint: fp, Release: ds.Meta.Release, Hosts: hosts}
		seen := map[string]bool{}
		for _, h := range hosts {
			for _, keys := range [][]string{dests[h].PinnedBy, dests[h].CircumventedBy} {
				for _, k := range keys {
					if !seen[k] {
						seen[k] = true
						want.Apps = append(want.Apps, pinserve.PinMatch{Key: k, Name: names[k].Name, Developer: names[k].Developer})
					}
				}
			}
		}
		sort.Slice(want.Apps, func(i, j int) bool { return want.Apps[i].Key < want.Apps[j].Key })
		want.HostCount, want.AppCount = len(want.Hosts), len(want.Apps)
		distrustQ[fp] = query{path: "/v1/distrust/" + fp, want: 200, check: decodeEqual(want),
			lookup: func(ix *pinserve.Index) bool { _, ok := ix.DistrustJSON(fp); return ok }}
	}

	// The population, in snapshot order.
	for _, a := range ds.Apps {
		add(query{path: "/v1/app/" + a.Platform + "/" + url.PathEscape(a.ID), want: 200,
			check:  decodeEqual(a),
			lookup: func(ix *pinserve.Index) bool { _, ok := ix.AppJSON(a.Platform, a.ID); return ok }})
		for _, d := range a.PinnedDomains {
			add(destQ[d])
		}
		for _, p := range a.PinSPKIHashes {
			add(pinQ[pinserve.NormalizePin(p)])
		}
	}
	for i := range ds.Destinations {
		if fp := ds.Destinations[i].RootFP; fp != "" {
			add(distrustQ[pinserve.NormalizeFingerprint(fp)])
		}
	}
	tables, err := expectedTables(ds)
	if err != nil {
		return nil, err
	}
	for i, tb := range tables {
		n := i + 1
		js, text := tb[0], tb[1]
		lookup := func(ix *pinserve.Index) bool { _, ok := ix.Table(n); return ok }
		add(query{path: fmt.Sprintf("/v1/tables/%d", n), want: 200, check: bytesEqual(js), lookup: lookup})
		add(query{path: fmt.Sprintf("/v1/tables/%d?format=text", n), want: 200, check: bytesEqual(text), lookup: lookup})
	}
	add(query{path: "/v1/healthz", want: 200})

	// Unknown keys and malformed requests: the expected answer is a 4xx
	// (or, for a well-formed pin nobody ships, an empty 200).
	zeroPin := "sha256:" + strings.Repeat("0", 64)
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("com.perfbench.unknown%d", i)
		add(query{path: "/v1/app/android/" + id, want: 404,
			lookup: func(ix *pinserve.Index) bool { _, ok := ix.AppJSON("android", id); return !ok }})
		host := fmt.Sprintf("never-seen-%d.perfbench.example", i)
		add(query{path: "/v1/dest/" + host, want: 404,
			lookup: func(ix *pinserve.Index) bool { _, ok := ix.DestJSON(host); return !ok }})
	}
	add(query{path: "/v1/app/windows/com.example", want: 400})
	add(query{path: "/v1/pins?spki=", want: 400})
	add(query{path: "/v1/pins?spki=" + strings.Repeat("f", 300), want: 400})
	add(query{path: "/v1/pins?spki=" + zeroPin, want: 200,
		check:  decodeEqual(pinserve.PinAnswer{SPKI: zeroPin, Count: 0, Apps: []pinserve.PinMatch{}}),
		lookup: func(ix *pinserve.Index) bool { _, ok := ix.PinJSON(zeroPin); return !ok }})
	add(query{path: "/v1/distrust/not-a-fingerprint", want: 400})
	add(query{path: "/v1/distrust/" + strings.Repeat("0", 64), want: 404,
		lookup: func(ix *pinserve.Index) bool { _, ok := ix.DistrustJSON(strings.Repeat("0", 64)); return !ok }})
	add(query{path: "/v1/tables/9", want: 404,
		lookup: func(ix *pinserve.Index) bool { _, ok := ix.Table(9); return !ok }})
	return pool, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func bytesEqual(want []byte) func([]byte) error {
	return func(body []byte) error {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("answer differs from the snapshot aggregate: %.120s", body)
		}
		return nil
	}
}

// expectedTables renders the three aggregate tables (JSON and text) from
// the snapshot in the order the service sorts it.
func expectedTables(ds *core.ExportedDataset) ([3][2][]byte, error) {
	var out [3][2][]byte
	merged := *ds
	merged.Apps = append([]core.ExportedApp(nil), ds.Apps...)
	merged.Destinations = append([]core.ExportedProbe(nil), ds.Destinations...)
	sort.Slice(merged.Apps, func(i, j int) bool {
		if merged.Apps[i].Platform != merged.Apps[j].Platform {
			return merged.Apps[i].Platform < merged.Apps[j].Platform
		}
		return merged.Apps[i].ID < merged.Apps[j].ID
	})
	sort.Slice(merged.Destinations, func(i, j int) bool { return merged.Destinations[i].Host < merged.Destinations[j].Host })
	agg := merged.Aggregate()
	for i, tb := range []struct {
		data any
		text string
	}{
		{struct {
			Table string              `json:"table"`
			Cells []core.SnapshotCell `json:"cells"`
		}{"prevalence", agg.Prevalence}, report.SnapshotPrevalence(agg)},
		{struct {
			Table      string                  `json:"table"`
			Categories []core.SnapshotCategory `json:"categories"`
		}{"categories", agg.Categories}, report.SnapshotCategories(agg)},
		{struct {
			Table string           `json:"table"`
			PKI   core.SnapshotPKI `json:"pki"`
		}{"pki", agg.PKI}, report.SnapshotPKI(agg)},
	} {
		js, err := json.Marshal(tb.data)
		if err != nil {
			return out, err
		}
		out[i] = [2][]byte{js, []byte(tb.text)}
	}
	return out, nil
}

// --- the server child ------------------------------------------------------

type serveArg struct {
	Snapshot string `json:"snapshot"`
}

// serveMark is the server's counters at a "mark" command.
type serveMark struct {
	CPU      float64 `json:"cpu_s"`
	Alloc    float64 `json:"alloc_bytes"`
	GCCPU    float64 `json:"gc_cpu_s"`
	TotalCPU float64 `json:"total_cpu_s"`
	// Reloads finished so far, and the CPU their goroutine's thread spent.
	Reloads   int     `json:"reloads"`
	ReloadCPU float64 `json:"reload_cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"` // the process's peak RSS so far
}

type serveResult struct {
	Reloads    []float64   `json:"reload_s"`
	ReloadErrs []string    `json:"reload_errors"`
	Marks      []serveMark `json:"marks"`
	HeapPeak   float64     `json:"heap_peak_bytes"`
	RSSMB      float64     `json:"rss_mb"`
}

const (
	// quietReloads is how many reloads the server makes after the load,
	// one at a time with no lookups in flight, to time a reload and price
	// its allocation.
	quietReloads = 15
	// burstChunks is how many back-to-back bursts of about burstLookups
	// lookups each follow the ladder; cpu_s is the median over them.
	burstChunks  = 16
	burstLookups = 1000
)

// serveChild serves the snapshot on a loopback port until its stdin
// closes, reloading it on each "reload" command.
func serveChild(a serveArg) (serveResult, error) {
	var res serveResult
	srv, err := pinserve.New(pinserve.Options{Paths: []string{a.Snapshot}})
	if err != nil {
		return res, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 5*time.Second) }()
	sampler := startHeapSampler()
	signalReady(ln.Addr().String())

	// Reloads run one at a time off the command reader, on a thread of
	// their own so that their CPU can be told apart from the lookups'.
	// inReload is held for a whole reload, so a "mark" never splits one.
	var mu, inReload sync.Mutex
	var reloadCount int
	var reloadCPU float64
	reloads := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for range reloads {
			inReload.Lock()
			c0, t0 := threadCPUSeconds(), time.Now()
			err := srv.Reload()
			d, c := time.Since(t0).Seconds(), threadCPUSeconds()-c0
			mu.Lock()
			res.Reloads = append(res.Reloads, d)
			if err != nil {
				res.ReloadErrs = append(res.ReloadErrs, err.Error())
			}
			reloadCount++
			reloadCPU += c
			mu.Unlock()
			inReload.Unlock()
		}
	}()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "mark":
			inReload.Lock()
			m := readMetrics(mGCCPU, mTotalCPU)
			mu.Lock()
			res.Marks = append(res.Marks, serveMark{CPU: cpuSeconds(), Alloc: allocBytes(), GCCPU: m[0], TotalCPU: m[1],
				Reloads: reloadCount, ReloadCPU: reloadCPU, PeakRSSMB: peakRSSMB()})
			mu.Unlock()
			inReload.Unlock()
			fmt.Println("marked")
		case "quiet":
			// A reload with no lookups in flight, timed and priced.
			inReload.Lock()
			a0, t0 := allocBytes(), time.Now()
			err := srv.Reload()
			d, alloc := time.Since(t0).Seconds(), allocBytes()-a0
			inReload.Unlock()
			if err != nil {
				mu.Lock()
				res.ReloadErrs = append(res.ReloadErrs, err.Error())
				mu.Unlock()
			}
			fmt.Printf("quiet %g %g\n", d, alloc)
		case "reload":
			select {
			case reloads <- struct{}{}:
			default:
				mu.Lock()
				res.ReloadErrs = append(res.ReloadErrs, "reload requested while the previous one was still running")
				mu.Unlock()
			}
		}
	}
	close(reloads)
	wg.Wait()
	res.HeapPeak = sampler.stop()
	res.RSSMB = peakRSSMB()
	cancel()
	if err := <-served; err != nil {
		return res, err
	}
	return res, nil
}

// --- the load generator ----------------------------------------------------

// rungResult is what one rate rung observed; times in microseconds.
type rungResult struct {
	rate                    float64
	latency, lag            []float64
	pickup                  []time.Duration // in due order, for backlog detection
	attempted, failed, shed int
	skipped                 int // not sent: the rung was aborted as over capacity
	aborted                 bool
	wrong                   []string // answers that disagree with the snapshot (first few)
}

func (rr *rungResult) sustained() bool {
	p99, ok := percentile(rr.latency, 0.99)
	if !ok {
		_, p99, ok = tail(rr.latency)
	}
	return ok && !rr.aborted && rr.failed == 0 && !backlogGrowing(rr.pickup) &&
		time.Duration(p99*1e3) <= p99Limit
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// runRung offers plan to the server open-loop over conns connections:
// each request is sent when it is due or, if every connection is busy, as
// soon as one frees up, and its latency counts from its due time.
func runRung(client *http.Client, base string, pool []query, plan []planned, rate float64, conns int, tr *tracer, reload func()) rungResult {
	rr := rungResult{rate: rate}
	type sample struct {
		pickup, done time.Duration
		sent         bool
		shed         bool
		netErr       error // timeout or transport failure
		wrong        error // the answer disagrees with the snapshot
	}
	samples := make([]sample, len(plan))
	lags := make([]time.Duration, len(plan))
	queue := make(chan int, len(plan)) // one slot per planned send: the generator never blocks
	var abort atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.pickup = time.Since(t0)
				if abort.Load() || s.pickup-plan[i].due > abortDelay {
					abort.Store(true)
					continue
				}
				q := &pool[plan[i].item]
				h := tr.begin("request", fmt.Sprint(i), -1)
				s.shed, s.netErr, s.wrong = doQuery(client, base, q)
				tr.end(h)
				s.done, s.sent = time.Since(t0), true
			}
		}()
	}
	// The generator sleeps on its own OS thread with nanosleep: a
	// goroutine's time.Sleep on an idle runtime wakes from the poller with
	// millisecond granularity, which would add up to 1ms of generator lag
	// to every latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	nextReload := reloadEvery / 2
	for i, p := range plan {
		if abort.Load() {
			break
		}
		if wait := p.due - time.Since(t0); wait > 0 {
			ts := syscall.NsecToTimespec(wait.Nanoseconds())
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		lags[i] = time.Since(t0) - p.due
		queue <- i
		if p.due >= nextReload {
			reload()
			nextReload += reloadEvery
		}
	}
	close(queue)
	wg.Wait()
	rr.aborted = abort.Load()
	for i, s := range samples {
		if !s.sent {
			rr.skipped++
			continue
		}
		rr.attempted++
		rr.lag = append(rr.lag, float64(lags[i].Nanoseconds())/1e3)
		rr.pickup = append(rr.pickup, s.pickup-plan[i].due)
		rr.latency = append(rr.latency, float64((s.done-plan[i].due).Nanoseconds())/1e3)
		switch {
		case s.shed:
			rr.failed++
			rr.shed++
		case s.netErr != nil:
			rr.failed++
		case s.wrong != nil:
			rr.failed++
			if len(rr.wrong) < 5 {
				rr.wrong = append(rr.wrong, fmt.Sprintf("%s: %v", pool[plan[i].item].path, s.wrong))
			}
		}
	}
	return rr
}

// runBurst sends plan's requests back to back over conns connections,
// each connection sending its next request as soon as the last answer is
// in, with no reloads. Busy connections leave the server no idle time, so
// its CPU per lookup is the lookup path's own and not the cost of waking
// an idle process, which on a shared host varies with the host's load.
func runBurst(client *http.Client, base string, pool []query, plan []planned, conns int) rungResult {
	rr := rungResult{}
	next := make(chan int, len(plan))
	for i := range plan {
		next <- i
	}
	close(next)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				q := &pool[plan[i].item]
				shed, netErr, wrong := doQuery(client, base, q)
				mu.Lock()
				rr.attempted++
				if shed || netErr != nil || wrong != nil {
					rr.failed++
				}
				if shed {
					rr.shed++
				}
				if wrong != nil && len(rr.wrong) < 5 {
					rr.wrong = append(rr.wrong, fmt.Sprintf("%s: %v", q.path, wrong))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return rr
}

// doQuery sends one request and checks its answer: shed is a 503 from the
// server's admission control, netErr a timeout or transport failure, and
// wrong an answer that disagrees with the snapshot.
func doQuery(client *http.Client, base string, q *query) (shed bool, netErr, wrong error) {
	resp, err := client.Get(base + q.path)
	if err != nil {
		return false, err, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err, nil
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return true, nil, nil
	}
	return false, nil, answerError(q, resp.StatusCode, body)
}

func answerError(q *query, status int, body []byte) error {
	if status != q.want {
		return fmt.Errorf("status %d, want %d: %.120s", status, q.want, body)
	}
	if q.check != nil {
		return q.check(body)
	}
	return nil
}

// --- the workload ----------------------------------------------------------

// serveLoad is everything one serve-mixed run measured.
type serveLoad struct {
	setups   []float64
	rungs    []rungResult
	untraced *rungResult // traced runs: the nominal rung without spans
	server   serveResult
	bursts   []rungResult // back-to-back lookups after the ladder, for cpu_s
	// quiet are the wall times of the reloads made with no lookups in
	// flight, after the bursts; reloadAlloc is their median allocation.
	quiet       []float64
	reloadAlloc float64
	// Probe points: the one before each set-up, burst and quiet reload.
	pr                        prober
	setupAt, burstAt, quietAt []int
}

func runServeMixed(r *run) error {
	ds, err := core.LoadExportedDataset(snapshotPath)
	if err != nil {
		return err
	}
	pool, err := newQueryPool(ds)
	if err != nil {
		return err
	}
	var tr *tracer
	if r.trace {
		tr = newTracer()
		if err := serveLayers(r, ds, pool, tr); err != nil {
			return err
		}
	}
	ld, err := loadServer(r, pool, tr)
	if err != nil {
		return err
	}
	for _, e := range ld.server.ReloadErrs {
		r.mismatch("reload failed under load: %s", e)
	}
	if len(ld.server.Marks) != 2+2*burstChunks {
		return fmt.Errorf("server recorded %d marks, want %d", len(ld.server.Marks), 2+2*burstChunks)
	}
	if len(ld.nominalReloads()) == 0 {
		return fmt.Errorf("the server never reloaded at the nominal rate; run longer than %v", reloadEvery)
	}
	for _, rr := range append(ld.rungs, ld.bursts...) {
		r.rec.Result.Attempted += rr.attempted
		r.rec.Result.Failed += rr.failed
		for _, e := range rr.wrong {
			r.mismatch("at %.0f req/s: %s", rr.rate, e)
		}
	}
	nom := ld.rungs[0]
	if r.trace {
		return reportServeLayers(r, ld, tr)
	}
	m := ld.server.Marks
	reloads := ld.nominalReloads()
	// The nominal rung's reloads are taken out of its CPU and allocation,
	// so both are the lookups' own: a reload's CPU as its thread measured
	// it, its allocation as a reload with no lookups in flight measured it.
	// The GC work a reload's garbage causes on other threads stays in.
	kreq := float64(nom.attempted) / 1000
	n := fmt.Sprintf("over %d lookups at %d req/s, less the %d reloads among them", nom.attempted, nominalRPS, len(reloads))
	// apps_per_s, setup_s and cpu_s at the reference host speed, each
	// sample scaled by the probe points on either side of it.
	pr := &ld.pr
	if pr.err != nil {
		return pr.err
	}
	pr.save(r)
	var rate, nrate, cpu, ncpu, nsetup []float64
	for i, q := range ld.quiet {
		rate = append(rate, float64(len(ds.Apps))/q)
		nrate = append(nrate, rate[i]/pr.wallScale(ld.quietAt[i]))
	}
	for i, su := range ld.setups {
		nsetup = append(nsetup, su*pr.wallScale(ld.setupAt[i]))
	}
	burstN := 0
	for j, b := range ld.bursts {
		c := (m[3+2*j].CPU - m[2+2*j].CPU) / (float64(b.attempted) / 1000)
		cpu, ncpu = append(cpu, c), append(ncpu, c*pr.loopScale(ld.burstAt[j]))
		burstN += b.attempted
	}
	r.rec.Samples["apps_per_s"], r.rec.Samples["cpu_s"], r.rec.Samples["setup_s"] = rate, cpu, ld.setups
	r.set("apps_per_s", median(nrate),
		fmt.Sprintf("%d apps / reload with no lookups in flight, median of %d, %s; raw %.0f", len(ds.Apps), len(ld.quiet), pr.note(), median(rate)))
	r.set("setup_s", median(nsetup),
		fmt.Sprintf("median of %d server set-ups, at reference host speed; raw %.4f", len(ld.setups), median(ld.setups)))
	r.set("cpu_s", median(ncpu), fmt.Sprintf("server CPU per 1000 lookups, median of %d bursts (%d lookups) sent back to back on %d connections with no reloads, at reference host speed; raw %.4f",
		len(ld.bursts), burstN, runtime.NumCPU(), median(cpu)))
	r.set("alloc_mb", (m[1].Alloc-m[0].Alloc-float64(len(reloads))*ld.reloadAlloc)/kreq/1e6,
		fmt.Sprintf("server allocation per 1000 lookups, %s (%.1f MB each)", n, ld.reloadAlloc/1e6))
	// The rungs above the nominal rate saturate the host, which delays
	// the collector by a varying amount; the nominal rung, where every
	// other figure is taken, holds the process's memory steady.
	r.set("peak_rss_mb", m[1].PeakRSSMB, fmt.Sprintf("server process, through set-up and the nominal rung (%.1f MB over the whole run)", ld.server.RSSMB))
	res := r.rec.Result
	r.set("ok_frac", 1-float64(res.Failed)/float64(res.Attempted), fmt.Sprintf("%d of %d lookups failed over the ladder and the bursts", res.Failed, res.Attempted))
	p99, ok := percentile(nom.latency, 0.99)
	fmt.Printf("lookups at %d req/s: p50 %.1fus, p99 %.1fus (reportable=%v) of %d; max sustained rate %.0f req/s\n",
		nominalRPS, median(nom.latency), p99, ok, len(nom.latency), maxRate(ld.rungs))
	return nil
}

func maxRate(rungs []rungResult) float64 {
	best := 0.0
	for _, rr := range rungs {
		if rr.sustained() {
			best = math.Max(best, rr.rate)
		}
	}
	return best
}

// nominalReloads are the durations of the reloads made during the
// nominal rung, between its two marks.
func (ld *serveLoad) nominalReloads() []float64 {
	m := ld.server.Marks
	return ld.server.Reloads[m[0].Reloads:m[1].Reloads]
}

// mark has the server record its counters and waits until it has.
func (c *child) mark() error {
	if err := c.send("mark"); err != nil {
		c.kill()
		return err
	}
	return c.await("marked")
}

// quietReload has the server make one reload with no lookups in flight
// and returns its wall time and allocation.
func (c *child) quietReload() (float64, float64, error) {
	if err := c.send("quiet"); err != nil {
		c.kill()
		return 0, 0, err
	}
	if !c.out.Scan() {
		c.kill()
		return 0, 0, fmt.Errorf("server exited during a quiet reload: %v", c.wait())
	}
	var d, alloc float64
	if _, err := fmt.Sscanf(c.out.Text(), "quiet %g %g", &d, &alloc); err != nil {
		c.kill()
		return 0, 0, fmt.Errorf("child protocol: want quiet reload figures, got %.80q", c.out.Text())
	}
	return d, alloc, nil
}

// loadServer starts the server processes and drives the ladder.
func loadServer(r *run, pool []query, tr *tracer) (*serveLoad, error) {
	ld := &serveLoad{}
	arg := serveArg{Snapshot: snapshotPath}
	for i := 0; i < serveSetups-1; i++ {
		ld.setupAt = append(ld.setupAt, ld.pr.point())
		var ignored serveResult
		setup, err := runChild("serve", arg, &ignored)
		if err != nil {
			return nil, err
		}
		ld.setups = append(ld.setups, setup.Seconds())
	}
	ld.setupAt = append(ld.setupAt, ld.pr.point())
	c, err := spawn("serve", arg)
	if err != nil {
		return nil, err
	}
	setup, addr, err := c.ready()
	if err != nil {
		return nil, err
	}
	ld.setups = append(ld.setups, setup.Seconds())
	ld.pr.point()
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	base := "http://" + addr
	rates := ladder()
	rest := r.seconds * (1 - nominalShare) / float64(len(rates)-1)
	dur := func(i int) time.Duration {
		s := rest
		if i == 0 {
			s = r.seconds * nominalShare
		}
		return time.Duration(s * float64(time.Second))
	}
	n := len(pool)
	reload := func() {
		if err := c.send("reload"); err != nil {
			fmt.Fprintln(os.Stderr, "pinbench: reload command:", err)
		}
	}
	// A second at the nominal rate, not measured, lets the connections,
	// the heap and the reload path warm up: a fresh server's first
	// requests pay costs a long-running one does not.
	runRung(client, base, pool, makePlan(r.seed, -1, rates[0], warmup, n), rates[0], conns, nil, reload)
	if tr != nil {
		// The nominal rung once without spans, for the tracing overhead.
		rr := runRung(client, base, pool, makePlan(r.seed, 0, rates[0], dur(0), n), rates[0], conns, nil, reload)
		ld.untraced = &rr
	}
	for i, rate := range rates {
		if i == 0 {
			if err := c.mark(); err != nil {
				return nil, err
			}
		}
		ld.rungs = append(ld.rungs, runRung(client, base, pool, makePlan(r.seed, i, rate, dur(i), n), rate, conns, tr, reload))
		if i == 0 {
			if err := c.mark(); err != nil {
				return nil, err
			}
		}
	}
	// Back-to-back bursts, each drawn like the nominal rung's lookups,
	// then quiet reloads; a probe point before each.
	for j := 0; j < burstChunks; j++ {
		ld.burstAt = append(ld.burstAt, ld.pr.point())
		if err := c.mark(); err != nil {
			return nil, err
		}
		plan := makePlan(r.seed, len(rates)+j, nominalRPS, burstLookups*time.Second/nominalRPS, n)
		ld.bursts = append(ld.bursts, runBurst(client, base, pool, plan, conns))
		if err := c.mark(); err != nil {
			return nil, err
		}
	}
	var allocs []float64
	for i := 0; i < quietReloads; i++ {
		ld.quietAt = append(ld.quietAt, ld.pr.point())
		d, alloc, err := c.quietReload()
		if err != nil {
			return nil, err
		}
		ld.quiet, allocs = append(ld.quiet, d), append(allocs, alloc)
	}
	ld.pr.point()
	ld.reloadAlloc = median(allocs)
	for _, rr := range ld.rungs {
		p99, _ := percentile(rr.latency, 0.99)
		fmt.Printf("rung %6.0f req/s: %5d sent %5d skipped, p50 %7.1fus p99 %8.1fus, lag p50 %.1fus, sustained=%v\n",
			rr.rate, rr.attempted, rr.skipped, median(rr.latency), p99, median(rr.lag), rr.sustained())
	}
	client.CloseIdleConnections()
	if err := c.finish(&ld.server); err != nil {
		return nil, err
	}
	return ld, nil
}

// serveLayers measures pinserve's layers in-process: snapshot decode,
// index build, index lookups and the handler without a socket.
func serveLayers(r *run, ds *core.ExportedDataset, pool []query, tr *tracer) error {
	var readS, buildMS []float64
	var ix *pinserve.Index
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f, err := os.Open(snapshotPath)
		if err != nil {
			return err
		}
		_, err = core.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
		readS = append(readS, time.Since(t0).Seconds())
		t0 = time.Now()
		if ix, err = pinserve.Build(ds); err != nil {
			return err
		}
		buildMS = append(buildMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	r.set("core.readjson_s", median(readS), "median of 3 snapshot decodes")
	r.set("pinserve.index_build_ms", median(buildMS), "median of 3 builds")

	plan := makePlan(r.seed, 0, nominalRPS, time.Duration(r.seconds*nominalShare*float64(time.Second)), len(pool))
	lookups := 0
	t0 := time.Now()
	for _, p := range plan {
		if q := &pool[p.item]; q.lookup != nil {
			if !q.lookup(ix) {
				r.mismatch("index lookup for %s disagrees with the snapshot", q.path)
			}
			lookups++
		}
	}
	r.set("pinserve.index_lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(lookups),
		fmt.Sprintf("mean of %d lookups of the nominal plan", lookups))

	srv, err := pinserve.New(pinserve.Options{})
	if err != nil {
		return err
	}
	if err := srv.Load(ds); err != nil {
		return err
	}
	h := srv.Handler()
	var us []float64
	for i, p := range plan {
		q := &pool[p.item]
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		rec := httptest.NewRecorder()
		span := tr.begin("handler", fmt.Sprint(i), -1)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(span)
		if err := answerError(q, rec.Code, rec.Body.Bytes()); err != nil {
			r.mismatch("handler %s: %v", q.path, err)
		}
	}
	r.set("pinserve.handler_us", median(us), fmt.Sprintf("median of %d requests of the nominal plan", len(us)))
	return nil
}

func reportServeLayers(r *run, ld *serveLoad, tr *tracer) error {
	nom, un := ld.rungs[0], ld.untraced
	shed, attempted := 0, 0
	var lag []float64
	for _, rr := range ld.rungs {
		shed += rr.shed
		attempted += rr.attempted
		lag = append(lag, rr.lag...)
	}
	m := ld.server.Marks
	reloads := ld.nominalReloads()
	r.set("pinserve.shed", float64(shed), fmt.Sprintf("of %d lookups over the ladder", attempted))
	r.set("pinserve.reload_s", median(reloads), fmt.Sprintf("median of %d reloads at the nominal rate", len(reloads)))
	r.set("pinserve.lookup_p50_us", median(nom.latency), fmt.Sprintf("median of %d at %d req/s", len(nom.latency), nominalRPS))
	if p99, ok := percentile(nom.latency, 0.99); ok {
		r.set("pinserve.lookup_p99_us", p99, fmt.Sprintf("p99 of %d at %d req/s", len(nom.latency), nominalRPS))
	} else {
		r.set("pinserve.lookup_p99_us", 0, fmt.Sprintf("not reported: %d samples leave fewer than %d beyond p99", len(nom.latency), minBeyond))
	}
	r.set("pinserve.lookup_samples", float64(len(nom.latency)), "")
	rungs := make([]string, len(ld.rungs))
	for i, rr := range ld.rungs {
		rungs[i] = fmt.Sprintf("%.0f:%v", rr.rate, rr.sustained())
	}
	r.set("pinserve.max_rate_rps", maxRate(ld.rungs), fmt.Sprintf("p99 limit %v; rungs %s", p99Limit, strings.Join(rungs, " ")))
	r.set("runtime.gc_cpu_frac", (m[1].GCCPU-m[0].GCCPU)/(m[1].TotalCPU-m[0].TotalCPU), "server, over the nominal rung")
	r.set("runtime.heap_peak_mb", ld.server.HeapPeak/1e6, "server, sampled every 5ms while serving")
	if v, ok := percentile(lag, 0.99); ok {
		r.set("bench.gen_lag_p99_us", v, fmt.Sprintf("p99 of %d sends", len(lag)))
	} else {
		r.set("bench.gen_lag_p99_us", 0, fmt.Sprintf("not reported: %d sends leave fewer than %d beyond p99", len(lag), minBeyond))
	}
	r.set("bench.trace_overhead_frac", median(nom.latency)/median(un.latency)-1,
		fmt.Sprintf("nominal p50 traced %.1fus vs untraced %.1fus", median(nom.latency), median(un.latency)))
	// Coverage: in-process handler time over the client-observed span
	// time of the traced nominal rung's requests.
	var handler, request float64
	byName := tr.byName()
	for _, v := range byName["handler"] {
		handler += v
	}
	reqs := tr.durations("request")
	for _, v := range reqs[:min(len(reqs), nom.attempted)] {
		request += v * 1e6
	}
	r.set("bench.span_coverage", handler/request, fmt.Sprintf("%.0fus handler over %.0fus of request spans", handler, request))
	return tr.write(fmt.Sprintf("%s/serve-mixed-seed%d-spans.json", resultsDir, r.seed))
}
