package main

// layers.go is the traced run of the study workloads. It repeats the
// workload's operation with spans around the core-level calls, drives one
// app at a time through the layers' public functions on a world of the
// same seed and in the workload's memo state (study-fresh: in a process of
// its own that has run no study), replays the run's real journal payloads
// through the journal package, and turns the spans into the per-layer
// metrics.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pinscope/internal/appmodel"
	"pinscope/internal/core"
	"pinscope/internal/detrand"
	"pinscope/internal/device"
	"pinscope/internal/dynamicanalysis"
	"pinscope/internal/frida"
	"pinscope/internal/journal"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/netem"
	"pinscope/internal/pii"
	"pinscope/internal/pki"
	"pinscope/internal/staticanalysis"
	"pinscope/internal/worldgen"
)

// layerResult is a traced child's report.
type layerResult struct {
	Op       opStats `json:"op"`
	Untraced float64 `json:"untraced_wall_s"`
	// DriveSelf is the per-app drive's pipeline layer self time, seconds.
	DriveSelf float64            `json:"drive_self_s"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]string  `json:"notes"`
	Errors    []string           `json:"errors"`
}

func (lr *layerResult) set(name string, v float64, note string) {
	lr.Metrics[name] = v
	lr.Notes[name] = note
}

// setDist sets a p50 metric and, when tailName is not empty, the tail
// metric from the same samples.
func (lr *layerResult) setDist(p50Name, tailName string, xs []float64) {
	lr.set(p50Name, median(xs), fmt.Sprintf("median of %d", len(xs)))
	if tailName == "" {
		return
	}
	if q, v, ok := tail(xs); ok {
		lr.set(tailName, v, fmt.Sprintf("p%g of %d", 100*q, len(xs)))
	} else {
		lr.set(tailName, 0, fmt.Sprintf("not reported: %d samples leave fewer than %d beyond p75", len(xs), minBeyond))
	}
}

// traceStudies is the parent side of a study workload's traced run.
func traceStudies(r *run, mode string) error {
	untraced := 0.0
	if mode != "rerun" {
		// The untraced twin of the traced operation, in a fresh process
		// like it; study-rerun runs both in the traced child, after its
		// warm-up.
		dir, err := opDir("untraced", 0)
		if err != nil {
			return err
		}
		var res studyResult
		if _, err := runChild("study", studyArg{Seed: r.seed, Mode: mode, Dir: dir}, &res); err != nil {
			return err
		}
		untraced = res.Ops[0].Wall
	}
	dir, err := opDir("trace", 0)
	if err != nil {
		return err
	}
	var lr layerResult
	if _, err := runChild("trace", studyArg{Seed: r.seed, Mode: mode, Dir: dir}, &lr); err != nil {
		return err
	}
	if mode == "rerun" {
		untraced = lr.Untraced
	}
	if mode == "fresh" {
		if err := coldDrive(r, &lr); err != nil {
			return err
		}
	}
	for n, v := range lr.Metrics {
		r.set(n, v, lr.Notes[n])
	}
	r.set("bench.trace_overhead_frac", lr.Op.Wall/untraced-1,
		fmt.Sprintf("traced op %.3fs vs untraced %.3fs", lr.Op.Wall, untraced))
	for _, e := range lr.Errors {
		r.mismatch("%s", e)
	}
	want, err := expectedDigest(r.seed)
	if err != nil {
		return err
	}
	if lr.Op.SHA != want {
		r.mismatch("traced export %s does not match the recorded digest %s", lr.Op.SHA, want)
	}
	r.rec.Result.Attempted = lr.Op.Apps
	r.rec.Result.Failed = lr.Op.Quarantined
	return nil
}

// coldDrive runs study-fresh's per-app drive in a process that has run no
// study, so every process-wide memo starts empty as it does for the
// workload's operation, and prices its coverage against single-worker
// RunOnWorld in another such process.
func coldDrive(r *run, lr *layerResult) error {
	dir, err := opDir("drive", 0)
	if err != nil {
		return err
	}
	var dr layerResult
	if _, err := runChild("drive", studyArg{Seed: r.seed, Mode: "fresh", Dir: dir}, &dr); err != nil {
		return err
	}
	oracle, err := runOracle(r.seed)
	if err != nil {
		return err
	}
	for n, v := range dr.Metrics {
		lr.set(n, v, dr.Notes[n])
	}
	lr.Errors = append(lr.Errors, dr.Errors...)
	if float64(oracle.Apps) != dr.Metrics["worldgen.apps"] {
		lr.Errors = append(lr.Errors, fmt.Sprintf("per-app drive saw %v apps, the study %d", dr.Metrics["worldgen.apps"], oracle.Apps))
	}
	lr.set("bench.span_coverage", dr.DriveSelf/oracle.Run,
		fmt.Sprintf("%.3fs of layer self time (cold process) over %.3fs single-worker RunOnWorld (cold process)", dr.DriveSelf, oracle.Run))
	return nil
}

// traceChild runs the traced sequence in a process of its own.
func traceChild(a studyArg) (layerResult, error) {
	lr := layerResult{Metrics: map[string]float64{}, Notes: map[string]string{}}
	cfg := studyConfig(a.Seed)
	tr := newTracer()
	out := filepath.Join(a.Dir, "export.json")
	signalReady("trace")

	if a.Mode == "rerun" {
		if _, err := studyOp(cfg, out, nil); err != nil {
			return lr, err
		}
		u, err := studyOp(cfg, out, nil)
		if err != nil {
			return lr, err
		}
		lr.Untraced = u.Wall
	}

	// The traced operation, with the runtime watched.
	sampler := startHeapSampler()
	g0 := readMetrics(mGCCPU, mTotalCPU)
	var (
		op  opStats
		sc  core.ShardedConfig
		err error
	)
	if a.Mode == "shard" {
		sc = shardLayout(a.Seed)
		sc.Dir = filepath.Join(a.Dir, "shards")
		op, err = shardOp(cfg, sc, out, tr)
	} else {
		op, err = studyOp(cfg, out, tr)
	}
	g1 := readMetrics(mGCCPU, mTotalCPU)
	heapPeak := sampler.stop()
	if err != nil {
		return lr, err
	}
	lr.Op = op
	lr.set("runtime.gc_cpu_frac", (g1[0]-g0[0])/(g1[1]-g0[1]), "over the traced operation")
	lr.set("runtime.heap_peak_mb", heapPeak/1e6, "sampled every 5ms over the traced operation")
	lr.set("core.export_bytes", float64(op.Bytes), "")

	var payloads [][]byte
	var meta []byte
	if a.Mode == "shard" {
		if err := traceShardExtras(&lr, tr, cfg, sc, op, filepath.Join(a.Dir, "baseline.json")); err != nil {
			return lr, err
		}
		if meta, payloads, err = readShardJournals(sc); err != nil {
			return lr, err
		}
	} else {
		lr.set("worldgen.build_s", tr.durations("worldgen.Build")[0], "the operation's world build")
		lr.set("worldgen.alloc_mb", op.BuildAlloc/1e6, "the operation's world build")
		lr.set("core.run_on_world_s", tr.durations("core.RunOnWorld")[0], fmt.Sprintf("%d workers", cfg.Workers))
		lr.set("core.export_s", tr.durations("core.WriteJSON")[0], "")
		// The run's real journal payloads come from a journaled study.
		jpath := filepath.Join(a.Dir, "study.wal")
		if _, err := core.RunJournaled(cfg, jpath, false); err != nil {
			return lr, err
		}
		if meta, payloads, err = readJournal(jpath); err != nil {
			return lr, err
		}
	}
	t0 := time.Now()
	f, err := os.Open(out)
	if err != nil {
		return lr, err
	}
	_, err = core.ReadJSON(f)
	f.Close()
	if err != nil {
		return lr, err
	}
	lr.set("core.readjson_s", time.Since(t0).Seconds(), "")

	if err := replayJournal(&lr, tr, meta, payloads, filepath.Join(a.Dir, "replay.wal")); err != nil {
		return lr, err
	}

	if a.Mode != "fresh" {
		// The process is warm: it has run the workload's studies, so the
		// drive runs warm too, and so does the single-worker RunOnWorld it
		// is priced against.
		apps, err := drive(&lr, tr, cfg, true)
		if err != nil {
			return lr, err
		}
		single := cfg
		single.Workers = 1
		w, err := worldgen.Build(cfg.Params)
		if err != nil {
			return lr, err
		}
		var s *core.Study
		if err := tr.do("core.RunOnWorld.single", "drive", -1, func() (err error) {
			s, err = core.RunOnWorld(single, w)
			return err
		}); err != nil {
			return lr, err
		}
		singleWall := tr.durations("core.RunOnWorld.single")[0]
		lr.set("bench.span_coverage", lr.DriveSelf/singleWall,
			fmt.Sprintf("%.3fs of layer self time over %.3fs single-worker RunOnWorld, both warm", lr.DriveSelf, singleWall))
		if rs := s.Robustness(); rs.Apps != apps {
			lr.Errors = append(lr.Errors, fmt.Sprintf("per-app drive saw %d apps, the study %d", apps, rs.Apps))
		}
	}
	lr.set("bench.gen_lag_p99_us", 0, "closed loop: no generator")
	return lr, tr.write(filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-spans.json", modeWorkload[a.Mode], a.Seed)))
}

// driveChild runs the per-app drive cold, in a process of its own.
func driveChild(a studyArg) (layerResult, error) {
	lr := layerResult{Metrics: map[string]float64{}, Notes: map[string]string{}}
	tr := newTracer()
	signalReady("drive")
	if _, err := drive(&lr, tr, studyConfig(a.Seed), false); err != nil {
		return lr, err
	}
	return lr, tr.write(filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-drive-spans.json", modeWorkload[a.Mode], a.Seed)))
}

// drive runs the per-app drive on a fresh world of the study's seed
// (packages not yet decrypted) and returns how many apps it drove. Warm,
// it first makes one untimed pass on another fresh world, so the forged-
// chain store it then times with holds the chains, as the process-wide
// store a warm study forges into does.
func drive(lr *layerResult, tr *tracer, cfg core.Config, warm bool) (int, error) {
	forged := pki.NewChainStore()
	if warm {
		w, err := worldgen.Build(cfg.Params)
		if err != nil {
			return 0, err
		}
		untimed := layerResult{Metrics: map[string]float64{}, Notes: map[string]string{}}
		if _, err := driveApps(&untimed, newTracer(), cfg, w, forged); err != nil {
			return 0, err
		}
	}
	var w *worldgen.World
	if err := tr.do("worldgen.Build", "drive", -1, func() (err error) {
		w, err = worldgen.Build(cfg.Params)
		return err
	}); err != nil {
		return 0, err
	}
	return driveApps(lr, tr, cfg, w, forged)
}

var modeWorkload = map[string]string{"fresh": "study-fresh", "rerun": "study-rerun", "shard": "shard-crash"}

// traceShardExtras prices crash tolerance: the merge's world rebuild as a
// span of its own, and the plain study at the same worker count, whose
// export is also the single-process reference for the merged one.
func traceShardExtras(lr *layerResult, tr *tracer, cfg core.Config, sc core.ShardedConfig, op opStats, basePath string) error {
	a0 := allocBytes()
	if err := tr.do("worldgen.Build", "merge-rebuild", -1, func() error {
		_, err := worldgen.Build(cfg.Params)
		return err
	}); err != nil {
		return err
	}
	rebuildAlloc := allocBytes() - a0
	rebuild := tr.durations("worldgen.Build")[0]
	base, err := studyOp(cfg, basePath, tr)
	if err != nil {
		return err
	}
	if base.SHA != op.SHA {
		lr.Errors = append(lr.Errors, fmt.Sprintf("merged export %s differs from the single-process export %s", op.SHA, base.SHA))
	}
	sharded := tr.durations("core.RunSharded")[0]
	merge := tr.durations("core.MergeShards")[0]
	lr.Op.Apps, lr.Op.Quarantined = base.Apps, base.Quarantined
	lr.set("worldgen.build_s", rebuild, "the merge's world rebuild, built alone")
	lr.set("worldgen.alloc_mb", rebuildAlloc/1e6, "the merge's world rebuild, built alone")
	lr.set("core.merge_s", merge, "")
	lr.set("core.merge_rebuild_s", rebuild, "worldgen.Build of the run's params, timed alone")
	lr.set("core.merge_self_s", merge-rebuild, "")
	lr.set("core.run_on_world_s", tr.durations("core.RunOnWorld")[0], fmt.Sprintf("%d workers, the same-worker baseline", cfg.Workers))
	lr.set("core.export_s", tr.durations("core.WriteJSON")[0], "the same-worker baseline's export")
	lr.set("core.crash_tolerance_ratio", (sharded+merge)/base.Wall,
		fmt.Sprintf("(RunSharded %.3fs + MergeShards %.3fs) / (Build+RunOnWorld+WriteJSON %.3fs), %d workers each",
			sharded, merge, base.Wall, cfg.Workers))
	st := op.Shard
	lr.set("shardcoord.workers_killed", float64(st.WorkersKilled), "")
	lr.set("shardcoord.reassigned", float64(st.Reassigned), "")
	lr.set("shardcoord.resumed_frames", float64(st.ResumedFrames), "")
	lr.set("shardcoord.fenced", float64(st.Fenced), "")
	return nil
}

func readJournal(path string) (meta []byte, payloads [][]byte, err error) {
	r, err := journal.OpenReader(path)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			return r.Meta(), payloads, nil
		}
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, append([]byte(nil), p...))
	}
}

// readShardJournals reads every slice journal of a finished sharded run,
// in slice order.
func readShardJournals(sc core.ShardedConfig) ([]byte, [][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(sc.Dir, "*.wal"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	var meta []byte
	var all [][]byte
	for _, p := range paths {
		m, ps, err := readJournal(p)
		if err != nil {
			return nil, nil, err
		}
		if meta == nil {
			meta = m
		}
		all = append(all, ps...)
	}
	if len(paths) != sc.Shards {
		return nil, nil, fmt.Errorf("found %d slice journals, want %d", len(paths), sc.Shards)
	}
	return meta, all, nil
}

// replayJournal appends the payloads to a new journal one frame at a time
// (write + fsync each), then reads it back.
func replayJournal(lr *layerResult, tr *tracer, meta []byte, payloads [][]byte, path string) error {
	w, err := journal.Create(path, meta)
	if err != nil {
		return err
	}
	var appendUS []float64
	for i, p := range payloads {
		h := tr.begin("journal.Append", fmt.Sprint(i), -1)
		t0 := time.Now()
		err := w.Append(p)
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(h)
		if err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, got, err := readJournal(path)
	if err != nil {
		return err
	}
	replay := time.Since(t0)
	if len(got) != len(payloads) {
		lr.Errors = append(lr.Errors, fmt.Sprintf("journal replay read %d of %d frames", len(got), len(payloads)))
	}
	lr.setDist("journal.append_p50_us", "journal.append_tail_us", appendUS)
	lr.set("journal.frame_bytes", float64(fi.Size()), fmt.Sprintf("%d frames", len(payloads)))
	lr.set("journal.replay_us", float64(replay.Nanoseconds())/1e3, fmt.Sprintf("%d frames", len(got)))
	return nil
}

// bench is the per-app drive's measurement bench, assembled from the
// layers' public constructors the way a study's crypto plane and worker
// lab are (core/plane.go, core newLab): one proxy CA from the study seed, a
// proxy forging into the given chain store, one handshake memo, and per
// platform a shared user store for each leg (the MITM one trusting the
// proxy CA) plus a system store, behind a clean and an intercepted device.
type bench struct {
	plain, mitm map[appmodel.Platform]*device.Device
	hooks       map[appmodel.Platform]*frida.Session
	stores      map[appmodel.Platform]*pki.RootStore // the drive's own Validate probes
	proxy       *mitmproxy.Proxy
	memo        *device.HandshakeMemo
	forged      *pki.ChainStore
}

func newBench(cfg core.Config, w *worldgen.World, forged *pki.ChainStore) (*bench, error) {
	seed := cfg.Params.Seed
	proxyRng := detrand.New(seed).Child("study-proxy")
	ca, err := pki.NewRootCA(proxyRng.Child("mitm-ca"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		return nil, err
	}
	proxy := mitmproxy.New(ca, proxyRng.Child("mitm-forge"))
	proxy.UseChainStore(forged)
	b := &bench{
		plain: map[appmodel.Platform]*device.Device{}, mitm: map[appmodel.Platform]*device.Device{},
		hooks: map[appmodel.Platform]*frida.Session{}, stores: map[appmodel.Platform]*pki.RootStore{},
		proxy: proxy, memo: device.NewHandshakeMemo(), forged: forged,
	}
	base := map[appmodel.Platform]*pki.RootStore{appmodel.Android: w.Eco.OEM, appmodel.IOS: w.Eco.IOS}
	for _, plat := range appmodel.Platforms {
		devRng := func() *detrand.Source { return detrand.New(seed).Child("device/" + string(plat)) }
		plainUser := base[plat].Clone(string(plat) + "-user")
		mitmUser := base[plat].Clone(string(plat) + "-user")
		mitmUser.Add(ca.Cert)
		system := base[plat].Clone(string(plat) + "-system")
		dp := device.New(plat, w.NewNetwork(true), base[plat], devRng())
		netMITM := w.NewNetwork(true)
		netMITM.SetInterceptor(proxy)
		dm := device.New(plat, netMITM, base[plat], devRng())
		dp.UseStores(plainUser, system)
		dm.UseStores(mitmUser, system)
		dp.UseHandshakeMemo(b.memo)
		dm.UseHandshakeMemo(b.memo)
		hooks, err := frida.Attach(plat, true)
		if err != nil {
			return nil, err
		}
		b.plain[plat], b.mitm[plat], b.hooks[plat] = dp, dm, hooks
		b.stores[plat] = base[plat].Clone("perfbench-" + string(plat))
	}
	return b, nil
}

// pipelineSpans are the per-app layer calls a study makes; their self
// time is what span_coverage compares with RunOnWorld. The chain
// validations are the drive's own probes and do not count.
var pipelineSpans = []string{
	"device.DecryptApp", "staticanalysis.Analyze", "device.Measure.plain", "device.Measure.mitm",
	"dynamicanalysis.Detect", "device.Run.hooked", "pii.scan",
}

// driveApps drives every unique app of w, one at a time and in the
// study's work order, through the layers the study runs it through,
// records the pipeline layer self time in lr.DriveSelf and returns how
// many apps it drove.
func driveApps(lr *layerResult, tr *tracer, cfg core.Config, w *worldgen.World, forged *pki.ChainStore) (int, error) {
	b, err := newBench(cfg, w, forged)
	if err != nil {
		return 0, err
	}
	forged0 := forged.Len()
	var (
		apps, flows, records, eligible, mitmFlows int
		scanned                                   int64
		measureKB                                 []float64
		chains                                    = map[string]bool{}
		validateErrs                              int
	)
	seen := map[string]bool{}
	for _, ds := range w.DS.All() {
		common := ds == w.DS.CommonAndroid || ds == w.DS.CommonIOS
		for _, l := range ds.Listings {
			key := string(l.Platform) + "/" + l.ID
			if seen[key] {
				continue
			}
			seen[key] = true
			apps++
			app := w.App(l)
			root := tr.begin("app", key, -1)
			plat := app.Platform
			dp, dm := b.plain[plat], b.mitm[plat]
			if app.Pkg != nil {
				for _, f := range app.Pkg.Files() {
					scanned += int64(len(f.Data))
				}
				if app.Pkg.Encrypted {
					if err := tr.do("device.DecryptApp", key, root, func() error { return dm.DecryptApp(app) }); err != nil {
						return 0, err
					}
				}
			}
			h := tr.begin("staticanalysis.Analyze", key, root)
			rep, _ := staticanalysis.Analyze(app) // a static error is the app's verdict, not a failure
			tr.end(h)
			var spent []*netem.Capture
			run := func(name string, d *device.Device, opts device.RunOptions) *netem.Capture {
				a0 := allocBytes()
				h := tr.begin(name, key, root)
				var c *netem.Capture
				if opts.Hooks != nil {
					c = d.Run(app, opts)
				} else {
					c, _ = d.Measure(app, opts) // no faults are injected, so no launch crash
				}
				tr.end(h)
				n := len(c.Flows())
				flows += n
				for _, f := range c.Flows() {
					records += len(f.Records())
				}
				if opts.Hooks == nil {
					measureKB = append(measureKB, (allocBytes()-a0)/1e3)
					eligible += n
					if d == dm {
						mitmFlows += n
					}
				}
				spent = append(spent, c)
				return c
			}
			detect := func(a, m *netem.Capture, o dynamicanalysis.Options) *dynamicanalysis.Result {
				h := tr.begin("dynamicanalysis.Detect", key, root)
				defer tr.end(h)
				return dynamicanalysis.Detect(app.ID, a, m, o)
			}
			opts := device.RunOptions{Window: cfg.Window}
			capA := run("device.Measure.plain", dp, opts)
			capB := run("device.Measure.mitm", dm, opts)
			detOpts := dynamicanalysis.Options{}
			if plat == appmodel.IOS {
				detOpts.ExcludeDomains = append(detOpts.ExcludeDomains, device.AppleBackgroundDomains...)
				if rep != nil {
					detOpts.ExcludeDomains = append(detOpts.ExcludeDomains, rep.AssociatedDomains...)
				}
			}
			dyn := detect(capA, capB, detOpts)
			if common && plat == appmodel.IOS {
				rOpts := device.RunOptions{Window: cfg.Window, LaunchDelay: 120}
				capA2 := run("device.Measure.plain", dp, rOpts)
				capB2 := run("device.Measure.mitm", dm, rOpts)
				rerun := detect(capA2, capB2, dynamicanalysis.Options{ExcludeDomains: device.AppleBackgroundDomains})
				if rerun.Quality() >= dyn.Quality() {
					dyn, capA = rerun, capA2
				}
			}
			validateErrs += validateChains(tr, key, root, b.stores[plat], capA, chains)
			if dyn.Pins() {
				b.proxy.ResetLogs()
				run("device.Run.hooked", dm, device.RunOptions{Window: cfg.Window, Hooks: b.hooks[plat]})
				h := tr.begin("pii.scan", key, root)
				sc := pii.NewScanner(dm.Profile)
				for _, lg := range b.proxy.Logs() {
					sc.ScanAll(lg.Payloads)
				}
				tr.end(h)
			}
			for _, c := range spent {
				c.Release()
			}
			tr.end(root)
		}
	}

	byName := tr.byName()
	pipelineSelf := 0.0
	for _, n := range pipelineSpans {
		for _, us := range byName[n] {
			pipelineSelf += us / 1e6
		}
	}
	lr.set("worldgen.apps", float64(apps), "")
	lr.setDist("staticanalysis.analyze_p50_us", "staticanalysis.analyze_tail_us", byName["staticanalysis.Analyze"])
	lr.set("staticanalysis.bytes_scanned", float64(scanned), "")
	lr.setDist("device.decrypt_us", "", byName["device.DecryptApp"])
	lr.setDist("device.measure_plain_us", "", byName["device.Measure.plain"])
	lr.setDist("device.measure_mitm_us", "", byName["device.Measure.mitm"])
	lr.setDist("device.hooked_run_us", "", byName["device.Run.hooked"])
	lr.set("device.measure_alloc_kb", mean(measureKB), fmt.Sprintf("mean of %d Measure calls", len(measureKB)))
	lr.set("netem.flows", float64(flows), "")
	lr.set("netem.records", float64(records), "")
	lr.set("device.memo_hit_ratio", float64(b.memo.Hits())/float64(eligible),
		fmt.Sprintf("%d hits over %d memo-eligible flows", b.memo.Hits(), eligible))
	forgedNew := b.forged.Len() - forged0
	lr.set("mitmproxy.forge_hit_ratio", 1-float64(forgedNew)/float64(mitmFlows),
		fmt.Sprintf("%d chains forged over %d MITM flows, into a store holding %d before", forgedNew, mitmFlows, forged0))
	lr.setDist("pki.validate_first_us", "", byName["pki.Validate.first"])
	lr.setDist("pki.validate_repeat_us", "", byName["pki.Validate.repeat"])
	lr.set("pki.chains", float64(len(chains)), fmt.Sprintf("%d rejected (untrusted, pinned-CA or self-signed chains)", validateErrs))
	lr.setDist("dynamicanalysis.detect_us", "", byName["dynamicanalysis.Detect"])
	lr.setDist("pii.scan_us", "", byName["pii.scan"])
	lr.DriveSelf = pipelineSelf
	return apps, nil
}

// validateChains validates each distinct (chain, host) the capture
// observed that was not validated before, twice: the first call pays the
// store's and the signature memo's misses, the repeat their hits. It
// returns how many chains the store rejected.
func validateChains(tr *tracer, key string, parent int, store *pki.RootStore, c *netem.Capture, seen map[string]bool) int {
	rejected := 0
	for _, f := range c.Flows() {
		chain := f.ObservedChain()
		if len(chain) == 0 {
			continue
		}
		host := f.SNI()
		if host == "" {
			host = f.Dst
		}
		id := fmt.Sprintf("%x/%s", pki.RawDigest(chain.Leaf()), host)
		if seen[id] {
			continue
		}
		seen[id] = true
		// A rejected chain is a verdict the study records, not a failure.
		h := tr.begin("pki.Validate.first", key, parent)
		err := store.Validate(chain, host, pki.StudyEpoch)
		tr.end(h)
		if err != nil {
			rejected++
		}
		h = tr.begin("pki.Validate.repeat", key, parent)
		store.Validate(chain, host, pki.StudyEpoch) //nolint:errcheck // same verdict as the first call
		tr.end(h)
	}
	return rejected
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// heapSampler records the peak live heap while it runs.
type heapSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  float64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stopc: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			s.peak = max(s.peak, readMetrics(mHeapLive)[0])
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *heapSampler) stop() float64 {
	close(s.stopc)
	s.done.Wait()
	return s.peak
}
