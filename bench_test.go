package pinscope

// bench_test.go regenerates every table and figure of the paper from a
// shared study, one benchmark per experiment (see the DESIGN.md index).
// The shared study is built once; each benchmark times the experiment's
// computation (workload generation + measurement aggregation). The heavy
// pipeline stages have their own per-app benchmarks at the bottom.

import (
	"io"
	"os"
	"sync"
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/core"
	"pinscope/internal/detrand"
	"pinscope/internal/device"
	"pinscope/internal/dynamicanalysis"
	"pinscope/internal/faultinject"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/pki"
	"pinscope/internal/staticanalysis"
	"pinscope/internal/worldgen"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
	benchErr   error
)

// benchSetup builds one shared mini study for all aggregation benchmarks.
func benchSetup(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = core.Run(core.TestConfig(1234))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

func BenchmarkTable1DatasetOverview(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table1(10)
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkTable2PriorTechniques(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table2()
		if len(rows) < 9 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkTable3Prevalence(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := s.Table3()
		if len(cells) != 6 {
			b.Fatal("wrong cell count")
		}
	}
}

func BenchmarkTable4AndroidCategories(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := s.TableCategories(appmodel.Android, 10, 2); len(rows) == 0 {
			b.Fatal("no categories")
		}
	}
}

func BenchmarkTable5IOSCategories(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := s.TableCategories(appmodel.IOS, 10, 2); len(rows) == 0 {
			b.Fatal("no categories")
		}
	}
}

func BenchmarkFigure2CommonSplit(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := s.Figure2Data()
		if f.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkFigure3BothPlatformHeatmap(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Figure3Data()
	}
}

func BenchmarkFigure4ExclusiveHeatmap(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure4Data()
	}
}

func BenchmarkFigure5DomainSplit(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plat := range appmodel.Platforms {
			_ = s.Figure5Data(plat)
			_ = s.Figure5Stats(plat)
		}
	}
}

func BenchmarkTable6PKIType(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table6()
		if len(rows) != 2 {
			b.Fatal("wrong platform count")
		}
	}
}

func BenchmarkCAvsLeafPins(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.PinTargets()
	}
}

func BenchmarkSPKIvsWholeCert(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Rotations()
	}
}

func BenchmarkValidationSubversion(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.ExpiredAccepted() != 0 {
			b.Fatal("expired certificates accepted at pinned destinations")
		}
	}
}

func BenchmarkTable7ThirdPartyFrameworks(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plat := range appmodel.Platforms {
			_ = s.Table7(plat, 5, 2)
		}
	}
}

func BenchmarkTable8WeakCiphers(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := s.Table8()
		if len(cells) != 6 {
			b.Fatal("wrong cell count")
		}
	}
}

func BenchmarkTable9PII(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table9()
		if len(rows) == 0 {
			b.Fatal("no PII rows")
		}
	}
}

func BenchmarkCircumventionRate(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := s.Circumvention()
		if len(cs) != 2 {
			b.Fatal("wrong platform count")
		}
	}
}

func BenchmarkSleepSweep(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := core.SleepSweep(s.World, 99, []float64{15, 30, 60}, 10)
		if err != nil || len(points) != 3 {
			b.Fatalf("sweep failed: %v", err)
		}
	}
}

// --- ablation benches ---------------------------------------------------------

// benchAblation runs the named detector ablation over a small app sample.
func benchAblation(b *testing.B, name string) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := core.RunAblations(s.World, 77, 12)
		if err != nil {
			b.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.Name == name {
				found = true
			}
		}
		if !found {
			b.Fatalf("ablation %s missing", name)
		}
	}
}

func BenchmarkAblationNaiveDetector(b *testing.B)       { benchAblation(b, "naive-detector") }
func BenchmarkAblationBackgroundExclusion(b *testing.B) { benchAblation(b, "no-background-exclusion") }
func BenchmarkAblationTLS13Heuristic(b *testing.B)      { benchAblation(b, "no-tls13-heuristic") }

func BenchmarkAblationNSCOnly(b *testing.B) {
	// NSC-only static detection (the prior-work technique) vs the full
	// static pipeline, per app.
	s := benchSetup(b)
	var apps []*appmodel.App
	for _, ds := range s.World.DS.All() {
		for _, a := range s.World.Apps(ds) {
			if a.Platform == appmodel.Android {
				apps = append(apps, a)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nsc, full := 0, 0
		for _, a := range apps {
			rep, err := staticanalysis.Analyze(a)
			if err != nil {
				b.Fatal(err)
			}
			if rep.NSCHasPins {
				nsc++
			}
			if rep.HasCertMaterial() {
				full++
			}
		}
		if nsc > full {
			b.Fatal("NSC-only found more than the full pipeline")
		}
	}
}

// --- pipeline micro/meso benches ------------------------------------------------

func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := worldgen.Build(worldgen.TestParams(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticAnalysisPerApp(b *testing.B) {
	s := benchSetup(b)
	var apps []*appmodel.App
	for _, ds := range s.World.DS.All() {
		apps = append(apps, s.World.Apps(ds)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := apps[i%len(apps)]
		if a.Pkg.Encrypted {
			a.Pkg.DecryptIOS()
		}
		if _, err := staticanalysis.Analyze(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicDetectionPerApp(b *testing.B) {
	// Full differential per-app measurement: baseline run + MITM run +
	// verdicts, on a fresh network per iteration set.
	s := benchSetup(b)
	w := s.World
	var apps []*appmodel.App
	for _, ds := range w.DS.All() {
		apps = append(apps, w.Apps(ds)...)
	}
	netPlain := w.NewNetwork(true)
	netMITM := w.NewNetwork(true)
	proxy, err := mitmproxy.NewWithCA(detrand.New(55).Child("bench-proxy"))
	if err != nil {
		b.Fatal(err)
	}
	netMITM.SetInterceptor(proxy)
	devs := map[appmodel.Platform][2]*device.Device{}
	for _, plat := range appmodel.Platforms {
		base := map[appmodel.Platform]*pki.RootStore{
			appmodel.Android: w.Eco.OEM, appmodel.IOS: w.Eco.IOS,
		}[plat]
		dp := device.New(plat, netPlain, base, detrand.New(55).Child("bd/"+string(plat)))
		dm := device.New(plat, netMITM, base, detrand.New(55).Child("bd/"+string(plat)))
		dm.InstallCA(proxy.CACert())
		devs[plat] = [2]*device.Device{dp, dm}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := apps[i%len(apps)]
		d := devs[a.Platform]
		capA := d[0].Run(a, device.RunOptions{})
		capB := d[1].Run(a, device.RunOptions{})
		res := dynamicanalysis.Detect(a.ID, capA, capB, dynamicanalysis.Options{})
		_ = res.Pins()
	}
}

func BenchmarkChaosSweep(b *testing.B) {
	// Full study per fault rate; asserts the robustness envelope: rising
	// fault rates may erode coverage, but the Table 3 dynamic prevalences
	// must stay within a bounded drift of the fault-free reference, and
	// the study must complete (quarantine, not abort) at every rate.
	for i := 0; i < b.N; i++ {
		points, err := core.ChaosSweep(core.TestConfig(4242), []float64{0, 0.1, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if points[0].MaxAbsDriftPP != 0 {
			b.Fatalf("rate-0 point drifted %.2fpp from its own reference", points[0].MaxAbsDriftPP)
		}
		for _, p := range points {
			if p.Stats.Apps == 0 {
				b.Fatalf("rate %.0f%%: no apps studied", p.Rate*100)
			}
			if p.Rate > 0 && p.Stats.Retried == 0 {
				b.Fatalf("rate %.0f%%: fault plan injected nothing", p.Rate*100)
			}
			if p.Sharded != nil && !p.Sharded.ByteIdentical {
				b.Fatalf("rate %.0f%%: sharded rerun's merged export diverged", p.Rate*100)
			}
			// Measured at this seed: ~7pp at a 10% fault rate, ~12pp at 20%,
			// dominated by the conservative direction (pins degrading to
			// misses; see EXPERIMENTS.md for the ground-truth decomposition).
			// 15pp leaves headroom without letting a detector regression
			// slip through.
			if p.MaxAbsDriftPP > 15 {
				b.Fatalf("rate %.0f%%: prevalence drift %.2fpp outside the 15pp envelope",
					p.Rate*100, p.MaxAbsDriftPP)
			}
		}
		// At this seed the 20% point derives a shard-death plan: its
		// sharded rerun must have survived a lease takeover and merged.
		last := points[len(points)-1]
		if last.Sharded == nil || last.Sharded.Stats.Reassigned == 0 {
			b.Fatalf("rate %.0f%%: shard drill missing or saw no lease takeover: %+v",
				last.Rate*100, last.Sharded)
		}
	}
}

func BenchmarkStudyEndToEnd(b *testing.B) {
	// The complete mini study: world build + all pipelines, with the
	// shared crypto plane on (the default). The seed is fixed because
	// re-running one configuration in a warm process is the trajectory the
	// plane optimizes — chaos sweeps, ablations and pinscoped snapshot
	// rebuilds all re-run identical seeds — so steady-state iterations hit
	// the interned certificates, forged chains and handshake memo.
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.TestConfig(9001)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyEndToEndCold(b *testing.B) {
	// The zero-cache path: the plane is disabled and every iteration uses a
	// fresh seed, so nothing — not the plane, not the process-global
	// issuance and signature memos — can carry work between runs. The seed
	// range is disjoint from the warm benchmark's to keep it that way. The
	// warm/cold ratio is the plane's end-to-end speedup (scripts/bench.sh
	// records it).
	for i := 0; i < b.N; i++ {
		cfg := core.TestConfig(int64(9100 + i))
		cfg.ColdCrypto = true
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLongitudinalStudy(b *testing.B) {
	// The time axis end to end: one world build amortized across a
	// three-point replay — two root-program releases plus a distrust
	// event (see internal/rootprogram). The ratio to three times
	// BenchmarkStudyEndToEnd is the world-reuse and crypto-plane win of
	// the longitudinal runner (scripts/bench.sh records it as
	// longitudinal_vs_three_studies).
	for i := 0; i < b.N; i++ {
		ls, err := core.RunLongitudinal(core.TestConfig(9001), core.TimelineConfig{
			Points: []string{"froyo", "kitkat", "distrust-ca-distrust"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(ls.Points) != 3 {
			b.Fatal("wrong point count")
		}
		for _, p := range ls.Points {
			if p.Study.Cfg.Release != p.Point.Tag {
				b.Fatalf("point %q ran with release %q", p.Point.Tag, p.Study.Cfg.Release)
			}
		}
	}
}

func BenchmarkStudySingleShard(b *testing.B) {
	// The sharded machinery at its degenerate point — one shard, one
	// worker, no faults — including the journal writes and the streaming
	// merge to io.Discard. The gap to BenchmarkStudyEndToEnd is NOT the
	// price of crash-tolerance: profiles put most of it in lost
	// parallelism (one worker here, the study's full worker pool there)
	// and in the merge rebuilding the whole world, with journaling a small
	// remainder. Pricing crash-tolerance alone needs equal worker counts.
	// The ratio to the sharded benchmark below is the coordinator's
	// scaling factor.
	for i := 0; i < b.N; i++ {
		benchSharded(b, 1, 1, nil)
	}
}

func BenchmarkStudyShardedEndToEnd(b *testing.B) {
	// The full crash-tolerant path: 4 workers over 4 slices with shard
	// kills at two distinct slice boundaries and an induced lease expiry,
	// then the streaming merge. Despite two worker deaths and a stalled
	// holder whose lease is taken over per iteration, the merged export is
	// the canonical dataset — scripts/bench.sh records the ratio to the
	// single-shard benchmark as speedup_vs_single_shard (≈1 on a
	// single-core runner, where extra workers add only coordination).
	faults := &faultinject.ShardPlan{
		Kills: []faultinject.ShardKill{
			{Slice: 1, AfterResults: 2, TornBytes: 7},
			{Slice: 3, AfterResults: 1, TornBytes: 13},
		},
		Expiries: []faultinject.LeaseExpiry{{Slice: 2, AfterResults: 1}},
	}
	for i := 0; i < b.N; i++ {
		benchSharded(b, 4, 4, faults)
	}
}

// benchSharded runs one sharded study iteration: run, merge, discard.
func benchSharded(b *testing.B, shards, workers int, faults *faultinject.ShardPlan) {
	b.Helper()
	cfg := core.TestConfig(9001) // same seed as BenchmarkStudyEndToEnd: comparable work
	dir, err := os.MkdirTemp("", "pinscope-bench-shard-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sc := core.ShardedConfig{Shards: shards, Workers: workers, Dir: dir, Faults: faults}
	if _, err := core.RunSharded(cfg, sc); err != nil {
		b.Fatal(err)
	}
	sc.Faults = nil
	if err := core.MergeShards(io.Discard, cfg, sc); err != nil {
		b.Fatal(err)
	}
}

// --- crypto-plane micro benches --------------------------------------------------

func BenchmarkChainStore(b *testing.B) {
	// Steady-state forged-chain interning: after the first lap every
	// GetOrIssue is a hit, so ns/op measures the lookup, not the issuance.
	ca, err := pki.NewRootCA(detrand.New(1).Child("bench-ca"), "bench", "bench", 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := detrand.New(1).Child("bench-forge")
	hosts := []string{"api.example.com", "cdn.example.com", "auth.example.com", "img.example.com"}
	store := pki.NewChainStore()
	sum := pki.RawDigest(ca.Cert)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := hosts[i%len(hosts)]
		_, err := store.GetOrIssue(string(sum[:])+"|leaf/"+host, func() (pki.Chain, error) {
			leaf, err := ca.IssueLeaf(rng.Child("leaf/"+host), host, pki.LeafOptions{})
			if err != nil {
				return nil, err
			}
			return pki.Chain{leaf.Cert, ca.Cert}, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandshakeMemo(b *testing.B) {
	// Steady-state device measurement with a warm handshake memo: after
	// the first lap over the app list every connection replays from the
	// memo instead of re-running the TLS emulation.
	s := benchSetup(b)
	w := s.World
	var apps []*appmodel.App
	for _, ds := range w.DS.All() {
		apps = append(apps, w.Apps(ds)...)
	}
	net := w.NewNetwork(true)
	memo := device.NewHandshakeMemo()
	devs := map[appmodel.Platform]*device.Device{}
	for _, plat := range appmodel.Platforms {
		base := map[appmodel.Platform]*pki.RootStore{
			appmodel.Android: w.Eco.OEM, appmodel.IOS: w.Eco.IOS,
		}[plat]
		d := device.New(plat, net, base, detrand.New(55).Child("bm/"+string(plat)))
		d.UseHandshakeMemo(memo)
		devs[plat] = d
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := apps[i%len(apps)]
		cap := devs[a.Platform].Run(a, device.RunOptions{})
		cap.Release()
	}
}
