package main

// metrics.go is the benchmark's metric catalog: every metric a run prints,
// its unit, and what it should move on which workload. BENCHMARK.json
// lists the same names (a test holds the two together); the reasoning
// lives here because BENCHMARK.json has no field for it. `pinbench -list`
// prints the table.

type metricDef struct {
	Name string
	Unit string
	// Means says what the value is on each workload.
	Means string
	// Moves names the end-to-end metric(s) the layer metric should move,
	// and on which workloads (little or none on the rest).
	Moves string
}

// The workloads, with the reason each exists.
var workloads = []struct{ Name, Why string }{
	{"study-fresh", "one study and export in a fresh process: memos empty, so CA/leaf issuance and first signature checks do full work and the journal does none"},
	{"study-rerun", "same-seed studies back to back in one process after a warm-up: memos absorb the crypto, so the emulated network and GC dominate"},
	{"shard-crash", "journaled sharded run with seeded worker kills, torn tails and a lease expiry, resumed by takeover and merged: the only journal/lease/merge load"},
	{"serve-mixed", "paper-scale snapshot served over loopback to open-loop lookups at fixed rates, with reloads at a fixed interval: the only pinserve load"},
}

// An "operation" is one study with its export (study-fresh, study-rerun),
// one sharded run plus its merge (shard-crash), or 1000 lookups at the
// nominal rate (serve-mixed). Serving latency and capacity are per-layer
// metrics (pinserve.lookup_*, pinserve.max_rate_rps): they do not repeat
// within a usable bound on a shared 2-core host, and a study's latency is
// its apps_per_s.
//
// apps_per_s, setup_s and cpu_s are given at a reference host speed: each
// operation's time is scaled by the host probe (probe.go) timed just
// before and just after it, because a shared host's speed drifts by more
// than any usable bound within minutes. The raw figures are in each run's
// record and note.
var endToEnd = []metricDef{
	{"apps_per_s", "1/s",
		"studies: unique apps exported per second, config to last export byte (shard-crash: incl. the merge), median over operations; serve-mixed: snapshot apps made servable per second of reload (snapshot read + pinserve.Build + swap), median of 15 reloads with no lookups in flight after the load (reloads under load: pinserve.reload_s). At reference host speed", ""},
	{"setup_s", "s",
		"median time from spawning a benchmark process to it being ready for its first measured operation (study-rerun: includes the warm-up study; serve-mixed: snapshot load + index build + listen), at reference host speed", ""},
	{"cpu_s", "s", "process CPU seconds per operation (median); serve-mixed: server CPU per 1000 lookups at the nominal rate, less the reloads' own thread CPU (GC work caused by reload garbage stays in); at reference host speed", ""},
	{"peak_rss_mb", "MB", "peak resident set of the measured process (median over processes); serve-mixed: of the server, through set-up and the nominal rung", ""},
	{"alloc_mb", "MB", "heap bytes allocated per operation (median); serve-mixed: server allocation per 1000 lookups at the nominal rate, less the reloads' allocation as a reload with no lookups in flight measures it", ""},
	{"ok_frac", "frac",
		"1 - fail_frac: operations that did not fail over operations attempted (studies: apps not quarantined; serving: requests without a 5xx, shed, timeout or wrong answer). Reported as the success share because a metric must never be 0", ""},
}

var perLayer = []metricDef{
	{"worldgen.build_s", "s", "median worldgen.Build wall time", "apps_per_s, alloc_mb on study-fresh and shard-crash (built twice); less on study-rerun"},
	{"worldgen.alloc_mb", "MB", "heap allocated by one worldgen.Build", "apps_per_s, alloc_mb on study-fresh and shard-crash; less on study-rerun"},
	{"worldgen.apps", "count", "unique apps in the built world", "exact count; repeats for a seed"},
	{"staticanalysis.analyze_p50_us", "us", "median staticanalysis.Analyze per app", "apps_per_s on all study workloads; none on serve-mixed"},
	{"staticanalysis.analyze_tail_us", "us", "highest percentile of Analyze with >=10 samples beyond it (level printed)", "apps_per_s on all study workloads"},
	{"staticanalysis.bytes_scanned", "count", "package bytes handed to Analyze", "apps_per_s on all study workloads"},
	{"device.decrypt_us", "us", "median device.DecryptApp per encrypted iOS package", "apps_per_s on all study workloads"},
	{"device.measure_plain_us", "us", "median device.Measure, no-MITM leg", "apps_per_s, alloc_mb; largest share on study-rerun"},
	{"device.measure_mitm_us", "us", "median device.Measure, MITM leg", "apps_per_s, alloc_mb; largest share on study-rerun"},
	{"device.hooked_run_us", "us", "median hooked device.Run for pinning apps", "apps_per_s on all study workloads"},
	{"device.measure_alloc_kb", "KB", "mean heap allocated per device.Measure", "alloc_mb; largest share on study-rerun"},
	{"netem.flows", "count", "flows captured over the per-app drive", "exact count; apps_per_s, alloc_mb"},
	{"netem.records", "count", "TLS record summaries in those flows", "exact count; alloc_mb"},
	{"device.memo_hit_ratio", "frac", "HandshakeMemo.Hits over memo-eligible flows of the timed drive; the memo is per study, as the study's crypto plane's is", "apps_per_s on study-rerun; ~0 on study-fresh"},
	{"mitmproxy.forge_hit_ratio", "frac", "1 - chains forged into the ChainStore during the timed drive / its MITM flows; on study-rerun and shard-crash an untimed pass first fills the store, as earlier studies fill the process-wide store a warm study forges into", "apps_per_s on study-rerun; ~0 on study-fresh"},
	{"pki.validate_first_us", "us", "median first RootStore.Validate of an observed chain on a fresh store clone; the device's handshake validated the chain just before, so the process-wide signature memo holds it and the cold signature cost shows in device.measure_plain_us and worldgen.build_s instead", "apps_per_s, cpu_s; first-call cost on study-rerun (the memo-key leak); unchanged on study-fresh"},
	{"pki.validate_repeat_us", "us", "median repeat Validate of the same chain", "apps_per_s, cpu_s"},
	{"pki.chains", "count", "observed chains validated", "exact count"},
	{"dynamicanalysis.detect_us", "us", "median dynamicanalysis.Detect", "apps_per_s on all study workloads"},
	{"pii.scan_us", "us", "median pii scan of one hooked run's proxy logs", "apps_per_s on all study workloads"},
	{"journal.append_p50_us", "us", "median journal Append (write + fsync) replaying the run's real payloads", "apps_per_s on shard-crash only"},
	{"journal.append_tail_us", "us", "highest percentile of Append with >=10 samples beyond it", "apps_per_s on shard-crash only"},
	{"journal.frame_bytes", "count", "bytes of the replayed journal", "exact count; shard-crash"},
	{"journal.replay_us", "us", "OpenReader + Next over the replayed journal", "apps_per_s on shard-crash only"},
	{"core.run_on_world_s", "s", "core.RunOnWorld at nproc workers", "apps_per_s, peak_rss_mb"},
	{"core.export_s", "s", "Study.WriteJSON of the export", "apps_per_s"},
	{"core.export_bytes", "count", "export size", "exact count"},
	{"core.readjson_s", "s", "core.ReadJSON of the export (serve-mixed: of the snapshot)", "reload_s part of apps_per_s on serve-mixed"},
	{"core.merge_s", "s", "core.MergeShards", "apps_per_s, peak_rss_mb on shard-crash"},
	{"core.merge_rebuild_s", "s", "the merge's world rebuild, priced as its own worldgen.Build span", "apps_per_s on shard-crash; a merge that stops rebuilding the world shows here only"},
	{"core.merge_self_s", "s", "merge minus its world rebuild", "apps_per_s on shard-crash"},
	{"core.crash_tolerance_ratio", "ratio", "(RunSharded + MergeShards) / (worldgen.Build + RunOnWorld + WriteJSON) at the same worker count", "apps_per_s on shard-crash"},
	{"shardcoord.workers_killed", "count", "injected worker deaths that fired", "exact count; ok_frac stays 1 on shard-crash"},
	{"shardcoord.reassigned", "count", "slices taken over by another worker", "exact count; ok_frac stays 1 on shard-crash"},
	{"shardcoord.resumed_frames", "count", "results replayed from journals on takeover", "exact count; ok_frac stays 1 on shard-crash"},
	{"shardcoord.fenced", "count", "appends refused by the epoch fence", "exact count; ok_frac stays 1 on shard-crash"},
	{"pinserve.index_build_ms", "ms", "median pinserve.Build of the snapshot", "apps_per_s (reload) and setup_s on serve-mixed only"},
	{"pinserve.index_lookup_ns", "ns", "mean Index lookup (app/pin/dest/distrust/table) over the request plan", "cpu_s, pinserve.lookup_p50_us and pinserve.max_rate_rps on serve-mixed only"},
	{"pinserve.handler_us", "us", "median in-process handler time per planned request (no socket)", "cpu_s, pinserve.lookup_p50_us and pinserve.max_rate_rps on serve-mixed only"},
	{"pinserve.shed", "count", "503s shed by the server over the ladder", "ok_frac on serve-mixed"},
	{"pinserve.reload_s", "s", "median snapshot reload under load at the nominal rate", "apps_per_s on serve-mixed"},
	{"pinserve.lookup_p50_us", "us", "median lookup latency from due time at the nominal rate", "end-to-end latency; kept here because on a shared 2-core host its run-to-run spread (IQR 43% of the median over ten runs) is wider than any usable bound"},
	{"pinserve.lookup_p99_us", "us", "p99 lookup latency from due time at the nominal rate (0 when fewer than 10 samples lie beyond p99)", "end-to-end tail; kept here because it does not repeat within the bound on a shared 2-core host"},
	{"pinserve.lookup_samples", "count", "lookups behind the nominal-rate percentiles", "sample count behind pinserve.lookup_p50_us and pinserve.lookup_p99_us"},
	{"pinserve.max_rate_rps", "1/s", "highest rung of the rate ladder with p99 under the limit, no failures and no growing backlog", "end-to-end capacity; kept here because rungs are coarse and flip between runs"},
	{"runtime.gc_cpu_frac", "frac", "GC CPU over total CPU during the traced operation", "cpu_s, peak_rss_mb; most on study-rerun"},
	{"runtime.heap_peak_mb", "MB", "peak live heap sampled during the traced operation", "peak_rss_mb; most on study-rerun"},
	{"bench.gen_lag_p99_us", "us", "load generator lateness at p99 (serve-mixed; studies run closed-loop and have none)", "validity of the run"},
	{"bench.trace_overhead_frac", "frac", "traced operation over the same operation untraced, minus 1", "validity of the run"},
	{"bench.span_coverage", "frac", "studies: summed per-app layer self time over single-worker RunOnWorld on a world of the same seed, both in the same memo state (study-fresh: each in a process that ran no study; otherwise after the workload's studies); serve-mixed: in-process handler time over client request span time", "validity of the run"},
}

func defFor(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
