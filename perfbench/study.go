package main

// study.go runs the three study workloads. A study is a mini-scale world
// (core.TestConfig: about 520 unique apps) measured at nproc workers and
// exported the way `pinstudy -export` does it. Its seed is drawn from a
// fixed space of seedSpace study seeds so that every export can be held to
// a recorded SHA-256 (expected.json, from single-process exports).

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pinscope/internal/atomicio"
	"pinscope/internal/core"
	"pinscope/internal/faultinject"
	"pinscope/internal/worldgen"
)

const (
	seedSpace = 32
	seedBase  = 7001
	// minOps is the fewest operations a run measures, whatever --seconds.
	minOps = 3
	// rerunRounds is how many processes study-rerun spreads its time over;
	// each pays one warm-up, so setup_s is a median of rerunRounds.
	rerunRounds = 3
)

func studySeed(seed int64) int64 {
	m := seed % seedSpace
	if m < 0 {
		m += seedSpace
	}
	return seedBase + m
}

func studyConfig(seed int64) core.Config {
	cfg := core.TestConfig(studySeed(seed))
	cfg.Workers = runtime.NumCPU()
	return cfg
}

//go:embed expected.json
var expectedJSON []byte

// expectedDigest is the SHA-256 of the single-process export of the
// study seed derived from seed.
func expectedDigest(seed int64) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	d, ok := m[fmt.Sprintf("mini/%d", studySeed(seed))]
	if !ok {
		return "", fmt.Errorf("expected.json has no digest for study seed %d", studySeed(seed))
	}
	return d, nil
}

// recordExpected recomputes expected.json: one single-process export per
// study seed, hashed.
func recordExpected() error {
	m := map[string]string{}
	for i := int64(0); i < seedSpace; i++ {
		s, err := core.Run(studyConfig(i))
		if err != nil {
			return err
		}
		h := sha256.New()
		if err := s.WriteJSON(h); err != nil {
			return err
		}
		m[fmt.Sprintf("mini/%d", studySeed(i))] = hex.EncodeToString(h.Sum(nil))
		fmt.Fprintf(os.Stderr, "study seed %d done\n", studySeed(i))
	}
	js, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/expected.json", append(js, '\n'), 0o644)
}

// opStats is one measured operation.
type opStats struct {
	Wall        float64     `json:"wall_s"`
	Run         float64     `json:"run_on_world_s"` // studies: the RunOnWorld part of Wall
	CPU         float64     `json:"cpu_s"`
	Alloc       float64     `json:"alloc_bytes"`
	Apps        int         `json:"apps"`
	Quarantined int         `json:"quarantined"`
	SHA         string      `json:"sha256"`
	Bytes       int64       `json:"bytes"`
	BuildAlloc  float64     `json:"build_alloc_bytes"`
	Shard       *shardStats `json:"shard,omitempty"`
}

type shardStats struct {
	WorkersKilled, Expired, Reassigned, ResumedFrames, Fenced int
}

type studyArg struct {
	Seed int64  `json:"seed"`
	Mode string `json:"mode"` // fresh, rerun, shard, oracle
	Dir  string `json:"dir"`
}

type studyResult struct {
	Ops   []opStats `json:"ops"`
	Warm  string    `json:"warm_sha256,omitempty"`
	RSSMB float64   `json:"rss_mb"`
}

// exportTo writes an export through atomicio with a checksum sidecar —
// the `pinstudy -export` path — and returns its SHA-256 and size.
func exportTo(path string, write func(io.Writer) error) (string, int64, error) {
	f, err := atomicio.Create(path, atomicio.WithChecksum())
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	cw := &countWriter{}
	bw := bufio.NewWriterSize(io.MultiWriter(f, h, cw), 64<<10)
	if err := write(bw); err != nil {
		return "", 0, err
	}
	if err := bw.Flush(); err != nil {
		return "", 0, err
	}
	if err := f.Commit(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), cw.n, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// studyOp is one study operation: world, study, export. Spans go to tr
// when it is non-nil.
func studyOp(cfg core.Config, out string, tr *tracer) (opStats, error) {
	a0, c0, t0 := allocBytes(), cpuSeconds(), time.Now()
	var (
		w   *worldgen.World
		s   *core.Study
		err error
	)
	if err = tr.do("worldgen.Build", "op", -1, func() (err error) {
		w, err = worldgen.Build(cfg.Params)
		return err
	}); err != nil {
		return opStats{}, err
	}
	buildAlloc := allocBytes() - a0
	r0 := time.Now()
	if err = tr.do("core.RunOnWorld", "op", -1, func() (err error) {
		s, err = core.RunOnWorld(cfg, w)
		return err
	}); err != nil {
		return opStats{}, err
	}
	run := time.Since(r0).Seconds()
	sha, n, err := exportTo(out, func(wr io.Writer) error {
		return tr.do("core.WriteJSON", "op", -1, func() error { return s.WriteJSON(wr) })
	})
	if err != nil {
		return opStats{}, err
	}
	wall := time.Since(t0).Seconds()
	rs := s.Robustness()
	return opStats{Wall: wall, Run: run, CPU: cpuSeconds() - c0, Alloc: allocBytes() - a0,
		Apps: rs.Apps, Quarantined: rs.Quarantined, SHA: sha, Bytes: n, BuildAlloc: buildAlloc}, nil
}

// shardLayout is the shard-crash run shape: nproc workers over three
// slices per worker, workers-1 kills with seeded torn tails (the
// coordinator needs one survivor) and one lease expiry. The faults hit the
// last slices handed out, so the survivors finish a similar amount of
// work alone whatever the seed; a kill on an early slice would leave one
// worker to do most of the run and make the cost depend on the seed.
func shardLayout(seed int64) core.ShardedConfig {
	workers := runtime.NumCPU()
	shards := 3 * workers
	rng := rand.New(rand.NewSource(seed))
	plan := &faultinject.ShardPlan{}
	// A mini world has about 520 apps, so every slice holds far more than
	// the 40 results a fault may wait for.
	for i := 0; i < workers-1; i++ {
		plan.Kills = append(plan.Kills, faultinject.ShardKill{
			Slice: shards - 1 - i, AfterResults: 1 + rng.Intn(40), TornBytes: 1 + rng.Intn(23),
		})
	}
	plan.Expiries = append(plan.Expiries, faultinject.LeaseExpiry{
		Slice: shards - workers, AfterResults: 1 + rng.Intn(40),
	})
	return core.ShardedConfig{Shards: shards, Workers: workers, Faults: plan}
}

// shardOp is one shard-crash operation: the sharded run with its injected
// faults, then the streaming merge to an export.
func shardOp(cfg core.Config, sc core.ShardedConfig, out string, tr *tracer) (opStats, error) {
	a0, c0, t0 := allocBytes(), cpuSeconds(), time.Now()
	var stats *shardStats
	if err := tr.do("core.RunSharded", "op", -1, func() error {
		st, err := core.RunSharded(cfg, sc)
		if err != nil {
			return err
		}
		stats = &shardStats{st.WorkersKilled, st.Expired, st.Reassigned, st.ResumedFrames, st.Fenced}
		return nil
	}); err != nil {
		return opStats{}, err
	}
	sha, n, err := exportTo(out, func(wr io.Writer) error {
		return tr.do("core.MergeShards", "op", -1, func() error { return core.MergeShards(wr, cfg, sc) })
	})
	if err != nil {
		return opStats{}, err
	}
	return opStats{Wall: time.Since(t0).Seconds(), CPU: cpuSeconds() - c0, Alloc: allocBytes() - a0,
		SHA: sha, Bytes: n, Shard: stats}, nil
}

// studyChild runs in a child process.
func studyChild(a studyArg) (studyResult, error) {
	cfg := studyConfig(a.Seed)
	out := filepath.Join(a.Dir, "export.json")
	var res studyResult
	one := func() error {
		var op opStats
		var err error
		switch a.Mode {
		case "shard":
			sc := shardLayout(a.Seed)
			sc.Dir = filepath.Join(a.Dir, fmt.Sprintf("shards-%d", len(res.Ops)))
			op, err = shardOp(cfg, sc, out, nil)
		case "oracle":
			cfg.Workers = 1
			op, err = studyOp(cfg, out, nil)
		default:
			op, err = studyOp(cfg, out, nil)
		}
		res.Ops = append(res.Ops, op)
		return err
	}
	switch a.Mode {
	case "rerun":
		if err := one(); err != nil {
			return res, err
		}
		res.Warm, res.Ops = res.Ops[0].SHA, nil
		signalReady("warm")
		// One rerun per "op" line, so the parent can probe the host
		// between them; stdin closes when the parent's budget is spent.
		in := bufio.NewScanner(os.Stdin)
		for in.Scan() {
			if err := one(); err != nil {
				return res, err
			}
			fmt.Println("done")
		}
	case "fresh", "shard", "oracle":
		signalReady(a.Mode)
		if err := one(); err != nil {
			return res, err
		}
	default:
		return res, fmt.Errorf("unknown study mode %q", a.Mode)
	}
	res.RSSMB = peakRSSMB()
	return res, nil
}

// opDir makes a fresh working directory for one child.
func opDir(name string, i int) (string, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", name, i))
	return dir, os.MkdirAll(dir, 0o755)
}

func runStudyFresh(r *run) error {
	if r.trace {
		return traceStudies(r, "fresh")
	}
	var sr studyRuns
	for i, deadline := 0, r.deadline(); len(sr.ops) < minOps || time.Now().Before(deadline); i++ {
		dir, err := opDir("fresh", i)
		if err != nil {
			return err
		}
		k := sr.pr.point()
		var res studyResult
		setup, err := runChild("study", studyArg{Seed: r.seed, Mode: "fresh", Dir: dir}, &res)
		if err != nil {
			return err
		}
		sr.process(setup, k, res)
		sr.op(res.Ops[0], k)
		os.RemoveAll(dir)
	}
	sr.pr.point()
	return reportStudies(r, &sr, "")
}

func runStudyRerun(r *run) error {
	if r.trace {
		return traceStudies(r, "rerun")
	}
	var sr studyRuns
	for i := 0; i < rerunRounds; i++ {
		dir, err := opDir("rerun", i)
		if err != nil {
			return err
		}
		k := sr.pr.point()
		c, err := spawn("study", studyArg{Seed: r.seed, Mode: "rerun", Dir: dir})
		if err != nil {
			return err
		}
		setup, _, err := c.ready()
		if err != nil {
			return err
		}
		var at []int
		for deadline := time.Now().Add(time.Duration(r.seconds / rerunRounds * float64(time.Second))); len(at) == 0 || time.Now().Before(deadline); {
			at = append(at, sr.pr.point())
			if err := c.send("op"); err != nil {
				c.kill()
				return err
			}
			if err := c.await("done"); err != nil {
				return err
			}
		}
		var res studyResult
		if err := c.finish(&res); err != nil {
			return err
		}
		if len(res.Ops) != len(at) {
			return fmt.Errorf("study-rerun: child made %d reruns, asked for %d", len(res.Ops), len(at))
		}
		sr.process(setup, k, res)
		for j, op := range res.Ops {
			if op.SHA != res.Warm {
				r.mismatch("study-rerun: rerun export %s differs from the warm-up export %s", op.SHA, res.Warm)
			}
			sr.op(op, at[j])
		}
		os.RemoveAll(dir)
	}
	sr.pr.point()
	return reportStudies(r, &sr, "")
}

func runShardCrash(r *run) error {
	if r.trace {
		return traceStudies(r, "shard")
	}
	var sr studyRuns
	for i, deadline := 0, r.deadline(); len(sr.ops) < minOps || time.Now().Before(deadline); i++ {
		dir, err := opDir("shard", i)
		if err != nil {
			return err
		}
		k := sr.pr.point()
		var res studyResult
		setup, err := runChild("study", studyArg{Seed: r.seed, Mode: "shard", Dir: dir}, &res)
		if err != nil {
			return err
		}
		sr.process(setup, k, res)
		sr.op(res.Ops[0], k)
		os.RemoveAll(dir)
	}
	sr.pr.point()
	ops := sr.ops
	oracle, err := runOracle(r.seed)
	if err != nil {
		return err
	}
	sc := shardLayout(r.seed)
	for i := range ops {
		op := &ops[i]
		op.Apps, op.Quarantined = oracle.Apps, oracle.Quarantined
		if op.SHA != oracle.SHA {
			r.mismatch("shard-crash: merged export %s differs from the single-process export %s", op.SHA, oracle.SHA)
		}
		if *op.Shard != *ops[0].Shard {
			r.mismatch("shard-crash: coordinator stats %+v differ from the first run's %+v", *op.Shard, *ops[0].Shard)
		}
		if op.Shard.WorkersKilled != len(sc.Faults.Kills) {
			r.mismatch("shard-crash: %d of %d planned worker kills fired", op.Shard.WorkersKilled, len(sc.Faults.Kills))
		}
	}
	return reportStudies(r, &sr, fmt.Sprintf("; %+v", *ops[0].Shard))
}

// runOracle makes the single-process, single-worker export of the seed in
// a child of its own — the repository's reference for sharded and resumed
// exports.
func runOracle(seed int64) (opStats, error) {
	dir, err := opDir("oracle", 0)
	if err != nil {
		return opStats{}, err
	}
	defer os.RemoveAll(dir)
	var res studyResult
	if _, err := runChild("study", studyArg{Seed: seed, Mode: "oracle", Dir: dir}, &res); err != nil {
		return opStats{}, err
	}
	return res.Ops[0], nil
}

// studyRuns is what a study workload's parent collected: the operations
// and processes, each with the probe point taken just before it.
type studyRuns struct {
	ops         []opStats
	opAt        []int
	setups, rss []float64
	setupAt     []int
	pr          prober
}

func (sr *studyRuns) op(op opStats, at int) {
	sr.ops, sr.opAt = append(sr.ops, op), append(sr.opAt, at)
}

func (sr *studyRuns) process(setup time.Duration, at int, res studyResult) {
	sr.setups, sr.setupAt = append(sr.setups, setup.Seconds()), append(sr.setupAt, at)
	sr.rss = append(sr.rss, res.RSSMB)
}

// reportStudies checks every export against the recorded digest and sets
// the end-to-end metrics from the operations. Each operation and set-up
// ran between the probe point taken just before it and the next one, and
// its time-based figures are scaled to the reference host speed by those
// two points. The raw values stay in the run's record.
func reportStudies(r *run, sr *studyRuns, extra string) error {
	want, err := expectedDigest(r.seed)
	if err != nil {
		return err
	}
	pr := &sr.pr
	if pr.err != nil {
		return pr.err
	}
	var rate, cpu, alloc, nrate, ncpu, nsetup []float64
	for i, op := range sr.ops {
		if op.SHA != want {
			r.mismatch("export %s does not match the recorded digest %s for study seed %d", op.SHA, want, studySeed(r.seed))
		}
		r.rec.Result.Attempted += op.Apps
		r.rec.Result.Failed += op.Quarantined
		rate = append(rate, float64(op.Apps)/op.Wall)
		cpu = append(cpu, op.CPU)
		alloc = append(alloc, op.Alloc/1e6)
		nrate = append(nrate, rate[i]/pr.wallScale(sr.opAt[i]))
		ncpu = append(ncpu, cpu[i]*pr.cpuScale(sr.opAt[i]))
	}
	for i, s := range sr.setups {
		nsetup = append(nsetup, s*pr.wallScale(sr.setupAt[i]))
	}
	r.rec.Samples["apps_per_s"], r.rec.Samples["cpu_s"] = rate, cpu
	r.rec.Samples["alloc_mb"] = alloc
	r.rec.Samples["peak_rss_mb"], r.rec.Samples["setup_s"] = sr.rss, sr.setups
	pr.save(r)
	n := fmt.Sprintf("median of %d ops (study seed %d, %d apps each%s)", len(sr.ops), studySeed(r.seed), sr.ops[0].Apps, extra)
	r.set("apps_per_s", median(nrate), fmt.Sprintf("%s, %s; raw %.1f", n, pr.note(), median(rate)))
	r.set("cpu_s", median(ncpu), fmt.Sprintf("%s, at reference host speed; raw %.3f", n, median(cpu)))
	r.set("alloc_mb", median(alloc), n)
	r.set("peak_rss_mb", median(sr.rss), fmt.Sprintf("median of %d processes", len(sr.rss)))
	r.set("setup_s", median(nsetup), fmt.Sprintf("median of %d set-ups, at reference host speed; raw %.4f", len(sr.setups), median(sr.setups)))
	res := r.rec.Result
	r.set("ok_frac", 1-float64(res.Failed)/float64(res.Attempted),
		fmt.Sprintf("%d of %d apps quarantined", res.Failed, res.Attempted))
	return nil
}
