// Command pinbench is pinscope's benchmark. Each run executes one workload
// for a fixed time and prints every metric by name with its unit; the last
// line of standard output is the result as JSON. Run it from the
// repository root through perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload study-rerun --seed 3 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer metrics. Every run also saves a
// record (host fingerprint, metrics, sample counts) under
// .bench_build/results/, and `pinbench -compare A B` compares two
// directories of records, refusing loudly to mix hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Paths are relative to the repository root, the working directory.
const (
	buildDir   = ".bench_build"
	workDir    = buildDir + "/work"
	resultsDir = buildDir + "/results"
)

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// record is everything one run learned: the result, the host it ran on,
// and how each metric was derived (sample counts, percentile levels).
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Host     host    `json:"host"`
	// StealFrac is the share of the host's CPU time the hypervisor gave
	// to other guests during the run.
	StealFrac float64           `json:"steal_frac"`
	Result    result            `json:"result"`
	Notes     map[string]string `json:"notes"`
	// Samples are the per-operation values behind the end-to-end metrics.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Errors  []string             `json:"errors,omitempty"`
}

// run collects one run's metrics and correctness verdict.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	rec     record
}

func (r *run) set(name string, v float64, note string) {
	d, ok := defFor(name)
	if !ok {
		panic("pinbench: metric not in catalog: " + name)
	}
	r.rec.Result.Metrics[name] = metricVal{Value: v, Unit: d.Unit}
	r.rec.Notes[name] = note
}

// mismatch records a correctness failure; the run then reports
// correct=false and exits non-zero.
func (r *run) mismatch(format string, args ...any) {
	r.rec.Result.Correct = false
	r.rec.Errors = append(r.rec.Errors, fmt.Sprintf(format, args...))
}

// deadline is when the measured loop stops starting operations.
func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
}

var runners = map[string]func(*run) error{
	"study-fresh": runStudyFresh,
	"study-rerun": runStudyRerun,
	"shard-crash": runShardCrash,
	"serve-mixed": runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "workload to run: study-fresh, study-rerun, shard-crash or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the inputs are a pure function of it")
	seconds := flag.Float64("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	childKind := flag.String("child", "", "internal: run as a child process of this kind")
	childArg := flag.String("arg", "", "internal: the child's arguments as JSON")
	compare := flag.Bool("compare", false, "compare two directories of saved records: -compare OLD NEW")
	list := flag.Bool("list", false, "print the workloads and the metric catalog")
	recordDigests := flag.Bool("record-digests", false, "recompute perfbench/expected.json from single-process exports")
	flag.Parse()

	var err error
	switch {
	case *childKind != "":
		err = childMain(*childKind, *childArg)
	case *compare:
		err = compareDirs(flag.Arg(0), flag.Arg(1))
	case *list:
		printCatalog()
	case *recordDigests:
		err = recordExpected()
	default:
		err = benchMain(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pinbench:", err)
		os.Exit(1)
	}
}

func benchMain(workload string, seed int64, seconds float64, traced bool) error {
	fn, ok := runners[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the pinscope repository root: %w", err)
	}
	if err := os.RemoveAll(workDir); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	r := &run{seed: seed, seconds: seconds, trace: traced, rec: record{
		Workload: workload, Seed: seed, Seconds: seconds, Host: fingerprint(),
		Result: result{Correct: true, Metrics: map[string]metricVal{}},
		Notes:  map[string]string{}, Samples: map[string][]float64{},
	}}
	if traced {
		r.rec.Trace = 1
		for _, d := range perLayer {
			r.set(d.Name, 0, "not exercised by "+workload)
		}
	}
	total0, steal0 := cpuTicks()
	if err := fn(r); err != nil {
		return err
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		r.rec.StealFrac = (steal1 - steal0) / (total1 - total0)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := r.rec.Result.Metrics[d.Name]; !ok {
			return fmt.Errorf("internal: workload %s did not report %s", workload, d.Name)
		}
	}
	if r.rec.Result.Attempted < 1 {
		return fmt.Errorf("internal: workload %s attempted nothing", workload)
	}
	return finish(r)
}

func finish(r *run) error {
	rec := &r.rec
	h := rec.Host
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%s; %.1f%% of host CPU stolen during the run\n",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Kernel, 100*rec.StealFrac)
	if rec.StealFrac > stealWarn {
		fmt.Printf("WARNING: the hypervisor took %.0f%% of the host's CPU during this run; its timings are not comparable with a quiet run\n",
			100*rec.StealFrac)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Printf("%-34s %14.6g %-6s %s\n", n, m.Value, m.Unit, rec.Notes[n])
	}
	for _, e := range rec.Errors {
		fmt.Println("MISMATCH:", e)
	}
	js, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace))
	if err := os.WriteFile(path, js, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
	return nil
}

func printCatalog() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-12s %s\n", w.Name, w.Why)
	}
	for _, sec := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end (--trace 0)", endToEnd}, {"per-layer (--trace 1)", perLayer}} {
		fmt.Println(sec.title + ":")
		for _, d := range sec.defs {
			fmt.Printf("  %-32s %-6s %s\n", d.Name, d.Unit, d.Means)
			if d.Moves != "" {
				fmt.Printf("  %-32s %-6s -> %s\n", "", "", d.Moves)
			}
		}
	}
}

// compareDirs compares the medians of two directories of saved records,
// per workload and metric. Records from different hosts are not
// comparable; the comparison says so before printing anything else.
func compareDirs(oldDir, newDir string) error {
	load := func(dir string) ([]record, error) {
		paths, err := filepath.Glob(filepath.Join(dir, "*-trace[01].json"))
		if err != nil {
			return nil, err
		}
		var recs []record
		for _, p := range paths {
			js, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var rec record
			if err := json.Unmarshal(js, &rec); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("no records in %s", dir)
		}
		return recs, nil
	}
	olds, err := load(oldDir)
	if err != nil {
		return err
	}
	news, err := load(newDir)
	if err != nil {
		return err
	}
	hosts := map[host]bool{}
	for _, rec := range append(append([]record(nil), olds...), news...) {
		hosts[rec.Host] = true
	}
	if len(hosts) > 1 {
		fmt.Println("!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!")
		fmt.Println("!! HOST FINGERPRINTS DIFFER: these records are NOT comparable.     !!")
		for h := range hosts {
			fmt.Printf("!!   %+v\n", h)
		}
		fmt.Println("!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!")
	}
	for _, rec := range append(append([]record(nil), olds...), news...) {
		if rec.StealFrac > stealWarn {
			fmt.Printf("WARNING: %s seed %d trace %d ran with %.0f%% of the host CPU stolen\n",
				rec.Workload, rec.Seed, rec.Trace, 100*rec.StealFrac)
		}
	}
	type key struct{ workload, metric string }
	group := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, rec := range recs {
			for n, m := range rec.Result.Metrics {
				k := key{fmt.Sprintf("%s/trace%d", rec.Workload, rec.Trace), n}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	og, ng := group(olds), group(news)
	keys := make([]key, 0, len(og))
	for k := range og {
		if _, ok := ng[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Printf("%-24s %-32s %12s %8s %12s %8s %8s\n", "workload", "metric", "old median", "spread", "new median", "spread", "change")
	for _, k := range keys {
		o, n := og[k], ng[k]
		om, nm := median(o), median(n)
		change := math.NaN()
		if om != 0 {
			change = nm/om - 1
		}
		fmt.Printf("%-24s %-32s %12.6g %7.1f%% %12.6g %7.1f%% %+7.1f%%\n",
			k.workload, k.metric, om, 100*quartileSpread(o), nm, 100*quartileSpread(n), 100*change)
	}
	if len(hosts) > 1 {
		fmt.Println("!! HOST FINGERPRINTS DIFFER: the changes above are not evidence of anything.")
	}
	return nil
}

// childMain is the child side of proc.go's protocol.
func childMain(kind, arg string) error {
	var (
		out any
		err error
	)
	switch kind {
	case "study", "trace", "drive":
		var a studyArg
		if err := json.Unmarshal([]byte(arg), &a); err != nil {
			return err
		}
		switch kind {
		case "study":
			out, err = studyChild(a)
		case "trace":
			out, err = traceChild(a)
		default:
			out, err = driveChild(a)
		}
	case "serve":
		var a serveArg
		if err := json.Unmarshal([]byte(arg), &a); err != nil {
			return err
		}
		out, err = serveChild(a)
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		return err
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}
