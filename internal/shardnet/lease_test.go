package shardnet

// The lease scenarios of an in-process sharded run: a fixed fleet over the
// fault-free simulated network, with worker kills and lease expiries
// rendered from a faultinject.ShardPlan — the shape core.RunSharded runs.

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
)

// countingBench is the fake bench that also counts how often each
// (slice, item) was computed, so a test can tell a takeover that resumed
// from one that recomputed.
type countingBench struct {
	mu   sync.Mutex
	runs map[[2]int]int
}

func newCountingBench() *countingBench { return &countingBench{runs: map[[2]int]int{}} }

func (b *countingBench) RunItem(slice, item int) ([]byte, error) {
	b.mu.Lock()
	b.runs[[2]int{slice, item}]++
	b.mu.Unlock()
	return itemPayload(slice, item), nil
}

func (b *countingBench) newBench([]byte) (Bench, error) { return b, nil }

// recomputed reports the items computed more than once.
func (b *countingBench) recomputed() map[[2]int]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[[2]int]int{}
	for k, n := range b.runs {
		if n > 1 {
			out[k] = n
		}
	}
	return out
}

// uniform builds n slices of items each.
func uniform(dir string, n, items int) []Slice {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = items
	}
	return testSlices(dir, counts...)
}

// journalFiles reads every slice journal's raw bytes.
func journalFiles(t *testing.T, slices []Slice) [][]byte {
	t.Helper()
	out := make([][]byte, len(slices))
	for i, s := range slices {
		data, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// cleanJournals runs a fault-free fleet over n×items slices and returns
// the journal bytes every faulted run of the same shape must reproduce.
func cleanJournals(t *testing.T, n, items, workers int) [][]byte {
	t.Helper()
	slices := uniform(t.TempDir(), n, items)
	runSim(t, slices, workers, nil, nil)
	return journalFiles(t, slices)
}

func sameJournals(t *testing.T, slices []Slice, want [][]byte) {
	t.Helper()
	for i, data := range journalFiles(t, slices) {
		if !bytes.Equal(data, want[i]) {
			t.Fatalf("journal of slice %d differs from the fault-free run's", i)
		}
	}
}

func TestCleanRunCompletesAllSlices(t *testing.T) {
	slices := uniform(t.TempDir(), 6, 9)
	stats, workerErrs := runSim(t, slices, 3, nil, nil)
	verifyJournals(t, slices)
	for i, e := range workerErrs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	if stats.Workers != 3 || stats.Slices != 6 || stats.Granted != 6 {
		t.Fatalf("stats = %+v, want 3 workers, 6 slices, one grant each", stats)
	}
	if stats.Expired != 0 || stats.Reassigned != 0 || stats.Fenced != 0 || stats.ResumedFrames != 0 {
		t.Fatalf("clean run reported faults: %+v", stats)
	}
}

// TestShardKillsReassignAndStayByteIdentical kills workers at two distinct
// slice boundaries: each dead connection releases its lease, survivors
// resume the slices at the journal cursor, and the final journal files
// are byte-identical to a fault-free run's.
func TestShardKillsReassignAndStayByteIdentical(t *testing.T) {
	want := cleanJournals(t, 6, 9, 4)
	slices := uniform(t.TempDir(), 6, 9)
	plan := &faultinject.ShardPlan{Kills: []faultinject.ShardKill{
		{Slice: 1, AfterResults: 3, TornBytes: 11},
		{Slice: 4, AfterResults: 7, TornBytes: 2},
	}}
	stats, workerErrs := runSim(t, slices, 4, nil, PlanFaults(plan, DefaultSimTTL))
	verifyJournals(t, slices)
	if killed := killedWorkers(workerErrs); killed != 2 {
		t.Fatalf("killed workers = %d, want 2 (errs %v)", killed, workerErrs)
	}
	if stats.ConnDrops < 2 || stats.Reassigned < 2 {
		t.Fatalf("expected both dead holders' slices to be reassigned: %+v", stats)
	}
	if stats.ResumedFrames < 3+7 {
		t.Fatalf("takeovers resumed %d frames, want at least 10", stats.ResumedFrames)
	}
	sameJournals(t, slices, want)
}

// TestLeaseExpiryFencesStalledHolder stalls a live holder past its TTL:
// the lease must expire and the slice be reassigned while the holder
// still lives, and the stalled holder must give the slice up rather than
// recompute it as a zombie. "Fences" names the superseded epoch, not a
// counted Fenced frame: the holder sends nothing under the dead lease,
// so Fenced stays 0. No item is computed twice and the journal bytes are
// unharmed.
func TestLeaseExpiryFencesStalledHolder(t *testing.T) {
	want := cleanJournals(t, 4, 8, 4)
	slices := uniform(t.TempDir(), 4, 8)
	plan := &faultinject.ShardPlan{Expiries: []faultinject.LeaseExpiry{{Slice: 2, AfterResults: 3}}}
	bench := newCountingBench()
	stats, workerErrs, err := simFleet(slices, 4, nil, PlanFaults(plan, DefaultSimTTL), bench.newBench)
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v, worker errs %v)", err, stats, workerErrs)
	}
	verifyJournals(t, slices)
	if stats.Expired != 1 || stats.Reassigned != 1 {
		t.Fatalf("stall did not expire and reassign the lease exactly once: %+v", stats)
	}
	if stats.ResumedFrames != 3 {
		t.Fatalf("ResumedFrames = %d, want the 3 results journaled before the stall", stats.ResumedFrames)
	}
	if stats.Fenced != 0 {
		t.Fatalf("stalled holder sent %d zombie frames after its lease expired", stats.Fenced)
	}
	if again := bench.recomputed(); len(again) != 0 {
		t.Fatalf("items computed more than once: %v", again)
	}
	if killedWorkers(workerErrs) != 0 {
		t.Fatalf("expiry drill killed someone: %v", workerErrs)
	}
	sameJournals(t, slices, want)
}

// TestAllWorkersDeadThenRerunResumes kills the only worker, expects a loud
// failure, then reruns without the fault: the second run must resume from
// the surviving journal rather than recompute or clobber it.
func TestAllWorkersDeadThenRerunResumes(t *testing.T) {
	dir := t.TempDir()
	slices := uniform(dir, 2, 9)
	plan := &faultinject.ShardPlan{Kills: []faultinject.ShardKill{{Slice: 0, AfterResults: 4, TornBytes: 13}}}
	_, workerErrs, err := simFleet(slices, 1, nil, PlanFaults(plan, DefaultSimTTL), newFakeBench)
	if err == nil {
		t.Fatal("run with every worker dead reported success")
	}
	if killedWorkers(workerErrs) != 1 {
		t.Fatalf("worker errs = %v, want the one worker killed", workerErrs)
	}

	stats, _ := runSim(t, uniform(dir, 2, 9), 1, nil, nil)
	verifyJournals(t, slices)
	if stats.ResumedFrames != 4 {
		t.Fatalf("rerun resumed %d frames, want the 4 journaled before the kill", stats.ResumedFrames)
	}
}

// TestForeignJournalRejected points a slice at a journal from a different
// run: the meta fence must fail the run loudly instead of appending to
// (or truncating) someone else's data.
func TestForeignJournalRejected(t *testing.T) {
	slices := uniform(t.TempDir(), 2, 3)
	w, err := journal.Create(slices[0].Path, []byte(`{"run":"someone else"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("their data")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(slices[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := simFleet(slices, 1, nil, nil, newFakeBench); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("run = %v, want meta-mismatch failure", err)
	}
	after, err := os.ReadFile(slices[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("foreign journal was modified")
	}
}

func TestConfigValidation(t *testing.T) {
	simnet := NewSimNet(nil)
	if _, err := NewCoordinator(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewCoordinator(Config{Listener: simnet.Listener(), Clock: simnet}); err == nil {
		t.Fatal("config without slices accepted")
	}
	dup := uniform(t.TempDir(), 2, 1)
	dup[1].Path = dup[0].Path
	if _, err := NewCoordinator(Config{Listener: simnet.Listener(), Clock: simnet, Slices: dup}); err == nil {
		t.Fatal("duplicate slice paths accepted")
	}
	if err := RunWorker(simnet.Dialer(), WorkerOptions{Clock: simnet}); err == nil {
		t.Fatal("worker without a bench constructor accepted")
	}
}

// TestManySlicesFewWorkersUnderChurn runs a larger matrix with kills and
// stalls together — primarily a race-detector workout (check.sh runs this
// package with -race) plus the byte-identity assertion once more.
func TestManySlicesFewWorkersUnderChurn(t *testing.T) {
	want := cleanJournals(t, 12, 7, 4)
	slices := uniform(t.TempDir(), 12, 7)
	plan := &faultinject.ShardPlan{
		Kills: []faultinject.ShardKill{
			{Slice: 0, AfterResults: 0, TornBytes: 0},
			{Slice: 5, AfterResults: 6, TornBytes: 21},
			{Slice: 9, AfterResults: 3, TornBytes: 1},
		},
		Expiries: []faultinject.LeaseExpiry{
			{Slice: 2, AfterResults: 1},
			{Slice: 7, AfterResults: 7},
		},
	}
	stats, workerErrs := runSim(t, slices, 4, nil, PlanFaults(plan, DefaultSimTTL))
	verifyJournals(t, slices)
	if killed := killedWorkers(workerErrs); killed != 3 {
		t.Fatalf("killed workers = %d, want 3 (errs %v)", killed, workerErrs)
	}
	if stats.Expired != 1 {
		t.Fatalf("Expired = %d, want 1 (slice 7's stall sits at its completion boundary)", stats.Expired)
	}
	sameJournals(t, slices, want)
}

// TestStallAtCompletionBoundaryDoesNotFire pins the stall bound: an expiry
// configured at AfterResults == Items would sit between the final result
// and the lease release, stalling a holder whose journal is already done
// so that a survivor "takes over" finished work. The worker consults its
// fault tap only for items it still has to compute, so it never fires.
func TestStallAtCompletionBoundaryDoesNotFire(t *testing.T) {
	slices := uniform(t.TempDir(), 3, 5)
	plan := &faultinject.ShardPlan{Expiries: []faultinject.LeaseExpiry{{Slice: 1, AfterResults: 5}}}
	stats, _ := runSim(t, slices, 2, nil, PlanFaults(plan, DefaultSimTTL))
	verifyJournals(t, slices)
	if stats.Expired != 0 || stats.Reassigned != 0 {
		t.Fatalf("completion-boundary stall fired: %+v", stats)
	}
}

func TestSimFaultPlanStatsAreDeterministic(t *testing.T) {
	// Without network chaos the coordinator's stats are a function of the
	// slices and the fault plan alone, whatever order the goroutines run
	// in: repeated runs must agree exactly, also where several workers
	// ask for work on the same tick.
	cases := []struct {
		name                 string
		slices, items, fleet int
		plan                 *faultinject.ShardPlan
		// want is Expired, Reassigned and ResumedFrames.
		want [3]int
	}{{
		// The stalled holder is the only survivor, so it takes its own
		// slice back (nothing resumed) and then takes over the killed
		// holder's slice at its cursor.
		name: "kill and stall, lone survivor", slices: 6, items: 9, fleet: 2,
		plan: &faultinject.ShardPlan{
			Kills:    []faultinject.ShardKill{{Slice: 5, AfterResults: 4, TornBytes: 3}},
			Expiries: []faultinject.LeaseExpiry{{Slice: 4, AfterResults: 2}},
		},
		want: [3]int{1, 2, 4},
	}, {
		// Two idle survivors wait when the lease expires; the first in
		// connection order takes the slice over at its cursor.
		name: "idle survivors compete with the stalled holder", slices: 3, items: 4, fleet: 3,
		plan: &faultinject.ShardPlan{Expiries: []faultinject.LeaseExpiry{{Slice: 0, AfterResults: 2}}},
		want: [3]int{1, 1, 2},
	}, {
		// Two holders stall on one tick with no idle worker: both come
		// back for their own slices, whichever Ready is read first.
		name: "two stalls on one tick", slices: 3, items: 4, fleet: 2,
		plan: &faultinject.ShardPlan{Expiries: []faultinject.LeaseExpiry{
			{Slice: 0, AfterResults: 1}, {Slice: 1, AfterResults: 1},
		}},
		want: [3]int{2, 2, 0},
	}, {
		// As above with one idle worker: it takes slice 0 over, and
		// slice 1 waits for its own holder.
		name: "two stalls on one tick, one idle worker", slices: 3, items: 4, fleet: 3,
		plan: &faultinject.ShardPlan{Expiries: []faultinject.LeaseExpiry{
			{Slice: 0, AfterResults: 1}, {Slice: 1, AfterResults: 1},
		}},
		want: [3]int{2, 2, 1},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *Stats
			for run := 0; run < 16; run++ {
				stats, _ := runSim(t, uniform(t.TempDir(), tc.slices, tc.items), tc.fleet, nil,
					PlanFaults(tc.plan, DefaultSimTTL))
				if first == nil {
					first = stats
				} else if *stats != *first {
					t.Fatalf("run %d stats %+v differ from the first run's %+v", run, *stats, *first)
				}
			}
			if got := [3]int{first.Expired, first.Reassigned, first.ResumedFrames}; got != tc.want {
				t.Fatalf("Expired, Reassigned, ResumedFrames = %v, want %v (stats %+v)", got, tc.want, *first)
			}
		})
	}
}
