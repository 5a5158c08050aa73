package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pinscope/internal/faultinject"
	"pinscope/internal/worldgen"
)

// streamBytes renders a completed study through the streaming exporter —
// the same head/app/tail path the shard merge uses — so tests can hold it
// against WriteJSON byte for byte.
func streamBytes(t *testing.T, s *Study) []byte {
	t.Helper()
	ds := s.Export()
	var buf bytes.Buffer
	se, err := NewStreamExporter(&buf, ds.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Apps {
		if err := se.App(&ds.Apps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Finish(ds.Destinations); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamExporterMatchesWriteJSON(t *testing.T) {
	s := runCfg(t, TestConfig(77))
	want := exportBytes(t, s)
	got := streamBytes(t, s)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed export diverges from WriteJSON (%d vs %d bytes)", len(got), len(want))
	}
}

func TestStreamExporterEmptyDocument(t *testing.T) {
	// The degenerate shapes — no apps, no probes — must reproduce
	// encoding/json's null rendering of nil slices exactly.
	meta := DatasetMeta{Seed: 1, Window: 30}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&ExportedDataset{Version: DatasetVersion, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	se, err := NewStreamExporter(&got, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("empty streamed doc diverges:\ngot:  %q\nwant: %q", got.Bytes(), want.Bytes())
	}
}

// shardedExport runs cfg as a sharded study and merges the journals.
func shardedExport(t *testing.T, cfg Config, sc ShardedConfig) ([]byte, *ShardStats) {
	t.Helper()
	stats, err := RunSharded(cfg, sc)
	if err != nil {
		t.Fatalf("sharded run: %v (stats %+v)", err, stats)
	}
	var buf bytes.Buffer
	if err := MergeShards(&buf, cfg, sc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

func TestShardedRunMergesByteIdentical(t *testing.T) {
	// The acceptance shape: a sharded run with shard kills at two distinct
	// slice boundaries plus an induced lease expiry must merge into the
	// exact bytes an unsharded same-seed run exports.
	cfg := microCfg(93)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0 // sharded runs own their worker pool
	sc := ShardedConfig{
		Shards:  4,
		Workers: 4,
		Dir:     t.TempDir(),
		Faults: &faultinject.ShardPlan{
			Kills: []faultinject.ShardKill{
				{Slice: 1, AfterResults: 1, TornBytes: 9},
				{Slice: 3, AfterResults: 2, TornBytes: 3},
			},
			Expiries: []faultinject.LeaseExpiry{{Slice: 2, AfterResults: 1}},
		},
	}
	merged, stats := shardedExport(t, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("sharded merge diverges from single-process export (%d vs %d bytes)",
			len(merged), len(single))
	}

	// And the faults must actually have fired, or the test proved nothing.
	// A dead worker's connection releases its lease at once, so the kills
	// show as reassignments; only the stalled holder's lease expires.
	if stats.WorkersKilled != 2 {
		t.Fatalf("WorkersKilled = %d, want 2", stats.WorkersKilled)
	}
	if stats.Reassigned < 3 { // both killed slices and the stalled one
		t.Fatalf("Reassigned = %d, want >= 3 (stats %+v)", stats.Reassigned, stats)
	}
	if stats.ResumedFrames < 3 {
		t.Fatalf("ResumedFrames = %d, want >= 3 (survivors must resume, not recompute)", stats.ResumedFrames)
	}
	if stats.Expired < 1 {
		t.Fatalf("Expired = %d, want >= 1 (the stalled holder's lease must expire)", stats.Expired)
	}
	if stats.Fenced != 0 {
		t.Fatalf("Fenced = %d: the stalled holder must drop its grant, not keep sending as a zombie", stats.Fenced)
	}
}

func TestShardNetSimMergesByteIdentical(t *testing.T) {
	// The same equivalence under a seeded sweep of every network fault
	// kind on the simulated transport — a delayed frame, a dropped frame
	// (severed conn), duplicate delivery, a partition long enough to
	// expire a lease — plus a mid-stream worker death.
	cfg := microCfg(29)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	sc := ShardedConfig{
		Shards:  4,
		Workers: 3,
		Dir:     t.TempDir(),
		Faults: &faultinject.ShardPlan{
			Kills: []faultinject.ShardKill{{Slice: 2, AfterResults: 1, TornBytes: 7}},
			Net: &faultinject.NetChaos{
				Delays:     []faultinject.NetDelay{{Slice: 0, Item: 1, Ticks: faultinject.NetTTL / 2}},
				Drops:      []faultinject.NetDrop{{Slice: 1, Item: 1}},
				Dups:       []faultinject.NetDup{{Slice: 2, Item: 0}},
				Partitions: []faultinject.NetPartition{{Slice: 3, AfterItem: 0, Ticks: 3 * faultinject.NetTTL / 2}},
			},
		},
	}
	merged, stats := shardedExport(t, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("network-chaos sharded merge diverges from single-process export (%d vs %d bytes)",
			len(merged), len(single))
	}

	// The faults must actually have fired, or the equivalence proved
	// nothing.
	if stats.WorkersKilled != 1 {
		t.Fatalf("WorkersKilled = %d, want 1", stats.WorkersKilled)
	}
	if stats.Duplicates < 1 {
		t.Fatalf("Duplicates = %d, want >= 1 (injected duplicate never arrived twice)", stats.Duplicates)
	}
	if stats.ConnDrops < 2 { // the dropped frame severs one conn, the kill another
		t.Fatalf("ConnDrops = %d, want >= 2", stats.ConnDrops)
	}
	if stats.Expired < 1 { // the partition must outlive a lease TTL
		t.Fatalf("Expired = %d, want >= 1 (partition never expired a lease)", stats.Expired)
	}
	if stats.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1", stats.Reassigned)
	}
}

// derivedPlan derives the seeded shard fault plan the chaos sweep uses
// for cfg cut into shards slices.
func derivedPlan(t *testing.T, cfg Config, shards, workers int) *faultinject.ShardPlan {
	t.Helper()
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	ranges := sliceRanges(len(shardUniverse(w)), shards)
	items := make([]int, len(ranges))
	for i, rg := range ranges {
		items[i] = rg[1]
	}
	return faultinject.DeriveShardPlan(cfg.Params.Seed, 1.0, workers, items)
}

func TestShardedDerivedPlanMergesByteIdentical(t *testing.T) {
	// Same equivalence under the derived (seeded) fault plan — the path
	// ChaosSweep and pinstudy -shard-kill exercise.
	cfg := microCfg(57)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	plan := derivedPlan(t, cfg, 4, 4)
	if plan == nil || len(plan.Kills) == 0 {
		t.Fatalf("derived plan injected nothing: %+v", plan)
	}
	sc := ShardedConfig{Shards: 4, Workers: 4, Dir: t.TempDir(), Faults: plan}
	merged, _ := shardedExport(t, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("derived-plan sharded merge diverges (%d vs %d bytes)", len(merged), len(single))
	}
}

func TestShardNetDerivedPlanMergesByteIdentical(t *testing.T) {
	// A second derived plan, with its network family, over a shape with
	// fewer workers than slices: takeovers queue behind busy workers while
	// the wire misbehaves.
	cfg := microCfg(61)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	plan := derivedPlan(t, cfg, 5, 3)
	if plan == nil || !plan.Net.Any() {
		t.Fatalf("derived plan injected no network chaos: %+v", plan)
	}
	sc := ShardedConfig{Shards: 5, Workers: 3, Dir: t.TempDir(), Faults: plan}
	merged, _ := shardedExport(t, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("derived-plan sharded merge diverges (%d vs %d bytes)", len(merged), len(single))
	}
}

// interruptedRun runs cfg as 3 slices on one worker that dies after two
// results of slice 0. The run must fail loudly, and a merge of what it
// left must refuse to emit partial data.
func interruptedRun(t *testing.T, cfg Config, dir string) {
	t.Helper()
	sc := ShardedConfig{Shards: 3, Workers: 1, Dir: dir,
		Faults: &faultinject.ShardPlan{Kills: []faultinject.ShardKill{{Slice: 0, AfterResults: 2, TornBytes: 5}}}}
	if _, err := RunSharded(cfg, sc); err == nil {
		t.Fatal("run with its only worker killed reported success")
	} else if !strings.Contains(err.Error(), "workers gone") {
		t.Fatalf("fleet-death error = %v, want workers-gone", err)
	}
	if err := MergeShards(&bytes.Buffer{}, cfg, ShardedConfig{Shards: 3, Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "incomplete run") {
		t.Fatalf("merge of interrupted run: %v, want incomplete-run error", err)
	}
}

func TestShardedRerunResumesInterruptedRun(t *testing.T) {
	// One worker, one kill: the run dies with work outstanding. A rerun
	// over the same directory resumes from the journals — the results
	// journaled before the death are not recomputed — and the merge still
	// matches the unsharded export.
	cfg := microCfg(41)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	dir := t.TempDir()
	interruptedRun(t, shardedCfg, dir)

	rerun := ShardedConfig{Shards: 3, Workers: 1, Dir: dir}
	merged, stats := shardedExport(t, shardedCfg, rerun)
	if stats.ResumedFrames != 2 {
		t.Fatalf("rerun ResumedFrames = %d, want the 2 results journaled before the kill", stats.ResumedFrames)
	}
	if !bytes.Equal(merged, single) {
		t.Fatal("resumed sharded merge diverges from single-process export")
	}
}

func TestShardNetRerunResumesAfterFleetDeath(t *testing.T) {
	// The fleet dies, and then the slice journal loses its tail mid-frame
	// — the power cut the coordinator's whole-frame appends never cause
	// themselves. The rerun must cut the torn frame off, resume from the
	// valid prefix, and still merge byte-identically.
	cfg := microCfg(43)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	dir := t.TempDir()
	interruptedRun(t, shardedCfg, dir)
	path := shardPath(dir, 0)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	rerun := ShardedConfig{Shards: 3, Workers: 1, Dir: dir}
	merged, stats := shardedExport(t, shardedCfg, rerun)
	if stats.ResumedFrames != 1 {
		t.Fatalf("rerun ResumedFrames = %d, want the 1 frame before the torn one", stats.ResumedFrames)
	}
	if !bytes.Equal(merged, single) {
		t.Fatal("merge after a torn-tail resume diverges from single-process export")
	}
}

func TestMergeRejectsForeignRun(t *testing.T) {
	cfg := microCfg(8)
	cfg.Workers = 0
	dir := t.TempDir()
	sc := ShardedConfig{Shards: 2, Workers: 2, Dir: dir}
	if _, err := RunSharded(cfg, sc); err != nil {
		t.Fatal(err)
	}
	other := microCfg(9)
	other.Workers = 0
	err := MergeShards(&bytes.Buffer{}, other, ShardedConfig{Shards: 2, Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("merge with mismatched config: %v, want different-run error", err)
	}
}

func TestRunShardedValidation(t *testing.T) {
	cfg := microCfg(3)
	if _, err := RunSharded(cfg, ShardedConfig{Shards: 0, Dir: t.TempDir()}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := RunSharded(cfg, ShardedConfig{Shards: 2}); err == nil {
		t.Fatal("missing journal dir accepted")
	}
	bad := cfg
	bad.Kill = &faultinject.ProcessKill{AfterResults: 1}
	if _, err := RunSharded(bad, ShardedConfig{Shards: 2, Dir: t.TempDir()}); err == nil {
		t.Fatal("Config.Kill accepted in sharded mode")
	}
}
