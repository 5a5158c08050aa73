package core

// sharded.go runs the study as a fleet of crash-only shards and merges
// their journals back into the canonical export. The app universe — the
// same deduped work list a single-process run uses, re-sorted into export
// order — is cut into contiguous slices; the internal/shardnet coordinator
// hands the slices to workers under crash-tolerant leases and journals
// every slice through the same WAL the single-process runner uses. An
// in-process run drives its worker fleet over the simulated network; a
// cross-machine run (shardnet.go) serves the same coordinator over TCP.
// Because each result frame is a pure function of (run config, app), the
// slice journals' contents are independent of scheduling, takeovers and
// kills — which is what lets MergeShards stitch them into an export
// byte-identical to an unsharded same-seed run, streaming one frame at a
// time.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
	"pinscope/internal/shardnet"
	"pinscope/internal/worldgen"
)

// ShardedConfig parameterizes a sharded run of a study Config.
type ShardedConfig struct {
	// Shards is the slice count; Workers (0 = one per shard, at most one
	// per shard) the in-process worker fleet measuring them.
	Shards  int
	Workers int
	// Dir holds the slice journals (shard-NNN.wal), created if missing.
	// Rerunning over an interrupted run's directory resumes from the
	// journals instead of recomputing.
	Dir string
	// Faults is the deterministic shard fault plan: worker kills, induced
	// lease expiries, and the network family the simulated transport
	// injects. Nil injects nothing.
	Faults *faultinject.ShardPlan
}

// ShardStats reports a sharded run: the coordinator's accounting plus
// the injected worker deaths that fired.
type ShardStats struct {
	shardnet.Stats
	WorkersKilled int
}

// shardMeta is a slice journal's header: the full run configuration plus
// the slice's coordinates. Takeover and merge verify it byte-for-byte, so
// a journal can never be resumed into — or merged with — a different run,
// shard layout, or slice position.
type shardMeta struct {
	Run    journalMeta `json:"run"`
	Slice  int         `json:"slice"`
	Slices int         `json:"slices"`
	Start  int         `json:"start"`
	Count  int         `json:"count"`
}

func shardPath(dir string, slice int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", slice))
}

// shardUniverse is the canonical sharded work order: the study work list
// sorted by result key — the order Export emits apps in. Concatenating
// slice journals in slice order therefore streams apps in final export
// order with no buffering or re-sorting.
func shardUniverse(w *worldgen.World) []workItem {
	uni := studyWork(w)
	sort.Slice(uni, func(i, j int) bool { return uni[i].key() < uni[j].key() })
	return uni
}

// sliceRanges cuts n items into contiguous {start, count} ranges.
func sliceRanges(n, shards int) [][2]int {
	out := make([][2]int, shards)
	start := 0
	for i := range out {
		count := n / shards
		if i < n%shards {
			count++
		}
		out[i] = [2]int{start, count}
		start += count
	}
	return out
}

// shardSlices renders the coordinator's slice list for (cfg, sc, universe).
func shardSlices(cfg Config, sc ShardedConfig, n int) ([]shardnet.Slice, [][2]int, error) {
	ranges := sliceRanges(n, sc.Shards)
	slices := make([]shardnet.Slice, 0, sc.Shards)
	for i, rg := range ranges {
		meta, err := json.Marshal(shardMeta{
			Run: metaFor(cfg), Slice: i, Slices: sc.Shards, Start: rg[0], Count: rg[1],
		})
		if err != nil {
			return nil, nil, err
		}
		slices = append(slices, shardnet.Slice{Path: shardPath(sc.Dir, i), Meta: meta, Items: rg[1]})
	}
	return slices, ranges, nil
}

// shardRun is what every coordinator of a sharded run starts from: the
// validated config, its world and universe, and the slices.
type shardRun struct {
	cfg    Config
	w      *worldgen.World
	uni    []workItem
	ranges [][2]int
	slices []shardnet.Slice
}

// newShardRun validates a sharded run, creates its journal directory and
// builds its world and slices.
func newShardRun(cfg Config, sc ShardedConfig) (*shardRun, error) {
	if cfg.Window == 0 {
		cfg.Window = 30
	}
	if sc.Shards <= 0 {
		return nil, errors.New("core: sharded run needs at least one shard")
	}
	if cfg.Journal != nil || cfg.Kill != nil {
		return nil, errors.New("core: sharded runs journal per slice; Config.Journal and Config.Kill must be nil")
	}
	if sc.Dir == "" {
		return nil, errors.New("core: sharded run needs a journal directory")
	}
	if err := os.MkdirAll(sc.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: shard dir: %w", err)
	}
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return nil, err
	}
	uni := shardUniverse(w)
	slices, ranges, err := shardSlices(cfg, sc, len(uni))
	if err != nil {
		return nil, err
	}
	return &shardRun{cfg: cfg, w: w, uni: uni, ranges: ranges, slices: slices}, nil
}

// bench builds one worker's bench on the run's world: its own crypto
// plane and lab, the in-process stand-in for a separate shard machine.
func (r *shardRun) bench() (shardnet.Bench, error) {
	var plane *cryptoPlane
	if !r.cfg.ColdCrypto {
		var err error
		if plane, err = newCryptoPlane(r.cfg, r.w); err != nil {
			return nil, err
		}
	}
	lab, err := newLab(r.cfg, r.w, plane)
	if err != nil {
		return nil, err
	}
	return &shardBench{uni: r.uni, ranges: r.ranges, lab: lab}, nil
}

// shardBench adapts one worker's lab to the coordinator's item protocol.
type shardBench struct {
	uni    []workItem
	ranges [][2]int
	lab    *lab
}

func (b *shardBench) RunItem(slice, item int) ([]byte, error) {
	it := b.uni[b.ranges[slice][0]+item]
	res := b.lab.studyAppResilient(it.app, it.common)
	return encodeAppResult(it.key(), res)
}

// RunSharded executes the study as sc.Shards crash-only slices, leaving
// one complete journal per slice in sc.Dir. A fleet of sc.Workers
// in-process workers, sharing the run's world, drives the shardnet
// coordinator over the simulated network, which renders the whole fault
// plan: kills as mid-stream worker deaths, lease expiries as holders gone
// silent past their TTL, and the network family as transport chaos.
// Without network chaos the returned stats repeat across reruns (see
// shardnet.Stats for the one exception). RunSharded does not build a
// Study: the deliverable of a sharded run is its journals, folded into an
// export by MergeShards. If the run is killed (injected or real),
// rerunning with the same arguments resumes every slice from its journal.
func RunSharded(cfg Config, sc ShardedConfig) (*ShardStats, error) {
	r, err := newShardRun(cfg, sc)
	if err != nil {
		return nil, err
	}
	net := shardnet.NewSimNet(sc.Faults.NetFaults())
	coord, err := shardnet.NewCoordinator(shardnet.Config{
		Listener:    net.Listener(),
		Clock:       net,
		Slices:      r.slices,
		BackoffSeed: r.cfg.Params.Seed,
	})
	if err != nil {
		return nil, err
	}
	workers := sc.Workers
	if workers <= 0 || workers > sc.Shards {
		workers = sc.Shards
	}
	faults := shardnet.PlanFaults(sc.Faults, shardnet.DefaultSimTTL)
	net.ExpectDials(workers)
	stats, errs, err := shardnet.RunFleet(coord, workers, func(i int) error {
		return shardnet.RunWorker(net.Dialer(), shardnet.WorkerOptions{
			Clock:       net,
			NewBench:    func([]byte) (shardnet.Bench, error) { return r.bench() },
			Reconnects:  16,
			BackoffSeed: r.cfg.Params.Seed,
			Scope:       "sim/" + strconv.Itoa(i),
			FaultTap:    faults,
		})
	})
	return fleetStats(stats, errs), err
}

// fleetStats folds a fleet's outcome into ShardStats.
func fleetStats(stats *shardnet.Stats, errs []error) *ShardStats {
	out := &ShardStats{}
	if stats != nil {
		out.Stats = *stats
	}
	for _, e := range errs {
		if errors.Is(e, shardnet.ErrWorkerKilled) {
			out.WorkersKilled++
		}
	}
	return out
}

// MergeShards streams the slice journals of a completed sharded run into
// one exported dataset, byte-identical to WriteJSON of an unsharded
// same-seed run. Peak memory is bounded: one journal frame is decoded,
// exported and discarded at a time, and only two small indexes (dataset
// membership and the pinned-destination set) live across the walk — the
// full dataset never materializes.
func MergeShards(out io.Writer, cfg Config, sc ShardedConfig) error {
	if cfg.Window == 0 {
		cfg.Window = 30
	}
	if sc.Shards <= 0 {
		return errors.New("core: merge needs the run's shard count")
	}
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return err
	}
	uni := shardUniverse(w)
	slices, ranges, err := shardSlices(cfg, sc, len(uni))
	if err != nil {
		return err
	}
	membership := datasetMembership(w)
	se, err := NewStreamExporter(out, exportMeta(cfg))
	if err != nil {
		return err
	}
	dests := map[string]bool{}
	for i, rg := range ranges {
		if err := mergeSlice(se, slices[i], rg, uni, membership, dests); err != nil {
			return err
		}
	}
	sorted := make([]string, 0, len(dests))
	for d := range dests {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	probes := probeDests(cfg, w, sorted)
	eps := make([]ExportedProbe, 0, len(sorted))
	for _, d := range sorted {
		eps = append(eps, exportProbe(probes[d]))
	}
	return se.Finish(eps)
}

// mergeSlice folds one slice journal into the stream.
func mergeSlice(se *StreamExporter, sl shardnet.Slice, rg [2]int,
	uni []workItem, membership map[string][]string, dests map[string]bool) error {
	r, err := journal.OpenReader(sl.Path)
	if err != nil {
		return fmt.Errorf("core: merge slice %s: %w", sl.Path, err)
	}
	defer r.Close()
	if !bytes.Equal(r.Meta(), sl.Meta) {
		return fmt.Errorf("core: merge slice %s: journal belongs to a different run or shard layout", sl.Path)
	}
	for item := 0; ; item++ {
		data, err := r.Next()
		if errors.Is(err, io.EOF) {
			if item != rg[1] {
				return fmt.Errorf("core: merge slice %s: %d of %d results journaled — incomplete run, rerun -shards to finish it",
					sl.Path, item, rg[1])
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: merge slice %s: %w", sl.Path, err)
		}
		if item >= rg[1] {
			return fmt.Errorf("core: merge slice %s: more results than the slice's %d items", sl.Path, rg[1])
		}
		it := uni[rg[0]+item]
		res, err := decodeAppResult(data, it.app) // verifies the record key
		if err != nil {
			return fmt.Errorf("core: merge slice %s item %d: %w", sl.Path, item, err)
		}
		ea := exportApp(res, membership[it.key()])
		if err := se.App(&ea); err != nil {
			return err
		}
		for _, d := range res.Dyn.PinnedDests() {
			dests[d] = true
		}
	}
}
