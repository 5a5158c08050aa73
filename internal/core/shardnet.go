package core

// shardnet.go splits a sharded study across machines: ServeShards runs
// the shardnet coordinator on a TCP listener, and ConnectShardWorker is
// the worker half. The coordinator ships each worker the run's identity
// — the journalMeta the slice journals already carry, i.e. the seed and
// parameters, never data — and the worker rebuilds the world, the crypto
// plane and its lab from that alone. A cross-machine run therefore
// leaves behind the same slice journals an in-process RunSharded leaves
// behind, and MergeShards consumes them unchanged.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pinscope/internal/appmodel"
	"pinscope/internal/faultinject"
	"pinscope/internal/pki"
	"pinscope/internal/shardnet"
	"pinscope/internal/worldgen"
)

// netRunConfig is the Welcome payload: the run identity a worker needs to
// rebuild its bench. Run is the same journalMeta every slice journal
// carries, so a worker and a journal can never disagree about what run
// they belong to.
type netRunConfig struct {
	Run        journalMeta `json:"run"`
	Shards     int         `json:"shards"`
	ColdCrypto bool        `json:"cold_crypto,omitempty"`
}

func encodeNetRunConfig(cfg Config, shards int) ([]byte, error) {
	return json.Marshal(netRunConfig{Run: metaFor(cfg), Shards: shards, ColdCrypto: cfg.ColdCrypto})
}

// benchFromRunConfig rebuilds a worker bench from the wire run config —
// the worker side of "ship the seed, not the data". The round-trip is
// verified: the rebuilt config must reproduce the shipped journalMeta
// exactly, so a journalMeta field that this decoder forgets to restore
// fails loudly instead of silently measuring a different run.
func benchFromRunConfig(raw []byte) (shardnet.Bench, error) {
	var rc netRunConfig
	if err := json.Unmarshal(raw, &rc); err != nil {
		return nil, fmt.Errorf("core: run config: %w", err)
	}
	if rc.Run.Format != journalFormatVersion {
		return nil, fmt.Errorf("core: run config format %d, this worker speaks %d", rc.Run.Format, journalFormatVersion)
	}
	if rc.Shards <= 0 {
		return nil, fmt.Errorf("core: run config has %d shards", rc.Shards)
	}
	cfg := Config{
		Params:     rc.Run.Params,
		Window:     rc.Run.Window,
		Retries:    rc.Run.Retries,
		Release:    rc.Run.Release,
		ColdCrypto: rc.ColdCrypto,
	}
	if rc.Run.FaultSeed != 0 || rc.Run.FaultRates != (faultinject.Rates{}) {
		cfg.Faults = faultinject.NewPlan(rc.Run.FaultSeed, rc.Run.FaultRates)
	}
	if got := metaFor(cfg); got != rc.Run {
		return nil, errors.New("core: run config did not round-trip; a run-identity field is not being shipped")
	}
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return nil, err
	}
	if cfg.Release != "" {
		pts, err := selectPoints(w.Timeline, []string{cfg.Release})
		if err != nil {
			return nil, fmt.Errorf("core: run config release: %w", err)
		}
		android, ios, err := w.Timeline.StoresAt(pts[0])
		if err != nil {
			return nil, fmt.Errorf("core: run config release: %w", err)
		}
		cfg.Stores = map[appmodel.Platform]*pki.RootStore{
			appmodel.Android: android,
			appmodel.IOS:     ios,
		}
	}
	uni := shardUniverse(w)
	ranges := sliceRanges(len(uni), rc.Shards)
	var plane *cryptoPlane
	if !cfg.ColdCrypto {
		if plane, err = newCryptoPlane(cfg, w); err != nil {
			return nil, err
		}
	}
	lab, err := newLab(cfg, w, plane)
	if err != nil {
		return nil, err
	}
	return &shardBench{uni: uni, ranges: ranges, lab: lab}, nil
}

// TCP-side timing: wall-clock analogues of the simulated network's
// tick-denominated lease TTL, generous enough for loopback and LAN.
const (
	tcpLeaseTTL    = 2 * time.Second
	tcpIdleTimeout = 500 * time.Millisecond
)

// listenShards is the coordinator setup of a cross-machine run: it
// validates the run, builds its slices, listens on addr and ships every
// worker the run config. It returns the listener's address.
func listenShards(cfg Config, sc ShardedConfig, addr string) (*shardnet.Coordinator, string, error) {
	r, err := newShardRun(cfg, sc)
	if err != nil {
		return nil, "", err
	}
	rc, err := encodeNetRunConfig(r.cfg, sc.Shards)
	if err != nil {
		return nil, "", err
	}
	ln, err := shardnet.ListenTCP(addr, shardnet.TCPOptions{})
	if err != nil {
		return nil, "", err
	}
	coord, err := shardnet.NewCoordinator(shardnet.Config{
		Listener:    ln,
		Clock:       shardnet.WallClock(),
		Slices:      r.slices,
		RunConfig:   rc,
		LeaseTTL:    int64(tcpLeaseTTL),
		BackoffSeed: r.cfg.Params.Seed,
	})
	if err != nil {
		ln.Close()
		return nil, "", err
	}
	return coord, ln.Addr(), nil
}

// ServeShards runs the coordinator half of a cross-machine sharded study:
// it listens on addr, ships every connecting worker the run config, and
// returns when all slices are journaled in sc.Dir (merge them with
// MergeShards). It waits for workers rather than failing when none are
// connected, so workers may be started after — or restarted during — the
// run; an interrupted serve resumes from the journals like any sharded
// run.
func ServeShards(cfg Config, sc ShardedConfig, addr string) (*ShardStats, error) {
	coord, _, err := listenShards(cfg, sc, addr)
	if err != nil {
		return nil, err
	}
	stats, err := coord.Run()
	return fleetStats(stats, nil), err
}

// tcpWorkerOptions are a cross-machine worker's options.
func tcpWorkerOptions(scope string) shardnet.WorkerOptions {
	return shardnet.WorkerOptions{
		Clock:       shardnet.WallClock(),
		NewBench:    benchFromRunConfig,
		IdleTimeout: int64(tcpIdleTimeout),
		Reconnects:  60,
		BackoffBase: int64(250 * time.Millisecond),
		Scope:       "cli/" + scope,
	}
}

// ConnectShardWorker runs the worker half of a cross-machine sharded
// study: it dials the coordinator at addr, rebuilds the world from the
// run config it is handed, and works granted slices until the coordinator
// reports the run done.
func ConnectShardWorker(addr string, scope string) error {
	return shardnet.RunWorker(shardnet.TCPDialer{Addr: addr}, tcpWorkerOptions(scope))
}
