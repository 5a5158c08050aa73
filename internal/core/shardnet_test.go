package core

import (
	"bytes"
	"strconv"
	"testing"

	"pinscope/internal/faultinject"
	"pinscope/internal/shardnet"
)

func TestShardNetTCPMergesByteIdentical(t *testing.T) {
	// The cross-machine path over real loopback TCP: the coordinator
	// ServeShards runs, workers that rebuild their bench from the shipped
	// run config, every frame crossing a socket, and a killed worker
	// leaving a torn wire frame the receiver's framing must reject. The
	// merge still matches the single-process bytes.
	cfg := microCfg(71)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	plan := &faultinject.ShardPlan{Kills: []faultinject.ShardKill{{Slice: 1, AfterResults: 1, TornBytes: 5}}}
	sc := ShardedConfig{Shards: 2, Dir: t.TempDir()}
	coord, addr, err := listenShards(shardedCfg, sc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := shardnet.PlanFaults(plan, int64(tcpLeaseTTL))
	stats, errs, err := shardnet.RunFleet(coord, 2, func(i int) error {
		opt := tcpWorkerOptions("test/" + strconv.Itoa(i))
		opt.FaultTap = faults
		return shardnet.RunWorker(shardnet.TCPDialer{Addr: addr}, opt)
	})
	if err != nil {
		t.Fatalf("TCP sharded run: %v (stats %+v)", err, stats)
	}
	var buf bytes.Buffer
	if err := MergeShards(&buf, shardedCfg, sc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), single) {
		t.Fatalf("TCP sharded merge diverges from single-process export (%d vs %d bytes)",
			buf.Len(), len(single))
	}
	if got := fleetStats(stats, errs); got.WorkersKilled != 1 || got.Slices != 2 || got.Granted < 3 {
		t.Fatalf("stats %+v: want 1 worker killed, 2 slices, and the killed slice granted again", got)
	}
}
