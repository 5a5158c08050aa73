package shardnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
)

// waitOn passes simulated time from a goroutine that holds an open
// connection: it drains (and discards) frames until the target tick,
// using Recv deadlines so the blocked end keeps participating in the
// clock warp. Returns any non-timeout connection error.
func waitOn(conn Conn, clock Clock, target int64) error {
	for {
		wait := target - clock.Now()
		if wait <= 0 {
			return nil
		}
		if _, err := conn.Recv(wait); err != nil {
			if errors.Is(err, ErrRecvTimeout) {
				return nil
			}
			return err
		}
	}
}

// fakeBench is a pure bench: the payload for (slice, item) is a fixed
// function of its coordinates, so byte-exactness of the journals is easy
// to assert and any duplicate, replay or recompute produces identical
// bytes — the same property the real study bench guarantees.
type fakeBench struct{}

func (fakeBench) RunItem(slice, item int) ([]byte, error) {
	return itemPayload(slice, item), nil
}

func itemPayload(slice, item int) []byte {
	return []byte(fmt.Sprintf("result slice=%d item=%d payload-padding", slice, item))
}

func newFakeBench(runConfig []byte) (Bench, error) {
	if string(runConfig) != "fake-run-config" {
		return nil, fmt.Errorf("bench got wrong run config %q", runConfig)
	}
	return fakeBench{}, nil
}

func readFileBytes(path string) ([]byte, error) { return os.ReadFile(path) }

// testSlices builds n slices of the given item counts under dir.
func testSlices(dir string, items ...int) []Slice {
	out := make([]Slice, 0, len(items))
	for i, n := range items {
		out = append(out, Slice{
			Path:  filepath.Join(dir, fmt.Sprintf("slice-%02d.wal", i)),
			Meta:  []byte(fmt.Sprintf("slice %d meta", i)),
			Items: n,
		})
	}
	return out
}

// verifyJournals opens every slice WAL and holds it to exactly its item
// count of frames with the exact expected payloads — the byte-level
// ground truth every chaos scenario must land on.
func verifyJournals(t *testing.T, slices []Slice) {
	t.Helper()
	for i, s := range slices {
		r, err := journal.OpenReader(s.Path)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if string(r.Meta()) != string(s.Meta) {
			t.Fatalf("slice %d: meta %q, want %q", i, r.Meta(), s.Meta)
		}
		for item := 0; ; item++ {
			data, err := r.Next()
			if errors.Is(err, io.EOF) {
				if item != s.Items {
					t.Fatalf("slice %d: %d frames, want %d", i, item, s.Items)
				}
				break
			}
			if err != nil {
				t.Fatalf("slice %d item %d: %v", i, item, err)
			}
			if !bytes.Equal(data, itemPayload(i, item)) {
				t.Fatalf("slice %d item %d: payload %q, want %q", i, item, data, itemPayload(i, item))
			}
		}
		r.Close()
	}
}

// simFleet drives one simulated-network run: a coordinator plus a fleet
// of workers in-process workers over a SimNet injecting chaos, each
// worker consulting faults.
func simFleet(slices []Slice, workers int, chaos *faultinject.NetChaos,
	faults func(slice, item int) Fault, newBench func([]byte) (Bench, error)) (*Stats, []error, error) {
	simnet := NewSimNet(chaos)
	coord, err := NewCoordinator(Config{
		Listener:    simnet.Listener(),
		Clock:       simnet,
		Slices:      slices,
		RunConfig:   []byte("fake-run-config"),
		BackoffSeed: 7,
	})
	if err != nil {
		return nil, nil, err
	}
	simnet.ExpectDials(workers)
	return RunFleet(coord, workers, func(i int) error {
		return RunWorker(simnet.Dialer(), WorkerOptions{
			Clock:       simnet,
			NewBench:    newBench,
			BackoffSeed: 7,
			Scope:       fmt.Sprintf("w%d", i),
			FaultTap:    faults,
		})
	})
}

// runSim is simFleet over the fake bench, failing the test if the run
// does not complete.
func runSim(t *testing.T, slices []Slice, workers int, chaos *faultinject.NetChaos,
	faults func(slice, item int) Fault) (*Stats, []error) {
	t.Helper()
	stats, workerErrs, err := simFleet(slices, workers, chaos, faults, newFakeBench)
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v, worker errs %v)", err, stats, workerErrs)
	}
	return stats, workerErrs
}

// killedWorkers counts the injected deaths among a fleet's outcomes.
func killedWorkers(workerErrs []error) int {
	killed := 0
	for _, e := range workerErrs {
		if errors.Is(e, ErrWorkerKilled) {
			killed++
		}
	}
	return killed
}

func TestSimRunCompletesAndJournals(t *testing.T) {
	slices := testSlices(t.TempDir(), 5, 3, 4)
	stats, workerErrs := runSim(t, slices, 2, nil, nil)
	for i, e := range workerErrs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	if stats.Granted < 3 || stats.Workers < 2 || stats.Heartbeats == 0 {
		t.Fatalf("stats = %+v, want >=3 grants, >=2 workers, heartbeats", stats)
	}
	verifyJournals(t, slices)
}

func TestSimEmptySliceCompletesWithoutGrant(t *testing.T) {
	slices := testSlices(t.TempDir(), 0, 2)
	stats, _ := runSim(t, slices, 1, nil, nil)
	verifyJournals(t, slices)
	if stats.Granted != 1 {
		t.Fatalf("Granted = %d, want 1 (the empty slice completes at open)", stats.Granted)
	}
}

func TestSimDuplicateDeliveryIsIdempotent(t *testing.T) {
	slices := testSlices(t.TempDir(), 4, 4)
	chaos := &faultinject.NetChaos{Dups: []faultinject.NetDup{{Slice: 1, Item: 2}}}
	stats, _ := runSim(t, slices, 2, chaos, nil)
	if stats.Duplicates < 1 {
		t.Fatalf("Duplicates = %d, want >= 1 (the dup fault must actually fire)", stats.Duplicates)
	}
	verifyJournals(t, slices)
}

func TestSimDropSeversConnAndRunResumes(t *testing.T) {
	slices := testSlices(t.TempDir(), 5, 5)
	chaos := &faultinject.NetChaos{Drops: []faultinject.NetDrop{{Slice: 0, Item: 2}}}
	stats, _ := runSim(t, slices, 2, chaos, nil)
	if stats.ConnDrops < 1 {
		t.Fatalf("ConnDrops = %d, want >= 1 (the drop severs the stream)", stats.ConnDrops)
	}
	if stats.Granted <= len(slices) {
		t.Fatalf("Granted = %d, want > %d (the severed slice needs a second grant)", stats.Granted, len(slices))
	}
	verifyJournals(t, slices)
}

func TestSimPartitionExpiresLeaseAndRecovers(t *testing.T) {
	slices := testSlices(t.TempDir(), 6, 6)
	chaos := &faultinject.NetChaos{Partitions: []faultinject.NetPartition{
		{Slice: 0, AfterItem: 2, Ticks: 2 * DefaultSimTTL},
	}}
	stats, _ := runSim(t, slices, 2, chaos, nil)
	if stats.Expired < 1 {
		t.Fatalf("Expired = %d, want >= 1 (heartbeat silence must expire the lease)", stats.Expired)
	}
	if stats.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1", stats.Reassigned)
	}
	verifyJournals(t, slices)
}

func TestSimDelayedFrameNeverLandsOutOfOrder(t *testing.T) {
	slices := testSlices(t.TempDir(), 6, 6)
	chaos := &faultinject.NetChaos{Delays: []faultinject.NetDelay{
		{Slice: 0, Item: 1, Ticks: 3 * DefaultSimTTL / 2},
	}}
	stats, _ := runSim(t, slices, 2, chaos, nil)
	// The late frame either reorders behind its successors (buffered) or
	// arrives after its epoch died (fenced / duplicate); whichever way the
	// race lands, the journal bytes must be exact.
	if stats.Reordered+stats.Fenced+stats.Duplicates+stats.Expired == 0 {
		t.Fatalf("stats = %+v: the delay fault left no trace", stats)
	}
	verifyJournals(t, slices)
}

func TestSimWorkerKillMidStreamResumes(t *testing.T) {
	slices := testSlices(t.TempDir(), 6, 4)
	plan := &faultinject.ShardPlan{Kills: []faultinject.ShardKill{{Slice: 0, AfterResults: 3, TornBytes: 5}}}
	stats, workerErrs := runSim(t, slices, 2, nil, PlanFaults(plan, DefaultSimTTL))
	if killed := killedWorkers(workerErrs); killed != 1 {
		t.Fatalf("killed workers = %d, want 1 (errs %v)", killed, workerErrs)
	}
	if stats.ConnDrops < 1 || stats.Reassigned < 1 {
		t.Fatalf("stats = %+v, want a conn drop and a reassignment", stats)
	}
	if stats.ResumedFrames != 3 {
		t.Fatalf("ResumedFrames = %d, want the 3 results sent before the death", stats.ResumedFrames)
	}
	verifyJournals(t, slices)
}

func TestSimFirstWorkerDiesBeforeOthersDial(t *testing.T) {
	// The first worker to connect dies on its first item while the rest
	// of the fleet has not dialed yet. The coordinator must keep waiting
	// — a fleet that has not fully arrived is not spent — and the late
	// worker takes over and completes the run.
	slices := testSlices(t.TempDir(), 3, 2)
	plan := &faultinject.ShardPlan{Kills: []faultinject.ShardKill{{Slice: 0, AfterResults: 0}}}
	faults := PlanFaults(plan, DefaultSimTTL)
	simnet := NewSimNet(nil)
	coord, err := NewCoordinator(Config{
		Listener:  simnet.Listener(),
		Clock:     simnet,
		Slices:    slices,
		RunConfig: []byte("fake-run-config"),
	})
	if err != nil {
		t.Fatal(err)
	}
	firstGone := make(chan struct{})
	stats, workerErrs, err := RunFleet(coord, 2, func(i int) error {
		if i == 0 {
			defer close(firstGone)
		} else {
			<-firstGone
		}
		return RunWorker(simnet.Dialer(), WorkerOptions{Clock: simnet, NewBench: newFakeBench, FaultTap: faults})
	})
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v, worker errs %v)", err, stats, workerErrs)
	}
	if !errors.Is(workerErrs[0], ErrWorkerKilled) || workerErrs[1] != nil {
		t.Fatalf("worker errs = %v, want the first killed and the second clean", workerErrs)
	}
	if stats.Workers != 2 || stats.Reassigned != 1 {
		t.Fatalf("stats = %+v, want 2 workers and slice 0 reassigned once", stats)
	}
	verifyJournals(t, slices)
}

func TestSimFleetSpentFailsRun(t *testing.T) {
	// Every worker of a fixed fleet dies with slices left: the run must
	// fail loudly rather than wait for a worker that will never dial.
	slices := testSlices(t.TempDir(), 4, 4)
	plan := &faultinject.ShardPlan{Kills: []faultinject.ShardKill{
		{Slice: 0, AfterResults: 1}, {Slice: 1, AfterResults: 2},
	}}
	stats, workerErrs, err := simFleet(slices, 2, nil, PlanFaults(plan, DefaultSimTTL), newFakeBench)
	if err == nil || !strings.Contains(err.Error(), "workers gone") {
		t.Fatalf("run with its whole fleet dead: %v, want workers-gone failure", err)
	}
	if killedWorkers(workerErrs) != 2 {
		t.Fatalf("worker errs = %v, want both killed", workerErrs)
	}
	if stats.ResumedFrames != 0 {
		t.Fatalf("stats = %+v: no slice should have been taken over", stats)
	}
}

// TestZombieEpochFrameIsFencedAndWALStaysIntact scripts the takeover race
// by hand: worker A holds epoch 1 of slice 0, appends one frame, then goes
// silent past the lease TTL; worker B takes over under epoch 2 and
// completes the slice; only then does A's delayed epoch-1 frame for item 1
// arrive. The coordinator must discard it through the fence — the WAL ends
// with exactly Items verified frames — and byte-identity on a resume of
// the finished journal proves no corruption slipped in.
func TestZombieEpochFrameIsFencedAndWALStaysIntact(t *testing.T) {
	slices := testSlices(t.TempDir(), 3, 1)
	simnet := NewSimNet(nil)
	coord, err := NewCoordinator(Config{
		Listener:  simnet.Listener(),
		Clock:     simnet,
		Slices:    slices,
		RunConfig: []byte("fake-run-config"),
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	scriptErr := make([]error, 2)
	aGranted := make(chan struct{})   // A holds slice 0 epoch 1
	zombieSent := make(chan struct{}) // A's stale frame is on the wire

	// Worker A: grabs the first grant (slice 0, epoch 1), sends item 0,
	// stalls past the TTL, then replays a stale epoch-1 frame for item 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(zombieSent)
		scriptErr[0] = func() error {
			conn, err := simnet.Dialer().Dial()
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.Send(Frame{Type: frameHello}); err != nil {
				return err
			}
			if f, err := conn.Recv(8 * DefaultSimTTL); err != nil || f.Type != frameWelcome {
				return fmt.Errorf("welcome: %v (type %#x)", err, f.Type)
			}
			if err := conn.Send(Frame{Type: frameReady}); err != nil {
				return err
			}
			f, err := conn.Recv(8 * DefaultSimTTL)
			if err != nil || f.Type != frameGrant {
				return fmt.Errorf("grant: %v (type %#x)", err, f.Type)
			}
			g, err := decodeGrant(f.Payload)
			if err != nil {
				return err
			}
			if g.Slice != 0 || g.Epoch != 1 || g.Start != 0 {
				return fmt.Errorf("unexpected grant %+v", g)
			}
			close(aGranted)
			if err := conn.Send(Frame{Type: frameResult, Payload: encodeResult(result{
				Slice: 0, Epoch: g.Epoch, Item: 0, Payload: itemPayload(0, 0),
			})}); err != nil {
				return err
			}
			// Silence: no heartbeats until well past the lease deadline
			// (the Fence the expiry sends is drained and ignored).
			if err := waitOn(conn, simnet, simnet.Now()+3*DefaultSimTTL); err != nil {
				return err
			}
			// The zombie wakes and replays item 1 under its dead epoch.
			return conn.Send(Frame{Type: frameResult, Payload: encodeResult(result{
				Slice: 0, Epoch: g.Epoch, Item: 1, Payload: itemPayload(0, 1),
			})})
		}()
	}()

	// Worker B: dials once A holds slice 0, works every grant it gets —
	// including the slice-0 takeover — and keeps the takeover lease alive
	// on heartbeats until A's zombie frame is on the wire, so the fence
	// (not a shutdown) is what rejects it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		scriptErr[1] = func() error {
			<-aGranted
			conn, err := simnet.Dialer().Dial()
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.Send(Frame{Type: frameHello}); err != nil {
				return err
			}
			if f, err := conn.Recv(8 * DefaultSimTTL); err != nil || f.Type != frameWelcome {
				return fmt.Errorf("welcome: %v (type %#x)", err, f.Type)
			}
			sawSliceZeroTakeover := false
			for {
				if err := conn.Send(Frame{Type: frameReady}); err != nil {
					return err
				}
				f, err := conn.Recv(DefaultSimTTL)
				if errors.Is(err, ErrRecvTimeout) {
					continue
				}
				if err != nil {
					return err
				}
				switch f.Type {
				case frameGrant:
					g, err := decodeGrant(f.Payload)
					if err != nil {
						return err
					}
					if g.Slice == 0 {
						if g.Epoch < 2 || g.Start != 1 {
							return fmt.Errorf("takeover grant %+v, want epoch >= 2 resuming at 1", g)
						}
						sawSliceZeroTakeover = true
						// Heartbeat-hold until the zombie frame exists, then
						// one more beat so the warp delivers it to the fence.
						held := false
						for !held {
							select {
							case <-zombieSent:
								held = true
							default:
							}
							if err := conn.Send(Frame{Type: frameHeartbeat,
								Payload: encodeLeaseRef(leaseRef{Slice: g.Slice, Epoch: g.Epoch})}); err != nil {
								return err
							}
							if err := waitOn(conn, simnet, simnet.Now()+DefaultSimTTL/8); err != nil {
								return err
							}
							if simnet.Now() > 100*DefaultSimTTL {
								return errors.New("zombie frame never showed up")
							}
						}
					}
					for item := g.Start; item < g.Items; item++ {
						if err := conn.Send(Frame{Type: frameResult, Payload: encodeResult(result{
							Slice: g.Slice, Epoch: g.Epoch, Item: item, Payload: itemPayload(g.Slice, item),
						})}); err != nil {
							return err
						}
					}
				case frameDone:
					if !sawSliceZeroTakeover {
						return errors.New("run finished without a slice-0 takeover")
					}
					return nil
				}
			}
		}()
	}()

	stats, err := coord.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v)", err, stats)
	}
	for i, e := range scriptErr {
		if e != nil {
			t.Fatalf("scripted worker %d: %v", i, e)
		}
	}
	if stats.Expired < 1 {
		t.Fatalf("Expired = %d, want >= 1 (A's silence must expire the lease)", stats.Expired)
	}
	if stats.Fenced < 1 {
		t.Fatalf("Fenced = %d, want >= 1 (the zombie epoch-1 frame must be refused)", stats.Fenced)
	}
	if stats.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1 (slice 0 must be re-granted after A's silence)", stats.Reassigned)
	}
	verifyJournals(t, slices)

	// Byte-identity on resume: a fresh coordinator over the same journals
	// finds every slice complete and rewrites nothing.
	before := make([][]byte, len(slices))
	for i, s := range slices {
		b, err := readFileBytes(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = b
	}
	net2 := NewSimNet(nil)
	coord2, err := NewCoordinator(Config{
		Listener:  net2.Listener(),
		Clock:     net2,
		Slices:    slices,
		RunConfig: []byte("fake-run-config"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg2 sync.WaitGroup
	wg2.Add(1)
	var werr error
	go func() {
		defer wg2.Done()
		werr = RunWorker(net2.Dialer(), WorkerOptions{Clock: net2, NewBench: newFakeBench})
	}()
	stats2, err := coord2.Run()
	wg2.Wait()
	if err != nil || werr != nil {
		t.Fatalf("resume run: coord %v, worker %v", err, werr)
	}
	if stats2.Granted != 0 {
		t.Fatalf("resume Granted = %d, want 0 (every slice already complete)", stats2.Granted)
	}
	for i, s := range slices {
		after, err := readFileBytes(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before[i], after) {
			t.Fatalf("slice %d journal changed across a no-op resume", i)
		}
	}
}

func TestBackoffJitterIsDeterministicAndBounded(t *testing.T) {
	b := NewBackoff(11, "worker/3", 4, 64)
	var prev int64 = -1
	for attempt := 0; attempt < 10; attempt++ {
		d := b.Delay(attempt)
		if d != NewBackoff(11, "worker/3", 4, 64).Delay(attempt) {
			t.Fatalf("attempt %d: delay not a pure function of (seed, scope, attempt)", attempt)
		}
		if d < 1 || d > 96 { // max 64, jitter in [0.5, 1.5)
			t.Fatalf("attempt %d: delay %d out of [1, 96]", attempt, d)
		}
		if attempt >= 6 && prev >= 0 && d > 96 {
			t.Fatalf("attempt %d: delay %d escaped the cap", attempt, d)
		}
		prev = d
	}
	if NewBackoff(11, "worker/3", 4, 64).Delay(3) == NewBackoff(11, "worker/4", 4, 64).Delay(3) &&
		NewBackoff(11, "worker/3", 4, 64).Delay(4) == NewBackoff(11, "worker/4", 4, 64).Delay(4) {
		t.Fatal("distinct scopes produced identical jitter streams")
	}
}

func TestTCPLoopbackRunWithMidStreamKill(t *testing.T) {
	slices := testSlices(t.TempDir(), 5, 4)
	ln, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const ttl = int64(2_000_000_000) // 2s in wall nanoseconds
	coord, err := NewCoordinator(Config{
		Listener:  ln,
		Clock:     WallClock(),
		Slices:    slices,
		RunConfig: []byte("fake-run-config"),
		LeaseTTL:  ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The torn wire prefix of the killed worker's frame must be rejected
	// by the framing.
	plan := &faultinject.ShardPlan{Kills: []faultinject.ShardKill{{Slice: 0, AfterResults: 2, TornBytes: 7}}}
	faults := PlanFaults(plan, ttl)
	stats, workerErrs, err := RunFleet(coord, 2, func(i int) error {
		return RunWorker(TCPDialer{Addr: ln.Addr()}, WorkerOptions{
			Clock:       WallClock(),
			NewBench:    newFakeBench,
			IdleTimeout: int64(250_000_000), // 250ms
			BackoffBase: int64(20_000_000),  // 20ms
			Scope:       fmt.Sprintf("tcp%d", i),
			FaultTap:    faults,
		})
	})
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v, worker errs %v)", err, stats, workerErrs)
	}
	if killed := killedWorkers(workerErrs); killed != 1 {
		t.Fatalf("killed workers = %d, want 1 (errs %v)", killed, workerErrs)
	}
	if stats.ConnDrops < 1 || stats.Reassigned < 1 {
		t.Fatalf("stats = %+v, want the killed conn dropped and slice 0 reassigned", stats)
	}
	verifyJournals(t, slices)
}

func TestTCPRejectsWrongMagic(t *testing.T) {
	opt := TCPOptions{HandshakeTimeout: 500 * time.Millisecond}
	ln, err := ListenTCP("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accepted <- err
	}()

	// A peer speaking the journal magic — the closest plausible confusion —
	// must be refused by the wire magic, and must not kill the listener.
	bad, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte("PINWAL1\n")); err != nil {
		t.Fatal(err)
	}
	// The listener sends its own magic, sees ours mismatch, and hangs up:
	// past its 8-byte magic the bad peer reads only EOF, never a frame.
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(wireMagic))
	if _, err := io.ReadFull(bad, got); err != nil {
		t.Fatalf("reading listener magic: %v", err)
	}
	if string(got) != wireMagic {
		t.Fatalf("listener magic = %q, want %q", got, wireMagic)
	}
	if n, err := bad.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after bad magic: read %d bytes, err %v, want EOF", n, err)
	}

	// The accept loop survived: a well-behaved dial still lands.
	if _, err := (TCPDialer{Addr: ln.Addr(), Opt: opt}).Dial(); err != nil {
		t.Fatalf("good dial after bad peer should succeed: %v", err)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("accept: %v", err)
	}
}
