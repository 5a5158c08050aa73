package main

// probe.go measures how fast the host is at the moment. On a shared host
// the same operation takes 20-30% more CPU and wall time in one window
// than in another a few minutes later, whatever the program does, and a
// run-to-run spread that wide hides any regression worth catching. So
// each run times a fixed piece of work, the probe, just before and just
// after each of its measured operations, and the time-based end-to-end
// metrics are reported at a reference host speed: each operation's time
// is scaled by the reference probe time over the mean of the two probes
// around it.
//
// The probe is this package's own code over the standard library, so a
// change to pinscope does not change it. It has two parts. The compute
// part follows a mini study's CPU profile: P-256 arithmetic, allocation
// and garbage collection over a live heap, goroutine hand-offs over
// channels, hashing and JSON; it scales the studies' times and the
// server's reloads and set-ups. The loopback part is round trips over a
// loopback TCP connection, where a served lookup spends most of its CPU;
// it scales the server's CPU per lookup. The probe runs in the
// benchmark's parent process, whose heap is small and the same in every
// run, and never while a measured operation runs.

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// The reference probe: the compute part's wall and CPU time and the
// loopback part's wall time, about what they take on a 2-vCPU Xeon VM. A
// figure at reference speed reads as what the run would have measured on
// a host where the probe takes this long.
const (
	probeRefWall = 0.120
	probeRefCPU  = 0.125
	probeRefLoop = 0.020
	// loopbackTrips is how many round trips the loopback part makes.
	loopbackTrips = 1500
)

// The probe's signature, made on first use so that child processes,
// which never probe, do not pay for it at start-up.
var (
	probeOnce    sync.Once
	probeInitErr error
	probeKey     *ecdsa.PublicKey
	probeSig     []byte
	probeDigest  []byte
)

func probeInit() {
	k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		probeInitErr = err
		return
	}
	d := sha256.Sum256([]byte("pinbench probe"))
	sig, err := ecdsa.SignASN1(rand.Reader, k, d[:])
	if err != nil {
		probeInitErr = err
		return
	}
	probeKey, probeSig, probeDigest = &k.PublicKey, sig, d[:]
}

type probeNode struct {
	key   string
	next  *probeNode
	peers []*probeNode
	body  []byte
}

// probeSink keeps the probe's results alive so the compiler cannot drop
// the work.
var probeSink int

// probeParts are the compute part's pieces, in the order they run. The
// collector is off during the probe and runs only where the probe calls
// runtime.GC, so every probe does the same collections over the same
// live heap.
var probeParts = []struct {
	name string
	fn   func(*probeState)
}{
	// P-256 verification: the studies' chain checks and forging.
	{"p256", func(*probeState) {
		for i := 0; i < 400; i++ {
			if !ecdsa.VerifyASN1(probeKey, probeDigest, probeSig) {
				panic("probe: signature did not verify")
			}
		}
	}},
	// A live heap of small pointerful objects in a map, churn beside it,
	// and a full collection that marks it.
	{"heap", func(st *probeState) {
		live := make(map[string]*probeNode, 1<<15)
		var prev *probeNode
		for i := 0; i < 1<<15; i++ {
			n := &probeNode{key: "app-" + strconv.Itoa(i), next: prev, body: make([]byte, 48)}
			if prev != nil {
				n.peers = append(n.peers, prev, live["app-"+strconv.Itoa(i/2)])
			}
			live[n.key] = n
			prev = n
		}
		for i := 0; i < 1<<16; i++ {
			n := &probeNode{key: strconv.Itoa(i), body: make([]byte, 64+i%64)}
			n.next = live["app-"+strconv.Itoa(i%(1<<15))]
			probeSink += len(n.body)
		}
		runtime.GC()
		st.live = live
	}},
	// Hand-offs between two goroutines, as the emulated network's pipes.
	{"chan", func(*probeState) {
		ping, pong := make(chan int), make(chan int)
		go func() {
			for v := range ping {
				pong <- v + 1
			}
			close(pong)
		}()
		for i := 0; i < 20000; i++ {
			ping <- i
			probeSink += <-pong
		}
		close(ping)
		<-pong
	}},
	// Hashing and JSON encoding, as the exports and fingerprints.
	{"hash+json", func(*probeState) {
		buf := make([]byte, 1<<20)
		for i := 0; i < 4; i++ {
			a, b := sha256.Sum256(buf), sha512.Sum512(buf)
			probeSink += int(a[0]) + int(b[0])
		}
		rows := make([]map[string]any, 0, 6000)
		for i := 0; i < 6000; i++ {
			rows = append(rows, map[string]any{"id": i, "name": fmt.Sprintf("com.example.app%d", i), "pinned": i%3 == 0})
		}
		js, err := json.Marshal(rows)
		if err != nil {
			panic(err)
		}
		probeSink += len(js)
	}},
}

type probeState struct {
	live map[string]*probeNode
}

// loopbackRoundTrips echoes n small messages over a loopback connection,
// as a lookup's socket reads and writes and the wake-ups between them.
func loopbackRoundTrips(n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	msg, buf := make([]byte, 512), make([]byte, 512)
	for i := 0; i < n; i++ {
		if _, err := c.Write(msg); err != nil {
			c.Close()
			return err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			c.Close()
			return err
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	return <-echoed
}

// probeWork runs every piece of the compute part once and returns each
// one's wall time.
func probeWork() []float64 {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var st probeState
	out := make([]float64, len(probeParts))
	for i, p := range probeParts {
		t0 := time.Now()
		p.fn(&st)
		out[i] = time.Since(t0).Seconds()
	}
	probeSink += len(st.live)
	st.live = nil
	runtime.GC()
	return out
}

// prober collects a run's probe points.
type prober struct {
	wall, cpu []float64   // the compute part
	loop      []float64   // the loopback part
	parts     [][]float64 // per point, each compute piece's wall time
	// err is the first failure to probe; a run with one reports it and
	// no figures. Later points are skipped.
	err error
}

// point times one probe, records it and returns its index.
func (p *prober) point() int {
	if probeOnce.Do(probeInit); probeInitErr != nil && p.err == nil {
		p.err = fmt.Errorf("host probe: %w", probeInitErr)
	}
	if p.err != nil {
		return len(p.wall)
	}
	c0, t0 := cpuSeconds(), time.Now()
	parts := probeWork()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	t1 := time.Now()
	if err := loopbackRoundTrips(loopbackTrips); err != nil {
		p.err = fmt.Errorf("host probe: %w", err)
		return len(p.wall)
	}
	p.wall, p.cpu = append(p.wall, wall), append(p.cpu, cpu)
	p.loop, p.parts = append(p.loop, time.Since(t1).Seconds()), append(p.parts, parts)
	return len(p.wall) - 1
}

// wallScale, cpuScale and loopScale turn a time measured between points k
// and k+1 into the time it would have taken at the reference speed: a
// wall or CPU time by the compute part, a lookup's CPU by the loopback
// part.
func (p *prober) wallScale(k int) float64 { return probeRefWall / p.around(p.wall, k) }
func (p *prober) cpuScale(k int) float64  { return probeRefCPU / p.around(p.cpu, k) }
func (p *prober) loopScale(k int) float64 { return probeRefLoop / p.around(p.loop, k) }

// around is the mean of points k and k+1, or point k if it is the last.
func (p *prober) around(xs []float64, k int) float64 {
	if k+1 < len(xs) {
		return (xs[k] + xs[k+1]) / 2
	}
	return xs[k]
}

// save puts the probe points in the run's record.
func (p *prober) save(r *run) {
	r.rec.Samples["probe_wall_s"], r.rec.Samples["probe_cpu_s"] = p.wall, p.cpu
	r.rec.Samples["probe_loopback_s"] = p.loop
	for j, part := range probeParts {
		v := make([]float64, len(p.parts))
		for i, pt := range p.parts {
			v[i] = pt[j]
		}
		r.rec.Samples["probe_"+part.name+"_s"] = v
	}
}

// note says how the run's host compared with the reference.
func (p *prober) note() string {
	return fmt.Sprintf("at reference host speed: probe median %.1fms wall, %.1fms CPU, %.1fms loopback over %d points (reference %.0f, %.0f, %.0f)",
		1e3*median(p.wall), 1e3*median(p.cpu), 1e3*median(p.loop), len(p.wall), 1e3*probeRefWall, 1e3*probeRefCPU, 1e3*probeRefLoop)
}
