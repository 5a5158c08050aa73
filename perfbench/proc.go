package main

// proc.go runs the benchmark's child processes and reads process
// counters. Every workload measures in children of this binary: a study
// that must start in a fresh process gets one, and a child's CPU time,
// peak RSS and allocations are its own, not the load generator's.
//
// The protocol on a child's stdout is two lines: "ready <info>" once the
// child's set-up is done, then one JSON result. The parent writes command
// lines to the child's stdin; closing stdin tells a serving child to stop.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type child struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	out     *bufio.Scanner
	spawned time.Time
}

// spawn starts this binary as a child running kind with arg (JSON).
func spawn(kind string, arg any) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(arg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", kind, "-arg", string(js))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s child: %w", kind, err)
	}
	c.out = bufio.NewScanner(stdout)
	c.out.Buffer(make([]byte, 1<<20), 64<<20)
	return c, nil
}

// ready waits for the child's ready line and returns the time from spawn
// to it — the child's set-up — and the line's info text.
func (c *child) ready() (time.Duration, string, error) {
	if !c.out.Scan() {
		c.kill()
		return 0, "", fmt.Errorf("child exited before ready: %v", c.wait())
	}
	setup := time.Since(c.spawned)
	info, ok := strings.CutPrefix(c.out.Text(), "ready")
	if !ok {
		c.kill()
		return 0, "", fmt.Errorf("child protocol: want ready line, got %.80q", c.out.Text())
	}
	return setup, strings.TrimSpace(info), nil
}

// await waits for the child to print want on a line of its own.
func (c *child) await(want string) error {
	if !c.out.Scan() {
		c.kill()
		return fmt.Errorf("child exited while awaiting %q: %v", want, c.wait())
	}
	if got := c.out.Text(); got != want {
		c.kill()
		return fmt.Errorf("child protocol: want %q, got %.80q", want, got)
	}
	return nil
}

func (c *child) send(line string) error {
	_, err := io.WriteString(c.stdin, line+"\n")
	return err
}

// finish closes the child's stdin, decodes its result line into out and
// waits for it to exit.
func (c *child) finish(out any) error {
	c.stdin.Close()
	var last []byte
	for c.out.Scan() {
		last = append(last[:0], c.out.Bytes()...)
	}
	if err := c.wait(); err != nil {
		return err
	}
	if last == nil {
		return errors.New("child printed no result")
	}
	return json.Unmarshal(last, out)
}

func (c *child) wait() error {
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child %v: %w", c.cmd.Args[1:3], err)
	}
	return nil
}

func (c *child) kill() {
	c.stdin.Close()
	c.cmd.Process.Kill() //nolint:errcheck // already exiting is fine
	c.cmd.Wait()         //nolint:errcheck // reaping only
}

// runChild runs a child that needs no commands: spawn, ready, result.
func runChild(kind string, arg, out any) (time.Duration, error) {
	c, err := spawn(kind, arg)
	if err != nil {
		return 0, err
	}
	setup, _, err := c.ready()
	if err != nil {
		return 0, err
	}
	return setup, c.finish(out)
}

// signalReady is the child side of ready.
func signalReady(info string) {
	fmt.Println("ready", info)
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// threadCPUSeconds is the calling thread's user+system CPU time; the
// caller must be locked to its thread.
func threadCPUSeconds() float64 {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is this process's peak resident set size, VmHWM from
// /proc/self/status. getrusage's ru_maxrss is not used: a process started
// with exec inherits its parent's high-water mark there, so a child would
// report at least the benchmark parent's size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// Runtime counters read without stopping the world.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
)

func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func allocBytes() float64 { return readMetrics(mAllocBytes)[0] }
