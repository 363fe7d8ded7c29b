package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

// The collection seed is fixed: --seed drives the traffic, never the data.
const (
	collectionSeed = 42
	fullSize       = 1_000_000
	quickSize      = 20_000
	chunkSize      = 1000
	shards         = 4
)

// layout names the files the benchmark leaves under bench/out.
type layout struct {
	root string // repository root
	out  string // bench/out
}

func (l layout) reprodBin() string { return filepath.Join(l.out, "bin", "reprod") }
func (l layout) indexDir() string  { return filepath.Join(l.out, "index") }

// findRoot returns the repository root: the working directory when run
// from it (bench/run.sh, the driver), its parent when run from bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "reprod", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/reprod under %s or its parent: run from the repository root or from bench/", wd)
}

// buildReprod compiles the real server binary from the checkout's
// source.
func buildReprod(l layout) error {
	cmd := exec.Command("go", "build", "-o", l.reprodBin(), "./cmd/reprod")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/reprod: %v\n%s", err, out)
	}
	return nil
}

// buildTimes are the set-up stages before the server starts.
type buildTimes struct {
	generateS, indexS, saveS, indexMB float64
}

// buildIndex generates the collection, builds the sharded SR-tree index
// and saves it under l.indexDir(), replacing what an earlier run left.
func buildIndex(l layout, n int) (*repro.Collection, buildTimes, error) {
	var bt buildTimes
	t0 := time.Now()
	coll := repro.GenerateCollection(n, collectionSeed)
	bt.generateS = time.Since(t0).Seconds()

	t0 = time.Now()
	sx, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: chunkSize}, shards)
	if err != nil {
		return nil, bt, fmt.Errorf("build index: %w", err)
	}
	defer sx.Close()
	bt.indexS = time.Since(t0).Seconds()

	t0 = time.Now()
	dir := l.indexDir()
	if err := os.RemoveAll(dir); err != nil {
		return nil, bt, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, bt, err
	}
	if err := sx.Save(dir); err != nil {
		return nil, bt, fmt.Errorf("save index: %w", err)
	}
	bt.saveS = time.Since(t0).Seconds()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, bt, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bt.indexMB += float64(info.Size()) / 1e6
		}
	}
	return coll, bt, nil
}

// reprod is a running server child process.
type reprod struct {
	cmd  *exec.Cmd
	base string // http://host:port
	logs sync.WaitGroup
	mu   sync.Mutex
	out  []string // stdout lines seen so far
}

// startReprod launches the server on a free port with admission and
// deadline code on the path but sized never to shed, and returns once
// /readyz answers 200.
func startReprod(l layout, cacheBytes int64) (*reprod, error) {
	cmd := exec.Command(l.reprodBin(),
		"-addr", "127.0.0.1:0",
		"-index", "main="+l.indexDir(),
		"-cache-bytes", strconv.FormatInt(cacheBytes, 10),
		"-max-inflight", "64",
		"-default-deadline", "2s",
		"-tenant-rate", "1000000",
		"-tenant-burst", "1000000",
	)
	cmd.Stderr = os.Stderr
	// If the benchmark dies first, the kernel takes the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reprod: %w", err)
	}
	p := &reprod{cmd: cmd}
	addr := make(chan string, 1)
	exited := make(chan struct{})
	p.logs.Add(1)
	go func() {
		defer p.logs.Done()
		defer close(exited) // stdout closes when the process exits
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out = append(p.out, line)
			p.mu.Unlock()
			if i := strings.Index(line, "on http://"); i >= 0 && strings.Contains(line, "serving") {
				select {
				case addr <- strings.TrimSpace(line[i+len("on "):]):
				default:
				}
			}
		}
	}()
	select {
	case p.base = <-addr:
	case <-exited:
		p.kill()
		return nil, fmt.Errorf("reprod exited before serving; its standard error is above")
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("reprod printed no serving line within 30s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("reprod at %s never became ready: %v", p.base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *reprod) kill() {
	p.cmd.Process.Kill()
	p.logs.Wait()
	p.cmd.Wait()
}

// stop sends SIGTERM, waits for the process and returns how long the
// drain took. A server that does not report a clean shutdown, exits
// non-zero or outlives 15 s is killed and reported as an error.
func (p *reprod) stop() (drainMs float64, err error) {
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, fmt.Errorf("signal reprod: %w", err)
	}
	timer := time.AfterFunc(15*time.Second, func() { p.cmd.Process.Kill() })
	p.logs.Wait()
	werr := p.cmd.Wait()
	timer.Stop()
	drainMs = msSince(t0)
	if werr != nil {
		return drainMs, fmt.Errorf("reprod exit: %w", werr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range p.out {
		if strings.Contains(line, "shut down cleanly") {
			return drainMs, nil
		}
	}
	return drainMs, fmt.Errorf("reprod exited without reporting a clean shutdown")
}

// snapshot fetches GET /metrics.
func snapshot(base string) (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTicksPerSecond = 100

// cpuSeconds returns the user+system CPU time the process has used.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, so 11 and 12 after the ") ".
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
