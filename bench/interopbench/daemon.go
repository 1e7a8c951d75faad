package main

import (
	"bufio"
	"errors"
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
)

// target is the server a run drives: an interopd subprocess, or in tests
// an in-process serve.Server, whose pid is then the test's own.
type target struct {
	url  string
	pid  int
	stop func() error
}

// buildDaemon compiles root's ./cmd/interopd into dir and returns the
// binary's path. It runs before any timing starts.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "interopd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/interopd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build interopd: %w", err)
	}
	return bin, nil
}

// startDaemon runs bin on a free loopback port with the given flags and
// returns once /healthz answers. The daemon is sent SIGTERM if this
// process dies first; stop, which may be called more than once, drains
// it and waits for it to exit.
func startDaemon(bin string, workers int, args ...string) (*target, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-j", strconv.Itoa(workers)}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start interopd: %w", err)
	}
	// The daemon logs "interopd: serving on ADDR (workers=N)" once it
	// listens; later lines only need draining.
	addrc := make(chan string, 1)
	logged := make(chan struct{})
	go func() {
		defer close(logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "interopd: serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				break
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	t := &target{pid: cmd.Process.Pid}
	var (
		once    sync.Once
		stopErr error
	)
	t.stop = func() error {
		once.Do(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { <-logged; done <- cmd.Wait() }()
			select {
			case stopErr = <-done:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				stopErr = errors.Join(errors.New("interopd did not drain within 30s"), <-done)
			}
		})
		return stopErr
	}
	select {
	case addr := <-addrc:
		t.url = "http://" + addr
	case <-logged:
		return nil, errors.Join(errors.New("interopd exited before serving"), t.stop())
	case <-time.After(30 * time.Second):
		return nil, errors.Join(errors.New("interopd did not start within 30s"), t.stop())
	}
	if err := waitHealthy(t.url); err != nil {
		return nil, errors.Join(err, t.stop())
	}
	return t, nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz did not answer: %v", url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cpuTime is the user+system CPU time pid has used, from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, so
	// utime (14) and stime (15) are the 12th and 13th after it.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	// /proc reports CPU time in USER_HZ, which Linux fixes at 100.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// residentSet is pid's current resident set size (VmRSS) in bytes.
func residentSet(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmRSS: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// debugMetrics reads the daemon's /debug/metrics: counters by name, and
// each gauge's high-water mark as "<name>.max".
func debugMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter":
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[1]] = v
			}
		case "gauge":
			for _, kv := range f[2:] {
				if s, ok := strings.CutPrefix(kv, "max="); ok {
					if v, err := strconv.ParseFloat(s, 64); err == nil {
						out[f[1]+".max"] = v
					}
				}
			}
		}
	}
	return out, sc.Err()
}
