package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcmpart"
)

// daemon is one running mcmpartd process.
type daemon struct {
	cmd  *exec.Cmd
	args []string
	base string // http://host:port
	done chan struct{}
}

// running tracks every started daemon so an interrupted benchmark can stop
// them all before it exits.
var running struct {
	sync.Mutex
	set map[*daemon]bool
}

var servingLine = regexp.MustCompile(`serving package .* on (\S+) \(policy`)

// startDaemon launches bin with args plus a loopback listen address, waits
// until GET /healthz answers 200, and returns the daemon with the time from
// process start to healthy. The daemon's log goes to logPath.
func startDaemon(ctx context.Context, bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	d := &daemon{cmd: exec.Command(bin, args...), args: args, done: make(chan struct{})}
	d.cmd.Stdout = logf
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	running.Lock()
	if running.set == nil {
		running.set = make(map[*daemon]bool)
	}
	running.set[d] = true
	running.Unlock()
	// The log is copied until the daemon closes stderr on exit; the bound
	// address is taken from its start-up line.
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Bytes()
			if m := servingLine.FindSubmatch(line); m != nil && !found {
				found = true
				addr <- string(m[1])
			}
			_, _ = logf.Write(append(line, '\n'))
		}
		_, _ = io.Copy(logf, stderr) // drain past an over-long line so the daemon never blocks on stderr
		_ = d.cmd.Wait()             // the exit status of a stopped daemon carries no information
	}()

	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-d.done:
		return nil, 0, fmt.Errorf("mcmpartd exited during start-up; log:\n%s", readFile(logPath))
	case <-ctx.Done():
		d.stop()
		return nil, 0, ctx.Err()
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("mcmpartd did not report its address within 60s; log:\n%s", readFile(logPath))
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for attempt := 0; ; attempt++ {
		if resp, err := client.Get(base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.base = base
				return d, time.Since(start), nil
			}
		}
		if attempt == 1000 || ctx.Err() != nil {
			d.stop()
			return nil, 0, fmt.Errorf("mcmpartd at %s not healthy; log:\n%s", base, readFile(logPath))
		}
		time.Sleep(time.Millisecond)
	}
}

func readFile(path string) []byte {
	b, _ := os.ReadFile(path) // a missing log reads as empty
	return b
}

// stop ends the daemon (SIGTERM, then SIGKILL after 10 s) and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	running.Lock()
	delete(running.set, d)
	running.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS restarts the daemon's VmHWM from its current RSS.
func (d *daemon) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// windowPeaks records the daemon's peak RSS once per window until stop is
// closed, resetting the peak after each reading, and returns the per-window
// peaks in MiB, the last (partial) window included.
func (d *daemon) windowPeaks(stop <-chan struct{}, window time.Duration) ([]float64, error) {
	if err := d.resetPeakRSS(); err != nil {
		return nil, err
	}
	tick := time.NewTicker(window)
	defer tick.Stop()
	var peaks []float64
	for {
		stopped := false
		select {
		case <-stop:
			stopped = true
		case <-tick.C:
		}
		mb, err := d.peakRSSMB()
		if stopped {
			return append(peaks, mb), err
		}
		if err == nil {
			err = d.resetPeakRSS()
		}
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, mb)
	}
}

// stats reads GET /v1/stats.
func stats(base string) (mcmpart.ServiceStats, error) {
	var s mcmpart.ServiceStats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// scrapeMetrics reads GET /metrics into a map from the series name with its
// labels, exactly as exposed (`name{label="v"}`), to the sample value.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing metric line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
