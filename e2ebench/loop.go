package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// outcome is one request as the client saw it.
type outcome struct {
	pos    int           // stream position
	start  time.Duration // send time since the loop began
	lat    time.Duration // send to last response byte
	status int           // HTTP status; 0 on a transport error or timeout
	body   []byte
	err    error
}

// loopConfig drives a closed loop: conns clients, each sending its next
// request only after the previous answer arrived.
type loopConfig struct {
	base  string
	conns int
	// positions are the stream positions to send, in order.
	positions []int
	// minDur, when positive, stops the loop at the first multiple of round
	// (counted in positions sent) at or after minSent once minDur has
	// elapsed. Zero sends every position.
	minDur  time.Duration
	minSent int
	round   int
	timeout time.Duration
	// probeEvery, when positive, adds a probe client that re-sends an
	// answered plan request at this interval while the loop runs: a repeat
	// compile job arriving at a busy daemon. It takes the graphs in a fixed
	// cycle, each time the latest request for the graph that got a plan, so
	// every run probes the same graphs.
	probeEvery time.Duration
}

// runLoop sends the configured requests and returns their outcomes in
// sending order, the probe client's outcomes, and the loop's wall time
// (first send to last answer).
func runLoop(ctx context.Context, w *workload, cfg loopConfig) ([]outcome, []outcome, time.Duration) {
	var (
		mu     sync.Mutex
		next   int
		stop   bool
		lastOK = make([]int, len(w.graphs)) // per graph, the position of its latest 200 answer; guarded by mu
		outs   = make([]outcome, len(cfg.positions))
	)
	for g := range lastOK {
		lastOK[g] = -1
	}
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop || next >= len(cfg.positions) || ctx.Err() != nil {
			return 0, false
		}
		if cfg.minDur > 0 && next >= cfg.minSent && next%cfg.round == 0 && time.Since(start) >= cfg.minDur {
			stop = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   cfg.timeout,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			var buf []byte
			for {
				i, ok := take()
				if !ok {
					return
				}
				pos := cfg.positions[i]
				buf = w.body(buf[:0], w.stream[pos])
				outs[i] = send(ctx, client, cfg.base, buf, start)
				outs[i].pos = pos
				if outs[i].status == http.StatusOK {
					mu.Lock()
					lastOK[w.stream[pos].Graph] = pos
					mu.Unlock()
				}
			}
		}()
	}
	var probes []outcome
	loopDone := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		if cfg.probeEvery <= 0 {
			return
		}
		client := &http.Client{Timeout: cfg.timeout}
		defer client.CloseIdleConnections()
		tick := time.NewTicker(cfg.probeEvery)
		defer tick.Stop()
		var buf []byte
		cursor := 0 // the graph the probe cycle takes next
		for {
			select {
			case <-loopDone:
				return
			case <-tick.C:
			}
			pos := -1
			mu.Lock()
			for tries := 0; tries < len(lastOK) && pos < 0; tries++ {
				pos = lastOK[cursor]
				cursor = (cursor + 1) % len(lastOK)
			}
			mu.Unlock()
			if pos < 0 {
				continue
			}
			buf = w.body(buf[:0], w.stream[pos])
			o := send(ctx, client, cfg.base, buf, start)
			o.pos = pos
			probes = append(probes, o)
		}
	}()
	wg.Wait()
	close(loopDone)
	<-probeDone
	mu.Lock()
	n := next
	mu.Unlock()
	outs = outs[:n]
	wall := time.Duration(0)
	for _, o := range outs {
		if end := o.start + o.lat; end > wall {
			wall = end
		}
	}
	return outs, probes, wall
}

func send(ctx context.Context, client *http.Client, base string, body []byte, epoch time.Time) outcome {
	t0 := time.Now()
	o := outcome{start: t0.Sub(epoch)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err == nil {
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			o.status = resp.StatusCode
		}
	}
	o.err = err
	o.lat = time.Since(t0)
	return o
}
