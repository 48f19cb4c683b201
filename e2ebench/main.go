// Command e2ebench is the repository's end-to-end benchmark. It drives a
// real mcmpartd process over loopback HTTP from one client process, in a
// closed loop of two connections (each caller is a compile job waiting for
// its plan), and reports latency, throughput, plan quality, set-up time and
// memory per workload. With -trace 1 it instead replays the same requests
// in-process, timing the calls into every layer (HTTP decode and encode,
// graph decoding and fingerprinting, service admission and plan cache,
// planner, constraint solver, evaluators, policy math, search, analytic
// path) and reading the daemon's own /metrics and /v1/stats.
//
// End-to-end metrics (-trace 0). Throughput and latencies are medians over
// segments of whole rounds (at least 100 requests each):
//
//	plans_per_s          answers with a plan per second
//	latency_p50_ms/p90   client latency of every request
//	cold_p50_ms          answers with a plan that were not served from cache
//	warm_p50_ms          cached answers: in the loop on serve-corpus, from a
//	                     probe client re-sending answered requests during
//	                     the loop on the workloads without repeats
//	failed_share         requests without a plan (rejections included)
//	improvement_geomean  geometric mean of the plans' improvement over the
//	                     greedy baseline, over the distinct requests of the
//	                     prefix every run completes (a function of the seed)
//	setup_s              median over repeated set-ups of daemon start to
//	                     healthy, pre-training included on serve-rl
//	peak_rss_mb          median over one-second windows of the daemon's
//	                     peak RSS (VmHWM, reset each window)
//
// The 99th percentile needs 1000 samples, which only serve-corpus reaches;
// it is printed on the knobs line where the sample supports it.
//
// Every run checks the daemon's answers (see checker.check) and exits
// non-zero on a mismatch. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The line before
// it records the knobs and the machine.
//
// Run it through run.sh, which builds the daemon and this program first:
//
//	bash e2ebench/run.sh --workload serve-corpus --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcmpart"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	build    string
	daemon   string
	// source is the digest of the source tree under test; answer digests
	// are pinned per source so a changed program starts a fresh pin.
	source string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "serve-corpus", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 25, "least measured seconds (runs end on a round boundary)")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	flag.StringVar(&cfg.root, "root", ".", "source tree root")
	flag.StringVar(&cfg.build, "build", ".bench_build", "directory for policies, logs and answer digests")
	flag.StringVar(&cfg.daemon, "daemon", "", "mcmpartd binary")
	flag.Parse()
	if cfg.daemon == "" || cfg.seconds < 1 || cfg.seed < 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: need -daemon, -seconds >= 1 and -seed >= 0")
		return 2
	}

	cfg.source = sourceDigest(cfg.root)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer stopAll()

	var (
		res    *result
		report map[string]any
		err    error
	)
	if cfg.trace == 1 {
		res, report, err = runTraced(ctx, cfg)
	} else {
		res, report, err = runTimed(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	report["knobs"] = knobs(cfg)
	line, _ := json.Marshal(report)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// knobs records the machine and the settings a result was measured under.
func knobs(cfg config) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"conns":         conns,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": cfg.source,
	}
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", rel)
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pretrainOptions is the fixed pre-training run of workloads with a policy.
var pretrainOptions = mcmpart.PretrainOptions{TotalSamples: 400, Seed: 1}

// startServing brings one daemon up for w: pre-training and saving the
// policy first when the workload needs one. It returns the daemon, the
// policy path ("" without one) and the seconds from the start of set-up
// to the daemon answering /healthz.
func startServing(ctx context.Context, cfg config, w *workload) (*daemon, string, float64, error) {
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	args := []string{"-mcm", w.pkgName}
	policyPath := ""
	if len(w.policyGraphs) > 0 {
		pl, err := mcmpart.NewPlanner(w.pkg)
		if err != nil {
			return nil, "", 0, err
		}
		if _, err := pl.Pretrain(ctx, w.policyGraphs, pretrainOptions); err != nil {
			return nil, "", 0, fmt.Errorf("pre-training: %w", err)
		}
		policyPath = filepath.Join(cfg.build, w.name+".policy.json")
		if err := pl.SavePolicy(policyPath); err != nil {
			return nil, "", 0, err
		}
		args = append(args, "-policy", policyPath)
	}
	d, _, err := startDaemon(ctx, cfg.daemon, args, filepath.Join(cfg.build, w.name+".daemon.log"))
	if err != nil {
		return nil, "", 0, err
	}
	return d, policyPath, time.Since(start).Seconds(), nil
}

// checkingPlanner is the in-process planner the output check compares
// against, with the daemon's policy installed.
func checkingPlanner(w *workload, policyPath string) (*mcmpart.Planner, error) {
	pl, err := mcmpart.NewPlanner(w.pkg)
	if err != nil {
		return nil, err
	}
	if policyPath != "" {
		if err := pl.LoadPolicy(policyPath); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

func allPositions(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// setupReps is how many times a timed run sets the daemon up; setup_s is
// the median. Pre-training dominates when there is a policy and varies
// little, so fewer repetitions suffice there.
func setupReps(w *workload) int {
	if len(w.policyGraphs) > 0 {
		return 3
	}
	return 9
}

const requestTimeout = 60 * time.Second

// probeEvery spaces the workload's warm probes over the loop's least
// duration (0: no probe).
func probeEvery(w *workload, seconds int) time.Duration {
	if w.warmProbes == 0 {
		return 0
	}
	return time.Duration(seconds) * time.Second / time.Duration(w.warmProbes)
}

// conns is the closed loop's client count: one caller per CPU of the
// two-CPU machine the benchmark was defined on, each a compile job waiting
// for its plan.
const conns = 2

// runTimed measures the end-to-end metrics with no tracing.
func runTimed(ctx context.Context, cfg config) (*result, map[string]any, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	var (
		d          *daemon
		policyPath string
		setups     []float64
	)
	for rep := setupReps(w); rep > 0; rep-- {
		dd, pp, secs, err := startServing(ctx, cfg, w)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
		if rep > 1 {
			dd.stop()
			continue
		}
		d, policyPath = dd, pp
	}

	steal0, total0 := cpuSteal()
	stopRSS := make(chan struct{})
	var (
		peaks  []float64
		rssErr error
		rssWG  sync.WaitGroup
	)
	rssWG.Add(1)
	go func() {
		defer rssWG.Done()
		peaks, rssErr = d.windowPeaks(stopRSS, time.Second)
	}()
	outs, probe, wall := runLoop(ctx, w, loopConfig{
		base: d.base, conns: conns, positions: allPositions(len(w.stream)),
		minDur: time.Duration(cfg.seconds) * time.Second, minSent: max(w.qualitySet(), segmentLen(w)), round: w.round,
		timeout: requestTimeout, probeEvery: probeEvery(w, cfg.seconds),
	})
	steal1, total1 := cpuSteal()
	close(stopRSS)
	rssWG.Wait()
	if rssErr != nil {
		return nil, nil, fmt.Errorf("sampling the daemon's peak RSS: %w", rssErr)
	}
	if len(outs) < w.qualitySet() {
		return nil, nil, fmt.Errorf("stopped after %d of the %d requests every run must send", len(outs), w.qualitySet())
	}
	st, err := stats(d.base)
	if err != nil {
		return nil, nil, err
	}
	d.stop()
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}

	pl, err := checkingPlanner(w, policyPath)
	if err != nil {
		return nil, nil, err
	}
	c := newChecker(w, pl)
	vs := make([]verdict, len(outs))
	var imps []float64
	ok, rejected := 0, 0
	seenKey := make(map[int]bool)
	for i, o := range outs {
		v := c.check(ctx, o)
		vs[i] = v
		if v.ok {
			ok++
			key := w.stream[o.pos].Key
			if o.pos < w.qualitySet() && !seenKey[key] {
				seenKey[key] = true
				imps = append(imps, v.result.Improvement)
			}
		}
		if v.rejected {
			rejected++
		}
	}
	var probeWarm []float64
	for _, o := range probe {
		if v := c.check(ctx, o); v.ok && v.cached {
			probeWarm = append(probeWarm, float64(o.lat)/1e6)
		}
	}
	digest, err := answerDigest(outs, w.qualitySet())
	if err == nil {
		err = pinDigest(filepath.Join(cfg.build, "digests"), cfg, w.qualitySet(), digest)
	}
	if err != nil {
		c.fail("%v", err)
	}

	figs, err := segmentFigures(outs, vs, segmentLen(w), w.warmProbes == 0)
	if err != nil {
		return nil, nil, err
	}
	if w.warmProbes > 0 {
		v, ok := percentile(probeWarm, 0.5)
		if !ok {
			return nil, nil, fmt.Errorf("%d warm probe answers are too few for a median", len(probeWarm))
		}
		figs.warmP50 = v
	}
	res := &result{
		Correct:   len(c.problems) == 0,
		Attempted: len(outs) + len(probe),
		Failed:    c.unexpected,
		Metrics: map[string]metric{
			"plans_per_s":         {figs.plansPerS, "1/s"},
			"latency_p50_ms":      {figs.p50, "ms"},
			"latency_p90_ms":      {figs.p90, "ms"},
			"cold_p50_ms":         {figs.coldP50, "ms"},
			"warm_p50_ms":         {figs.warmP50, "ms"},
			"failed_share":        {float64(len(outs)-ok) / float64(len(outs)), "ratio"},
			"improvement_geomean": {geomean(imps), "ratio"},
			"setup_s":             {median(setups), "s"},
			"peak_rss_mb":         {median(peaks), "MiB"},
		},
	}
	if err := finite(res.Metrics); err != nil {
		return nil, nil, err
	}
	report := map[string]any{
		"requests": map[string]int{
			"loop": len(outs), "succeeded": ok, "rejected": rejected, "unexpected": c.unexpected,
			"warm_probe": len(probe), "warm_probe_cached": len(probeWarm), "quality_plans": len(imps),
			"segments": figs.segments, "segment_len": segmentLen(w),
		},
		"loop_seconds":        wall.Seconds(),
		"steal_share":         ratio(float64(steal1-steal0), float64(total1-total0)),
		"peak_rss_windows_mb": peaks,
		"setup_seconds":       setups,
		"observed_hit_share":  ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)),
		"plans_executed":      st.PlansExecuted,
		"plans_coalesced":     st.PlansCoalesced,
		"jobs_shed":           st.JobsShed,
		"answer_digest":       digest,
		"daemon_args":         d.args,
		"package":             w.pkgName,
		"problems":            c.problems,
		"latency_p99_ms":      nil,
		"request_digest":      w.streamDigest(w.qualitySet()),
	}
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = float64(o.lat) / 1e6
	}
	if p99, ok := percentile(lat, 0.99); ok {
		report["latency_p99_ms"] = p99 // pooled over the run; supported on serve-corpus only
	}
	return res, report, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite rejects NaN and infinities before they reach the JSON encoder.
func finite(m map[string]metric) error {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return errors.New("metric " + k + " is not finite")
		}
	}
	return nil
}
