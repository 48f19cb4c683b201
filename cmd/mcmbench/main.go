// Command mcmbench measures the worker-pool speedups of the repository's
// hot paths and writes them to a JSON file, so the performance trajectory
// is tracked over time (the committed BENCH_PR*.json files are earlier
// points; CI uploads the current mcmbench.json as an artifact).
//
// Usage:
//
//	mcmbench [-out mcmbench.json] [-workers N] [-iters N]
//
// Besides the worker-pool speedups, the report carries a transfer
// benchmark — the samples each deployment mode (RL from scratch, zero-shot,
// fine-tuning) needs to reach a fixed improvement on a held-out dev8
// graph after one shared pre-training run, the paper's sample-efficiency
// claim (Sec. 5.2/5.3) tracked PR over PR — and a service benchmark: the
// latency of a cold plan vs its cached repeat through mcmpart.Service
// (asserting bit-identical results) and the concurrent throughput of the
// async job API. A resilience block measures the fault-tolerant serving
// core: an N-way identical cold burst with single-flight coalescing vs
// without (same wall-clock question a thundering herd asks), and the
// latency of a warm restart served from the persistent disk cache tier.
// A scale block times the analytic fast-path partitioner (internal/analyze)
// on 1k/10k/100k-node generated graphs against evaluator-driven search,
// recording each plan's gap above its sound cost lower bound and the
// samples search needs to match analytic quality with and without
// SeedFromAnalytic.
//
// Each benchmark runs the same seeded computation twice — once at
// workers=1 and once at workers=N — reporting wall-clock for both, the
// speedup, and whether the two runs produced identical outputs (they must:
// the parallel engine's determinism contract says worker count changes
// wall-clock only; see DESIGN.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mcmpart"
	"mcmpart/internal/analyze"
	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/experiments"
	"mcmpart/internal/mat"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// Bench is one measured hot path.
type Bench struct {
	Name string `json:"name"`
	// SerialMs and ParallelMs are wall-clock per run at workers=1 and
	// workers=N respectively.
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// OutputsIdentical reports whether both runs produced bit-identical
	// results — the determinism contract, checked, not assumed.
	OutputsIdentical bool `json:"outputs_identical"`
}

// TransferBench reports the sample cost of reaching a fixed improvement
// threshold on a held-out graph per deployment mode (0 = not reached
// within the budget).
type TransferBench struct {
	Package         string  `json:"package"`
	Graph           string  `json:"graph"`
	Threshold       float64 `json:"threshold"`
	Budget          int     `json:"budget"`
	PretrainSamples int     `json:"pretrain_samples"`
	SamplesScratch  int     `json:"samples_scratch"`
	SamplesZeroShot int     `json:"samples_zeroshot"`
	SamplesFineTune int     `json:"samples_finetune"`
}

// ServiceBench reports the service layer's cold-vs-cached plan latency and
// its concurrent throughput through the async job API.
type ServiceBench struct {
	Package string `json:"package"`
	Graph   string `json:"graph"`
	// ColdMs is the latency of the first (cache-miss) plan; CachedMs the
	// latency of the identical repeat served from the plan cache.
	ColdMs   float64 `json:"cold_ms"`
	CachedMs float64 `json:"cached_ms"`
	Speedup  float64 `json:"speedup"`
	// CachedIdentical reports that the cached result was bit-identical to
	// the cold plan — the cache contract, checked.
	CachedIdentical bool `json:"cached_identical"`
	// Concurrent throughput: Requests distinct plans pushed through
	// Submit on PoolWorkers workers.
	Requests      int     `json:"requests"`
	PoolWorkers   int     `json:"pool_workers"`
	ConcurrentMs  float64 `json:"concurrent_ms"`
	PlansPerSec   float64 `json:"plans_per_sec"`
	CacheHitsSeen uint64  `json:"cache_hits_seen"`
}

// ResilienceBench reports the serving core's fault-tolerance economics:
// what single-flight coalescing saves on an identical-request burst, and
// what the persistent cache tier saves on a daemon restart.
type ResilienceBench struct {
	Package string `json:"package"`
	Graph   string `json:"graph"`
	// Burst: Requests identical cold plans submitted concurrently, with
	// coalescing (one planner invocation, PlansExecuted pinned in the
	// report) and without (every request plans).
	Requests               int     `json:"requests"`
	CoalescedMs            float64 `json:"coalesced_ms"`
	CoalescedPlansExecuted uint64  `json:"coalesced_plans_executed"`
	UncoalescedMs          float64 `json:"uncoalesced_ms"`
	CoalescingSpeedup      float64 `json:"coalescing_speedup"`
	BurstIdentical         bool    `json:"burst_identical"`
	// Warm restart: the same plan cold, then through a fresh service over
	// the same persistent cache directory.
	RestartColdMs    float64 `json:"restart_cold_ms"`
	RestartDiskHitMs float64 `json:"restart_disk_hit_ms"`
	RestartSpeedup   float64 `json:"restart_speedup"`
	RestartIdentical bool    `json:"restart_identical"`
	RestartDiskHits  uint64  `json:"restart_disk_hits"`
}

// Report is the emitted JSON document.
type Report struct {
	CPUs       int              `json:"cpus"`
	Workers    int              `json:"workers"`
	Benches    []Bench          `json:"benchmarks"`
	Transfer   *TransferBench   `json:"transfer,omitempty"`
	Service    *ServiceBench    `json:"service,omitempty"`
	Resilience *ResilienceBench `json:"resilience,omitempty"`
	// Scale is the analytic fast path's scaling block: plan time and bound
	// gap at 1k/10k/100k nodes, vs evaluator-driven search on the same
	// graphs.
	Scale []ScaleCase `json:"scale,omitempty"`
}

func main() {
	out := flag.String("out", "mcmbench.json", "output JSON path")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel worker count to benchmark against workers=1")
	iters := flag.Int("iters", 3, "timed repetitions per configuration (best is kept)")
	flag.Parse()

	rep := Report{CPUs: runtime.NumCPU(), Workers: *workers}
	rep.Benches = append(rep.Benches,
		benchMatMul(*workers, *iters),
		benchRollouts(*workers, *iters),
		benchFig7(*workers, *iters),
		benchTable1(*workers, *iters),
	)
	rep.Transfer = benchTransfer()
	rep.Service = benchService(*workers)
	rep.Resilience = benchResilience(*workers)
	rep.Scale = benchScale()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	for _, b := range rep.Benches {
		fmt.Printf("%-18s serial %8.1f ms   workers=%d %8.1f ms   speedup %.2fx   identical=%v\n",
			b.Name, b.SerialMs, *workers, b.ParallelMs, b.Speedup, b.OutputsIdentical)
	}
	t := rep.Transfer
	fmt.Printf("transfer %s/%s: samples to %.2fx — scratch %d, zero-shot %d, fine-tune %d (0 = not reached in %d)\n",
		t.Package, t.Graph, t.Threshold, t.SamplesScratch, t.SamplesZeroShot, t.SamplesFineTune, t.Budget)
	sv := rep.Service
	fmt.Printf("service %s/%s: cold %.1f ms, cached %.3f ms (%.0fx, identical=%v); %d concurrent plans on %d workers: %.1f ms (%.1f plans/s, %d cache hits)\n",
		sv.Package, sv.Graph, sv.ColdMs, sv.CachedMs, sv.Speedup, sv.CachedIdentical,
		sv.Requests, sv.PoolWorkers, sv.ConcurrentMs, sv.PlansPerSec, sv.CacheHitsSeen)
	rs := rep.Resilience
	fmt.Printf("resilience %s/%s: %d-way cold burst coalesced %.1f ms (%d plans executed) vs uncoalesced %.1f ms (%.1fx, identical=%v); warm restart %.3f ms vs cold %.1f ms (%.0fx, identical=%v)\n",
		rs.Package, rs.Graph, rs.Requests, rs.CoalescedMs, rs.CoalescedPlansExecuted,
		rs.UncoalescedMs, rs.CoalescingSpeedup, rs.BurstIdentical,
		rs.RestartDiskHitMs, rs.RestartColdMs, rs.RestartSpeedup, rs.RestartIdentical)
	for _, sc := range rep.Scale {
		fmt.Printf("scale %s/%dk nodes: generate %.0f ms, analytic plan %.1f ms (%d chips, %.1f%% above lower bound); random search budget %d: %.1f ms, samples to analytic quality seeded %d vs unseeded %d (0 = never)\n",
			sc.Package, sc.Nodes/1000, sc.GenerateMs, sc.AnalyticMs, sc.ChipsUsed, sc.BoundGapPct,
			sc.SearchBudget, sc.SearchMs, sc.SeededSamples, sc.UnseededSamples)
	}
	fmt.Println("wrote", *out)
}

// measure times fn at the given default worker count, keeping the best of
// iters runs, and returns the duration plus fn's output fingerprint.
func measure(workers, iters int, fn func() float64) (ms float64, fingerprint float64) {
	old := parallel.Default()
	parallel.SetDefault(workers)
	defer parallel.SetDefault(old)
	best := time.Duration(1<<62 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		fingerprint = fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e6, fingerprint
}

func bench(name string, workers, iters int, fn func() float64) Bench {
	sMs, sFp := measure(1, iters, fn)
	pMs, pFp := measure(workers, iters, fn)
	b := Bench{Name: name, SerialMs: sMs, ParallelMs: pMs, OutputsIdentical: sFp == pFp}
	if pMs > 0 {
		b.Speedup = sMs / pMs
	}
	return b
}

// benchMatMul times the blocked row-parallel kernel on a policy-scale
// product (320^3 multiply-adds per call, well above the fan-out threshold).
func benchMatMul(workers, iters int) Bench {
	const n = 320
	rng := rand.New(rand.NewSource(1))
	a, b, out := mat.New(n, n), mat.New(n, n), mat.New(n, n)
	a.XavierInit(rng)
	b.XavierInit(rng)
	return bench("mat.Mul 320^3", workers, iters, func() float64 {
		var sum float64
		for k := 0; k < 30; k++ {
			mat.Mul(out, a, b)
			sum += out.At(n/2, n/2)
		}
		return sum
	})
}

// benchRollouts times PPO rollout collection (the training hot path) on a
// mid-size MLP over the analytical cost model.
func benchRollouts(workers, iters int) Bench {
	return bench("ppo.rollouts", workers, iters, func() float64 {
		pkg := mcm.Dev8()
		g := workload.MLP(workload.MLPConfig{Name: "bench", Layers: 10, Input: 512, Hidden: 2048, Output: 256, Batch: 32})
		pr, err := cpsolver.NewAuto(g, pkg.Chips, cpsolver.Options{})
		if err != nil {
			fatal(err)
		}
		model := costmodel.New(pkg)
		baseTh, _ := model.Evaluate(g, search.GreedyPackage(g, pkg))
		env := rl.NewEnv(rl.NewGraphContext(g), pr, model, baseTh)
		env.PartFactory = func() (cpsolver.Partitioner, error) {
			return cpsolver.NewAuto(g, pkg.Chips, cpsolver.Options{})
		}
		rng := rand.New(rand.NewSource(5))
		policy := rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng)
		trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
		if _, err := trainer.TrainUntil(context.Background(), []*rl.Env{env}, 96); err != nil {
			fatal(err)
		}
		return env.BestImprovement() + float64(env.Samples)
	})
}

// benchFig7 times the calibration study's corpus sampling (solver replicas
// fanning over random BERT partitions).
func benchFig7(workers, iters int) Bench {
	return bench("fig7.sampling", workers, iters, func() float64 {
		res, err := experiments.Figure7(experiments.Fig7Config{
			Scale: experiments.ScaleQuick, Seed: 1, Samples: 200,
		})
		if err != nil {
			fatal(err)
		}
		return res.PearsonR + res.InvalidPct
	})
}

// benchTable1 times the Table 1 evidence measurement (raw validity and
// solver sampling rates).
func benchTable1(workers, iters int) Bench {
	return bench("table1.evidence", workers, iters, func() float64 {
		res, err := experiments.Table1(1, 200)
		if err != nil {
			fatal(err)
		}
		return res.RawValidPct + res.SolverValidPct
	})
}

// benchTransfer measures the paper's sample-efficiency claim through the
// public Planner API: one shared pre-training run on dev8 corpus graphs,
// then the samples each deployment mode needs to first reach the
// threshold improvement on a held-out graph.
func benchTransfer() *TransferBench {
	ctx := context.Background()
	pl, err := mcmpart.NewPlanner(mcmpart.Dev8())
	if err != nil {
		fatal(err)
	}
	corpus := mcmpart.CorpusGraphs(1)
	const pretrainSamples = 400
	if _, err := pl.Pretrain(ctx, corpus[:10], mcmpart.PretrainOptions{
		TotalSamples:     pretrainSamples,
		Checkpoints:      5,
		ValidationGraphs: 2,
	}); err != nil {
		fatal(err)
	}
	held := corpus[len(corpus)-1]
	t := &TransferBench{
		Package:         "dev8",
		Graph:           held.Name(),
		Threshold:       1.05,
		Budget:          80,
		PretrainSamples: pretrainSamples,
	}
	run := func(m mcmpart.Method) int {
		res, err := pl.Plan(ctx, held, mcmpart.PlanOptions{Method: m, SampleBudget: t.Budget, Seed: 7})
		if err != nil {
			fatal(err)
		}
		n, ok := res.SamplesToImprovement(t.Threshold)
		if !ok {
			return 0
		}
		return n
	}
	t.SamplesScratch = run(mcmpart.MethodRL)
	t.SamplesZeroShot = run(mcmpart.MethodZeroShot)
	t.SamplesFineTune = run(mcmpart.MethodFineTune)
	return t
}

// benchService measures the serving layer on dev8: the latency of one cold
// (cache-miss) plan vs its identical cached repeat — asserting the repeat
// is bit-identical — then the wall-clock of a burst of distinct plans
// submitted concurrently through the async job API.
func benchService(workers int) *ServiceBench {
	ctx := context.Background()
	svc, err := mcmpart.NewService(mcmpart.Dev8(), mcmpart.ServiceOptions{Workers: workers, QueueDepth: 4096})
	if err != nil {
		fatal(err)
	}
	defer svc.Close()
	corpus := mcmpart.CorpusGraphs(1)
	g := corpus[84]
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 40, Seed: 9}

	start := time.Now()
	cold, err := svc.Plan(ctx, g, opts)
	if err != nil {
		fatal(err)
	}
	coldMs := float64(time.Since(start).Nanoseconds()) / 1e6
	start = time.Now()
	cached, err := svc.Plan(ctx, g, opts)
	if err != nil {
		fatal(err)
	}
	cachedMs := float64(time.Since(start).Nanoseconds()) / 1e6

	identical := cold.Samples == cached.Samples &&
		cold.Throughput == cached.Throughput &&
		len(cold.Partition) == len(cached.Partition)
	if identical {
		for i := range cold.Partition {
			if cold.Partition[i] != cached.Partition[i] {
				identical = false
				break
			}
		}
	}

	sb := &ServiceBench{
		Package: "dev8", Graph: g.Name(),
		ColdMs: coldMs, CachedMs: cachedMs, CachedIdentical: identical,
		PoolWorkers: svc.Stats().Workers,
	}
	if cachedMs > 0 {
		sb.Speedup = coldMs / cachedMs
	}

	// Concurrent throughput: distinct (graph, seed) pairs so every plan is
	// a genuine computation, submitted all at once.
	const requests = 24
	hitsBefore := svc.Stats().CacheHits
	jobs := make([]*mcmpart.Job, 0, requests)
	start = time.Now()
	for i := 0; i < requests; i++ {
		job, err := svc.Submit(ctx, mcmpart.PlanRequest{
			Graph: corpus[80+i%5],
			Options: mcmpart.PlanOptions{
				Method: mcmpart.MethodRandom, SampleBudget: 40, Seed: int64(1 + i/5),
			},
		})
		if err != nil {
			fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(ctx); err != nil {
			fatal(err)
		}
	}
	elapsed := float64(time.Since(start).Nanoseconds()) / 1e6
	sb.Requests = requests
	sb.ConcurrentMs = elapsed
	if elapsed > 0 {
		sb.PlansPerSec = float64(requests) / (elapsed / 1e3)
	}
	sb.CacheHitsSeen = svc.Stats().CacheHits - hitsBefore
	return sb
}

// benchResilience measures the fault-tolerant serving core added with the
// single-flight/persistent-cache work: the wall-clock of an N-way
// identical cold burst with coalescing (one planner invocation shared by
// all callers) vs without (a thundering herd, every caller planning), and
// the latency of serving a plan after a "restart" — a fresh service over
// the same persistent cache directory.
func benchResilience(workers int) *ResilienceBench {
	ctx := context.Background()
	corpus := mcmpart.CorpusGraphs(1)
	g := corpus[84]
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 40, Seed: 9}
	const requests = 16

	rb := &ResilienceBench{Package: "dev8", Graph: g.Name(), Requests: requests}

	burst := func(svcOpts mcmpart.ServiceOptions) (float64, uint64, []*mcmpart.Result) {
		svc, err := mcmpart.NewService(mcmpart.Dev8(), svcOpts)
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		jobs := make([]*mcmpart.Job, 0, requests)
		start := time.Now()
		for i := 0; i < requests; i++ {
			job, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: opts})
			if err != nil {
				fatal(err)
			}
			jobs = append(jobs, job)
		}
		results := make([]*mcmpart.Result, 0, requests)
		for _, job := range jobs {
			res, err := job.Wait(ctx)
			if err != nil {
				fatal(err)
			}
			results = append(results, res)
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6, svc.Stats().PlansExecuted, results
	}

	coalescedMs, executed, coalescedResults := burst(mcmpart.ServiceOptions{Workers: workers, QueueDepth: 4096})
	// The uncoalesced herd needs the memory cache off too, or all but the
	// first request would ride the cache instead of planning.
	uncoalescedMs, _, uncoalescedResults := burst(mcmpart.ServiceOptions{
		Workers: workers, QueueDepth: 4096, DisableCoalescing: true, CacheEntries: -1,
	})
	rb.CoalescedMs = coalescedMs
	rb.CoalescedPlansExecuted = executed
	rb.UncoalescedMs = uncoalescedMs
	if coalescedMs > 0 {
		rb.CoalescingSpeedup = uncoalescedMs / coalescedMs
	}
	rb.BurstIdentical = true
	for _, res := range append(coalescedResults, uncoalescedResults...) {
		if res.Samples != coalescedResults[0].Samples || res.Throughput != coalescedResults[0].Throughput {
			rb.BurstIdentical = false
		}
	}

	// Warm restart through the persistent tier.
	dir, err := os.MkdirTemp("", "mcmbench-plancache-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	first, err := mcmpart.NewService(mcmpart.Dev8(), mcmpart.ServiceOptions{Workers: workers, CacheDir: dir})
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	cold, err := first.Plan(ctx, g, opts)
	if err != nil {
		fatal(err)
	}
	rb.RestartColdMs = float64(time.Since(start).Nanoseconds()) / 1e6
	first.Close()

	second, err := mcmpart.NewService(mcmpart.Dev8(), mcmpart.ServiceOptions{Workers: workers, CacheDir: dir})
	if err != nil {
		fatal(err)
	}
	defer second.Close()
	start = time.Now()
	warm, err := second.Plan(ctx, g, opts)
	if err != nil {
		fatal(err)
	}
	rb.RestartDiskHitMs = float64(time.Since(start).Nanoseconds()) / 1e6
	if rb.RestartDiskHitMs > 0 {
		rb.RestartSpeedup = rb.RestartColdMs / rb.RestartDiskHitMs
	}
	rb.RestartIdentical = cold.Samples == warm.Samples && cold.Throughput == warm.Throughput
	rb.RestartDiskHits = second.Stats().DiskCacheHits
	return rb
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcmbench:", err)
	os.Exit(1)
}

// ScaleCase is one row of the scale block: one generated graph size, the
// analytic fast path's wall-clock and bound gap, and the sample cost for
// the search methods to match the analytic plan's quality with and without
// analytic seeding.
type ScaleCase struct {
	Nodes   int    `json:"nodes"`
	Package string `json:"package"`
	Graph   string `json:"graph"`
	// GenerateMs is graph generation; AnalyticMs is analyze.New + Plan —
	// the full fast path, no evaluator in the loop.
	GenerateMs float64 `json:"generate_ms"`
	AnalyticMs float64 `json:"analytic_ms"`
	// ChipsUsed is the analytic plan's chip count; BoundGapPct is how far
	// its latency sits above its own sound lower bound (0% = provably
	// optimal for this graph/package).
	ChipsUsed   int     `json:"chips_used"`
	BoundGapPct float64 `json:"bound_gap_pct"`
	// AnalyticImprovement is the analytic plan's throughput normalized to
	// the greedy baseline, through the public Planner.
	AnalyticImprovement float64 `json:"analytic_improvement"`
	// SearchMs is MethodRandom wall-clock at SearchBudget samples on the
	// same graph — the path that needs an evaluator call per sample.
	SearchMs     float64 `json:"search_ms"`
	SearchBudget int     `json:"search_budget"`
	// SeededSamples / UnseededSamples are the samples MethodRandom needed
	// to first reach the analytic plan's improvement with and without
	// SeedFromAnalytic (0 = not reached within the budget).
	SeededSamples   int `json:"seeded_samples_to_analytic"`
	UnseededSamples int `json:"unseeded_samples_to_analytic"`
}

// benchScale measures the analytic fast path across three graph scales.
// Package choice keeps every scale genuinely multi-chip: the generated
// weight budget (24 MiB per 1k nodes) overflows a single die of the chosen
// package at every size.
func benchScale() []ScaleCase {
	cases := []struct {
		nodes int
		pkg   *mcm.Package
	}{
		{1_000, mcm.Dev8()},
		{10_000, mcm.Edge36()},
		{100_000, mcm.Edge36()},
	}
	const budget = 16
	out := make([]ScaleCase, 0, len(cases))
	for _, c := range cases {
		t0 := time.Now()
		g := randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: c.nodes, Seed: 42})
		genMs := float64(time.Since(t0)) / 1e6

		t0 = time.Now()
		an, err := analyze.New(g, c.pkg)
		if err != nil {
			fatal(err)
		}
		_, info, err := an.Plan(analyze.Options{})
		if err != nil {
			fatal(err)
		}
		analyticMs := float64(time.Since(t0)) / 1e6
		gap := 0.0
		if info.LB.Total > 0 {
			gap = (info.Latency/info.LB.Total - 1) * 100
		}

		pl, err := mcmpart.NewPlanner(c.pkg)
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		aRes, err := pl.Plan(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodAnalytic})
		if err != nil {
			fatal(err)
		}
		t0 = time.Now()
		unseeded, err := pl.Plan(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: budget, Seed: 7})
		if err != nil {
			fatal(err)
		}
		searchMs := float64(time.Since(t0)) / 1e6
		seeded, err := pl.Plan(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: budget, Seed: 7, SeedFromAnalytic: true})
		if err != nil {
			fatal(err)
		}
		seededN, _ := seeded.SamplesToImprovement(aRes.Improvement)
		unseededN, _ := unseeded.SamplesToImprovement(aRes.Improvement)

		out = append(out, ScaleCase{
			Nodes:               c.nodes,
			Package:             c.pkg.Name,
			Graph:               g.Name(),
			GenerateMs:          genMs,
			AnalyticMs:          analyticMs,
			ChipsUsed:           info.Chips,
			BoundGapPct:         gap,
			AnalyticImprovement: aRes.Improvement,
			SearchMs:            searchMs,
			SearchBudget:        budget,
			SeededSamples:       seededN,
			UnseededSamples:     unseededN,
		})
	}
	return out
}
