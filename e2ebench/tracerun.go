package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"time"

	"mcmpart"
	"mcmpart/internal/parallel"
	"mcmpart/internal/rl"
)

// runTraced drives the daemon over the prefix every run completes, reads
// its /metrics and /v1/stats, then replays the same requests in-process
// with one compute worker:
//
//   - each request body is decoded as the HTTP handler does, its graph
//     decoded again on its own and fingerprinted;
//   - it is admitted to an in-process Service (same cache and admission
//     path as the daemon), whose cold plans give the untraced plan time;
//   - every cold plan is planned again by the replayer, which times each
//     layer, and must match the daemon's answer bit for bit;
//   - the response is encoded as the HTTP handler does.
func runTraced(ctx context.Context, cfg config) (*result, map[string]any, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	d, policyPath, _, err := startServing(ctx, cfg, w)
	if err != nil {
		return nil, nil, err
	}
	outs, _, _ := runLoop(ctx, w, loopConfig{base: d.base, conns: conns, positions: allPositions(w.traceSet()), timeout: requestTimeout})
	st, err := stats(d.base)
	if err != nil {
		return nil, nil, err
	}
	prom, err := scrapeMetrics(d.base)
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
	daemonAnswer := make(map[int]verdict, len(outs))
	var clientSum time.Duration
	for _, o := range outs {
		daemonAnswer[o.pos] = c.check(ctx, o)
		clientSum += o.lat
	}
	digest, err := answerDigest(outs, w.traceSet())
	if err == nil {
		err = pinDigest(filepath.Join(cfg.build, "digests"), cfg, w.traceSet(), digest)
	}
	if err != nil {
		c.fail("%v", err)
	}

	var policy *rl.Policy
	if policyPath != "" {
		if policy, err = rl.LoadArtifact(policyPath, w.pkg); err != nil {
			return nil, nil, err
		}
	}
	rep, err := replay(ctx, w, policyPath, policy, daemonAnswer, c)
	if err != nil {
		return nil, nil, err
	}

	planCold := prom[`mcmpart_plan_seconds_sum{path="cold"}`]
	httpPlan := prom[`mcmpart_http_request_seconds_sum{route="POST /v1/plan"}`]
	m := rep.metrics()
	m["service.plan_cold_s"] = metric{planCold, "s"}
	m["service.server_overhead_s"] = metric{httpPlan - planCold, "s"}
	m["client.wire_s"] = metric{clientSum.Seconds() - httpPlan, "s"}
	m["service.plans_executed"] = metric{float64(st.PlansExecuted), "count"}
	m["service.plans_coalesced"] = metric{float64(st.PlansCoalesced), "count"}
	m["service.jobs_shed"] = metric{float64(st.JobsShed), "count"}
	if err := finite(m); err != nil {
		return nil, nil, err
	}
	res := &result{Correct: len(c.problems) == 0, Attempted: len(outs), Failed: c.unexpected, Metrics: m}
	report := map[string]any{
		"requests":           map[string]int{"daemon": len(outs), "cold_replayed": rep.cold, "unexpected": c.unexpected},
		"observed_hit_share": ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)),
		"answer_digest":      digest,
		"daemon_args":        d.args,
		"package":            w.pkgName,
		"problems":           c.problems,
	}
	return res, report, nil
}

// replayRun accumulates the traced replay's figures.
type replayRun struct {
	t        *tracer
	r        *replayer
	requests int
	bodyMB   float64
	cold     int
	// untraced is the in-process Service's cold plan time, Submit
	// returning to the job finishing; traced is the replayer's plan time
	// for the same requests.
	untraced, traced time.Duration
	hits, misses     uint64
}

func replay(ctx context.Context, w *workload, policyPath string, policy *rl.Policy, daemonAnswer map[int]verdict, c *checker) (*replayRun, error) {
	prev := parallel.Default()
	parallel.SetDefault(1)
	defer parallel.SetDefault(prev)
	svc, err := mcmpart.NewService(w.pkg, mcmpart.ServiceOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if policyPath != "" {
		if err := svc.Planner().LoadPolicy(policyPath); err != nil {
			return nil, err
		}
	}
	t := newTracer()
	rr := &replayRun{t: t, r: newReplayer(w.pkg, policy, t)}
	var body []byte
	for pos := 0; pos < w.traceSet(); pos++ {
		req := w.stream[pos]
		body = w.body(body[:0], req)
		rr.requests++
		rr.bodyMB += float64(len(body)) / (1 << 20)

		id := t.begin("httpapi.decode")
		var wire mcmpart.PlanRequestWire
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&wire)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("position %d: decoding request: %w", pos, err)
		}
		id = t.begin("graph.unmarshal")
		var alone mcmpart.Graph
		err = alone.UnmarshalJSON(w.graphJSON[req.Graph])
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("position %d: decoding graph: %w", pos, err)
		}
		id = t.begin("graph.fingerprint")
		fp := wire.Graph.Fingerprint()
		t.end(id)

		opts := wire.Options.Options()
		id = t.begin("service.admit")
		job, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: wire.Graph, Options: opts})
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("position %d: admission: %w", pos, err)
		}
		t0 := time.Now()
		<-job.Done()
		waited := time.Since(t0)
		res, jobErr := job.Result()
		status := job.Status()
		want := daemonAnswer[pos]
		if !status.Cached {
			rr.cold++
			rr.untraced += waited
			n := len(t.spans)
			traced, terr := rr.r.plan(ctx, wire.Graph, opts)
			if len(t.spans) > n {
				rr.traced += t.spans[n].end - t.spans[n].start
			}
			switch {
			case (terr == nil) != (jobErr == nil):
				c.fail("position %d: traced replay error %v, in-process service error %v", pos, terr, jobErr)
			case terr == nil && !sameResult(traced, res):
				c.fail("position %d: traced replay plan differs from the in-process service's", pos)
			}
		}
		switch {
		case want.ok && (jobErr != nil || !sameResult(res, want.result.Result())):
			c.fail("position %d: in-process plan differs from the daemon's answer (error %v)", pos, jobErr)
		case want.rejected && jobErr == nil:
			c.fail("position %d: daemon rejected the request, in-process service planned it", pos)
		}
		if jobErr != nil {
			continue
		}
		id = t.begin("httpapi.encode")
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", " ")
		err = enc.Encode(mcmpart.PlanResponse{Result: toWire(res), Cached: status.Cached, GraphFingerprint: fp})
		t.end(id)
		if err != nil {
			return nil, err
		}
	}
	s := svc.Stats()
	rr.hits, rr.misses = s.CacheHits, s.CacheMisses
	return rr, nil
}

func toWire(r *mcmpart.Result) *mcmpart.ResultWire {
	return &mcmpart.ResultWire{
		Partition: r.Partition, Throughput: r.Throughput, Improvement: r.Improvement,
		Samples: r.Samples, History: r.History, FailCounts: r.FailCounts,
	}
}

// sameResult compares two plans bit for bit: partition, throughput,
// improvement and samples.
func sameResult(a, b *mcmpart.Result) bool {
	return a != nil && b != nil &&
		slices.Equal(a.Partition, b.Partition) &&
		math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.Improvement) == math.Float64bits(b.Improvement) &&
		a.Samples == b.Samples
}

// metrics turns the replay's spans and tallies into the per-layer figures.
func (rr *replayRun) metrics() map[string]metric {
	self := selfTimes(rr.t.spans)
	selfBy := make(map[string]float64)
	durBy := make(map[string]float64)
	var planDur, planSelf float64
	for i, s := range rr.t.spans {
		selfBy[s.name] += self[i].Seconds()
		durBy[s.name] += (s.end - s.start).Seconds()
		if s.name == "planner.plan" {
			planDur += (s.end - s.start).Seconds()
			planSelf += self[i].Seconds()
		}
	}
	tallyRatio := func(name string) float64 {
		if n := rr.r.tally[name]; n != nil {
			return ratio(float64(n.useful), float64(n.calls))
		}
		return 0
	}
	solver, segmenter := rr.r.tally["cpsolver.solver"], rr.r.tally["cpsolver.segmenter"]
	var solves, solved int
	for _, n := range []*tally{solver, segmenter} {
		if n != nil {
			solves += n.calls
			solved += n.useful
		}
	}
	rlDur := durBy["rl.train"] + durBy["rl.zeroshot"] + durBy["rl.finetune"]
	return map[string]metric{
		"httpapi.decode_s":      {selfBy["httpapi.decode"], "s"},
		"httpapi.encode_s":      {selfBy["httpapi.encode"], "s"},
		"httpapi.request_mb":    {rr.bodyMB / float64(rr.requests), "MiB"},
		"graph.unmarshal_s":     {selfBy["graph.unmarshal"], "s"},
		"graph.fingerprint_s":   {selfBy["graph.fingerprint"], "s"},
		"service.admit_s":       {selfBy["service.admit"], "s"},
		"plancache.hit_ratio":   {ratio(float64(rr.hits), float64(rr.hits+rr.misses)), "ratio"},
		"planner.plan_s":        {planDur, "s"},
		"search.self_s":         {selfBy["search.greedy"] + selfBy["search.random"] + selfBy["search.anneal"], "s"},
		"analyze.plan_s":        {selfBy["analyze.plan"], "s"},
		"cpsolver.build_s":      {selfBy["cpsolver.build"], "s"},
		"cpsolver.solver_s":     {selfBy["cpsolver.solver"], "s"},
		"cpsolver.segmenter_s":  {selfBy["cpsolver.segmenter"], "s"},
		"cpsolver.calls":        {float64(solves), "count"},
		"cpsolver.solved_ratio": {ratio(float64(solved), float64(solves)), "ratio"},
		"costmodel.assess_s":    {selfBy["costmodel.assess"], "s"},
		"hwsim.assess_s":        {selfBy["hwsim.assess"], "s"},
		"costmodel.valid_ratio": {tallyRatio("costmodel.assess"), "ratio"},
		"hwsim.valid_ratio":     {tallyRatio("hwsim.assess"), "ratio"},
		"rl.policy_self_s":      {selfBy["rl.train"] + selfBy["rl.zeroshot"] + selfBy["rl.finetune"], "s"},
		"rl.samples_per_s":      {ratio(float64(rr.r.rlSamples), rlDur), "1/s"},
		"trace.coverage":        {ratio(planDur-planSelf, planDur), "ratio"},
		"trace.overhead":        {ratio(rr.traced.Seconds(), rr.untraced.Seconds()), "ratio"},
	}
}
