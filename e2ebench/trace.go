package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mcmpart"
	"mcmpart/internal/analyze"
	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/partition"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
)

// span is one timed call into a layer, kept in memory until the run ends.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at top level
	start, end time.Duration
}

// tracer records nested spans from one goroutine. The traced replay runs
// with one compute worker, so every call it times nests serially.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.epoch)
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("span %s ended out of order", t.spans[id].name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		cur := iv{-1, -1}
		for _, v := range ivs {
			if v.lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = v
			} else if v.hi > cur.hi {
				cur.hi = v.hi
			}
		}
		covered += cur.hi - cur.lo
		self[i] = s.end - s.start - covered
	}
	return self
}

// tally counts calls into a layer and the useful outcomes among them.
type tally struct{ calls, useful int }

// timedPartitioner times a cpsolver.Partitioner's solves as leaf spans.
type timedPartitioner struct {
	cpsolver.Partitioner
	t    *tracer
	name string
	n    *tally
}

func (p *timedPartitioner) SampleMode(probs [][]float64, rng *rand.Rand) (partition.Partition, error) {
	id := p.t.begin(p.name)
	res, err := p.Partitioner.SampleMode(probs, rng)
	p.t.end(id)
	p.count(err)
	return res, err
}

func (p *timedPartitioner) FixMode(y []int, rng *rand.Rand) (partition.Partition, error) {
	id := p.t.begin(p.name)
	res, err := p.Partitioner.FixMode(y, rng)
	p.t.end(id)
	p.count(err)
	return res, err
}

func (p *timedPartitioner) count(err error) {
	p.n.calls++
	if err == nil {
		p.n.useful++
	}
}

// timedEvaluator times an eval.Evaluator's assessments as leaf spans.
type timedEvaluator struct {
	ev   eval.Evaluator
	t    *tracer
	name string
	n    *tally
}

func (e *timedEvaluator) Assess(g *graph.Graph, p partition.Partition) eval.Verdict {
	id := e.t.begin(e.name)
	v := e.ev.Assess(g, p)
	e.t.end(id)
	e.n.calls++
	if v.Valid {
		e.n.useful++
	}
	return v
}

// replayer rebuilds Planner.Plan from the layers' public calls, with a span
// around each call and timing decorators on the partitioner and the
// evaluator, so the replay attributes plan time layer by layer.
type replayer struct {
	pkg    *mcmpart.Package
	policy *rl.Policy // nil without a pre-trained policy
	t      *tracer
	tally  map[string]*tally
	// rlSamples counts the samples the policy methods consumed.
	rlSamples int
}

func newReplayer(pkg *mcmpart.Package, policy *rl.Policy, t *tracer) *replayer {
	return &replayer{pkg: pkg, policy: policy, t: t, tally: make(map[string]*tally)}
}

func (r *replayer) count(name string) *tally {
	if r.tally[name] == nil {
		r.tally[name] = &tally{}
	}
	return r.tally[name]
}

// buildPartitioner is cpsolver.NewAutoPkg inside a span, wrapped for timing.
func (r *replayer) buildPartitioner(g *graph.Graph) (cpsolver.Partitioner, error) {
	id := r.t.begin("cpsolver.build")
	p, err := cpsolver.NewAutoPkg(g, r.pkg, cpsolver.Options{})
	r.t.end(id)
	if err != nil {
		return nil, err
	}
	name := "cpsolver.solver"
	if _, ok := p.(*cpsolver.Segmenter); ok {
		name = "cpsolver.segmenter"
	}
	return &timedPartitioner{Partitioner: p, t: r.t, name: name, n: r.count(name)}, nil
}

// ftPPOFor mirrors the planner's choice of fine-tuning configuration: the
// paper-scale PPO for a paper-scale network, the quick one otherwise.
func ftPPOFor(policy *rl.Policy) rl.PPOConfig {
	full := rl.DefaultConfig(policy.Cfg.Chips)
	if policy.Cfg.Hidden == full.Hidden && policy.Cfg.SAGELayers == full.SAGELayers && policy.Cfg.Iterations == full.Iterations {
		return rl.DefaultPPOConfig()
	}
	return rl.QuickPPOConfig()
}

var errReplayNoPlan = errors.New("replay: no plan")

// plan replays Planner.Plan for one request in the same order of calls and
// random draws, so its result must be bit-identical to the daemon's.
func (r *replayer) plan(ctx context.Context, g *graph.Graph, o mcmpart.PlanOptions) (*mcmpart.Result, error) {
	if o.Method == "" {
		o.Method = mcmpart.MethodRL
	}
	if o.SampleBudget == 0 {
		o.SampleBudget = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SeedFromAnalytic {
		return nil, errors.New("replay: seed_from_analytic is not generated by any workload")
	}
	root := r.t.begin("planner.plan")
	defer r.t.end(root)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	var ev eval.Evaluator
	if o.UseSimulator {
		ev = &timedEvaluator{ev: hwsim.New(r.pkg, hwsim.Options{Seed: o.Seed}), t: r.t, name: "hwsim.assess", n: r.count("hwsim.assess")}
	} else {
		ev = &timedEvaluator{ev: costmodel.New(r.pkg), t: r.t, name: "costmodel.assess", n: r.count("costmodel.assess")}
	}
	policyCfg := rl.QuickConfig(r.pkg.Chips)
	if r.pkg.Heterogeneous() {
		policyCfg.ChipFeatures = true
	}
	if o.Method == mcmpart.MethodZeroShot || o.Method == mcmpart.MethodFineTune {
		if r.policy == nil {
			return nil, errors.New("replay: policy method without a policy")
		}
		policyCfg = r.policy.Cfg
	}

	id := r.t.begin("search.greedy")
	greedy := search.GreedyPackage(g, r.pkg)
	r.t.end(id)
	base := ev.Assess(g, greedy)
	if !base.Valid || base.Throughput <= 0 {
		return nil, errReplayNoPlan
	}
	switch o.Method {
	case mcmpart.MethodGreedy:
		return &mcmpart.Result{Partition: greedy, Throughput: base.Throughput, Improvement: 1, Samples: 1, History: []float64{1}}, nil
	case mcmpart.MethodAnalytic:
		id := r.t.begin("analyze.plan")
		a, err := analyze.New(g, r.pkg)
		var p partition.Partition
		if err == nil {
			p, _, err = a.Plan(analyze.Options{})
		}
		r.t.end(id)
		if err != nil {
			return nil, err
		}
		v := ev.Assess(g, p)
		if !v.Valid || v.Throughput <= 0 {
			reason := v.FailReason
			if reason == "" {
				reason = "evaluator rejected analytic plan"
			}
			return &mcmpart.Result{Partition: greedy, Throughput: base.Throughput, Improvement: 1, Samples: 2,
				History: []float64{0, 1}, FailCounts: map[string]int{reason: 1}}, nil
		}
		imp := v.Throughput / base.Throughput
		return &mcmpart.Result{Partition: p, Throughput: v.Throughput, Improvement: imp, Samples: 1, History: []float64{imp}}, nil
	}

	id = r.t.begin("rl.context")
	var gctx *rl.GraphContext
	if policyCfg.ChipFeatures {
		gctx = rl.NewGraphContextForPackage(g, r.pkg)
	} else {
		gctx = rl.NewGraphContext(g)
	}
	r.t.end(id)
	part, err := r.buildPartitioner(g)
	if err != nil {
		return nil, err
	}
	env := rl.NewEnv(gctx, part, ev, base.Throughput)
	env.PartFactory = func() (cpsolver.Partitioner, error) { return r.buildPartitioner(g) }
	rng := rand.New(rand.NewSource(o.Seed))
	var runErr error
	switch o.Method {
	case mcmpart.MethodRandom:
		id = r.t.begin("search.random")
		runErr = search.Random(ctx, env, o.SampleBudget, rng)
	case mcmpart.MethodSA:
		id = r.t.begin("search.anneal")
		runErr = search.Anneal(ctx, env, o.SampleBudget, search.SAConfig{}, rng)
	case mcmpart.MethodRL:
		id = r.t.begin("rl.train")
		trainer := rl.NewTrainer(rl.NewPolicy(policyCfg, rng), rl.QuickPPOConfig(), rng)
		_, runErr = trainer.TrainUntil(ctx, []*rl.Env{env}, o.SampleBudget)
	case mcmpart.MethodZeroShot:
		env.UseSampleMode = true
		id = r.t.begin("rl.zeroshot")
		runErr = rl.ZeroShot(ctx, r.policy.Clone(), env, o.SampleBudget, rng)
	case mcmpart.MethodFineTune:
		env.UseSampleMode = true
		id = r.t.begin("rl.finetune")
		_, runErr = rl.FineTune(ctx, r.policy.Clone(), env, ftPPOFor(r.policy), o.SampleBudget, rng)
	default:
		return nil, fmt.Errorf("replay: unknown method %q", o.Method)
	}
	r.t.end(id)
	switch o.Method {
	case mcmpart.MethodRL, mcmpart.MethodZeroShot, mcmpart.MethodFineTune:
		r.rlSamples += env.Samples
	}
	if env.Best == nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, errReplayNoPlan
	}
	return &mcmpart.Result{
		Partition:   env.Best,
		Throughput:  env.BestThroughput,
		Improvement: env.BestImprovement(),
		Samples:     env.Samples,
		History:     append([]float64(nil), env.History...),
		FailCounts:  env.FailCounts,
	}, runErr
}
