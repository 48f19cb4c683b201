package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"mcmpart"
	"mcmpart/internal/randgraph"
)

// request is one position of a workload's request stream.
type request struct {
	// Key identifies the distinct request; a repeat carries the key (and
	// the byte-identical body) of the request it repeats.
	Key   int
	Graph int // index into workload.graphs
	Opts  mcmpart.PlanOptionsWire
}

// workload is one generated traffic mix: the graphs, the package the
// daemon plans for, and a request stream long enough for any run.
//
// Streams are built in rounds. Which (graph, method) pairs a round holds
// depends only on the round's index; the seed shuffles the order inside the
// round, draws every request seed and, for serve-large, generates the
// graphs. Runs end on a round boundary, so two seeds measure the same mix.
type workload struct {
	name      string
	pkgName   string
	pkg       *mcmpart.Package
	graphs    []*mcmpart.Graph
	graphJSON [][]byte
	stream    []request
	// round is the number of positions per round.
	round int
	// qualityRounds is the prefix every timed run completes; its plan
	// quality and answer digest depend on the seed alone.
	qualityRounds int
	// traceRounds is the prefix the traced run replays.
	traceRounds int
	// policyGraphs, when non-empty, are pre-trained on at set-up and the
	// daemon starts with the resulting policy.
	policyGraphs []*mcmpart.Graph
	// warmProbes > 0 takes warm latency from a probe client that re-sends
	// answered requests this many times, evenly spaced, during the timed
	// loop (the stream itself never repeats a request). The count keeps the
	// probe's added load small next to the loop's.
	warmProbes int
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-corpus", "serve-rl", "serve-large"}

func newWorkload(name string, seed int64) (*workload, error) {
	var w *workload
	switch name {
	case "serve-corpus":
		w = corpusWorkload(seed)
	case "serve-rl":
		w = rlWorkload(seed)
	case "serve-large":
		w = largeWorkload(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.graphJSON = make([][]byte, len(w.graphs))
	for i, g := range w.graphs {
		b, err := json.Marshal(g)
		if err != nil {
			return nil, fmt.Errorf("encoding graph %s: %w", g.Name(), err)
		}
		w.graphJSON[i] = b
	}
	return w, nil
}

// mix derives a 64-bit value from the seed and a tuple of indices
// (splitmix64 chained over the parts).
func mix(seed int64, parts ...int) uint64 {
	z := uint64(seed)
	for _, p := range append(parts, len(parts)) {
		z += 0x9e3779b97f4a7c15 + uint64(p)*0xd1b54a32d192ed03
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

func rngFor(seed int64, parts ...int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seed, parts...) >> 1)))
}

// requestSeed draws a positive plan seed for one request.
func requestSeed(seed int64, parts ...int) int64 {
	return 1 + int64(mix(seed, parts...)%1_000_000)
}

// corpusVariants are the per-graph option variants of serve-corpus: two
// random and one annealing search at budget 40, the analytic fast path, and
// one in five evaluated on the simulator (method rotating with the graph).
func corpusVariant(g, v int) mcmpart.PlanOptionsWire {
	switch v {
	case 0, 3:
		return mcmpart.PlanOptionsWire{Method: mcmpart.MethodRandom, SampleBudget: 40}
	case 1:
		return mcmpart.PlanOptionsWire{Method: mcmpart.MethodSA, SampleBudget: 40}
	case 2:
		return mcmpart.PlanOptionsWire{Method: mcmpart.MethodAnalytic}
	default:
		o := corpusVariant(g, g%3)
		o.UseSimulator = true
		return o
	}
}

const corpusVariants = 5

// corpusWorkload: the dev8 daemon plans the 87 corpus graphs. Every round
// of fresh keys holds each (graph, variant) pair once; every fresh key is
// sent a second time after a log-uniform distance of 1 to 4096 positions,
// so about half the requests repeat an earlier one. A round has more
// distinct keys than the daemon's 256-entry cache, so repeats both hit and
// miss after eviction, and distance-1 repeats race their original
// (single-flight coalescing).
func corpusWorkload(seed int64) *workload {
	graphs := mcmpart.CorpusGraphs(1)
	perRound := len(graphs) * corpusVariants
	const rounds = 100
	w := &workload{
		name: "serve-corpus", pkgName: "dev8", pkg: mcmpart.Dev8(), graphs: graphs,
		round: 2 * perRound, qualityRounds: 1, traceRounds: 1,
	}
	var keys []request
	var perm []int
	freshKey := func() request {
		b, j := len(keys)/perRound, len(keys)%perRound
		if j == 0 {
			perm = rngFor(seed, 1, b).Perm(perRound)
		}
		g, v := perm[j]/corpusVariants, perm[j]%corpusVariants
		o := corpusVariant(g, v)
		o.Seed = requestSeed(seed, 2, b, g, v)
		r := request{Key: len(keys), Graph: g, Opts: o}
		keys = append(keys, r)
		return r
	}
	dist := rngFor(seed, 3)
	var due repeatQueue
	for pos := 0; pos < rounds*w.round; pos++ {
		if len(due) > 0 && due[0].pos <= pos {
			k := heap.Pop(&due).(repeatAt).key
			w.stream = append(w.stream, keys[k])
			continue
		}
		r := freshKey()
		w.stream = append(w.stream, r)
		d := int(math.Exp(dist.Float64() * math.Log(4096)))
		heap.Push(&due, repeatAt{pos: pos + d, key: r.Key})
	}
	return w
}

type repeatAt struct{ pos, key int }

// repeatQueue is a min-heap of scheduled repeats by (position, key).
type repeatQueue []repeatAt

func (q repeatQueue) Len() int { return len(q) }
func (q repeatQueue) Less(i, j int) bool {
	if q[i].pos != q[j].pos {
		return q[i].pos < q[j].pos
	}
	return q[i].key < q[j].key
}
func (q repeatQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *repeatQueue) Push(x any)   { *q = append(*q, x.(repeatAt)) }
func (q *repeatQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// rlWorkload: the dev8 daemon, started with a policy pre-trained on the
// first 10 corpus graphs, plans the 77 held-out graphs with the policy
// methods at budget 24. Each round plans every held-out graph once with
// each method; one (graph, method) pair in five evaluates on the
// simulator, as the paper's deployment does. No request repeats.
func rlWorkload(seed int64) *workload {
	corpus := mcmpart.CorpusGraphs(1)
	graphs := corpus[10:]
	methods := []mcmpart.Method{mcmpart.MethodZeroShot, mcmpart.MethodFineTune, mcmpart.MethodRL}
	perRound := len(graphs) * len(methods)
	const rounds = 15
	w := &workload{
		name: "serve-rl", pkgName: "dev8", pkg: mcmpart.Dev8(), graphs: graphs,
		round: perRound, qualityRounds: 1, traceRounds: 1,
		policyGraphs: corpus[:10], warmProbes: 120,
	}
	for b := 0; b < rounds; b++ {
		for _, i := range rngFor(seed, 1, b).Perm(perRound) {
			g, m := i/len(methods), i%len(methods)
			w.stream = append(w.stream, request{
				Key:   len(w.stream),
				Graph: g,
				Opts: mcmpart.PlanOptionsWire{
					Method:       methods[m],
					SampleBudget: 24,
					Seed:         requestSeed(seed, 2, b, g, m),
					UseSimulator: (g+m)%5 == 0,
				},
			})
		}
	}
	return w
}

// largeStrata are serve-large's (family, node count) classes.
var largeStrata = func() []randgraph.Config {
	var cs []randgraph.Config
	for _, f := range []randgraph.Family{randgraph.FamilyLayered, randgraph.FamilyBranchy} {
		for n := 2000; n <= 10000; n += 2000 {
			cs = append(cs, randgraph.Config{Family: f, Nodes: n})
		}
	}
	return cs
}()

// largePool is how many graphs each stratum holds. The graphs come from a
// fixed generator seed, like the corpus the other workloads plan; a round
// sends every graph of the pool once, so every run measures the same
// graphs, and the workload seed orders the round and draws the request
// seeds.
const largePool = 4

// largeWorkload: the edge36 daemon plans random graphs of 2k-10k nodes.
// Each round sends every graph with the analytic fast path and with random
// search at budget 16, plus models whose weights exceed the package's
// total SRAM, which the analytic path must reject. Every request has its
// own seed, so no request repeats.
func largeWorkload(seed int64) *workload {
	pkg := mcmpart.Edge36()
	var sram int64
	for c := 0; c < pkg.Chips; c++ {
		sram += pkg.ChipSRAM(c)
	}
	w := &workload{name: "serve-large", pkgName: "edge36", pkg: pkg, qualityRounds: 1, traceRounds: 1, warmProbes: 40}
	var round []request
	for s, cfg := range largeStrata {
		for p := 0; p < largePool; p++ {
			cfg.Seed = int64(mix(1, 2, s, p) >> 1)
			w.graphs = append(w.graphs, randgraph.Generate(cfg))
			g := len(w.graphs) - 1
			round = append(round,
				request{Graph: g, Opts: mcmpart.PlanOptionsWire{Method: mcmpart.MethodAnalytic}},
				request{Graph: g, Opts: mcmpart.PlanOptionsWire{Method: mcmpart.MethodRandom, SampleBudget: 16}})
		}
	}
	for p := 0; p < largePool; p++ {
		g := randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: 3000, Seed: int64(mix(1, 3, p) >> 1)})
		w.graphs = append(w.graphs, scaleWeights(g, 1+(sram+sram/2)/g.TotalParamBytes()))
		round = append(round, request{Graph: len(w.graphs) - 1, Opts: mcmpart.PlanOptionsWire{Method: mcmpart.MethodAnalytic}})
	}
	w.round = len(round)
	const rounds = 16
	for b := 0; b < rounds; b++ {
		for j, i := range rngFor(seed, 4, b).Perm(len(round)) {
			r := round[i]
			r.Key = len(w.stream)
			r.Opts.Seed = requestSeed(seed, 5, b, j)
			w.stream = append(w.stream, r)
		}
	}
	return w
}

// scaleWeights returns a copy of g with every node's weights multiplied by
// factor: the same model at a wider precision or width.
func scaleWeights(g *mcmpart.Graph, factor int64) *mcmpart.Graph {
	out := mcmpart.NewGraph(fmt.Sprintf("%s-x%d", g.Name(), factor))
	for _, n := range g.Nodes() {
		n.ParamBytes *= factor
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(e.From, e.To, e.Bytes)
	}
	return out
}

// body appends the JSON body of r to buf: the graph's native encoding and
// the wire options, exactly what a client of POST /v1/plan sends.
func (w *workload) body(buf []byte, r request) []byte {
	opts, err := json.Marshal(r.Opts)
	if err != nil {
		panic(err) // PlanOptionsWire has only plain fields
	}
	buf = append(buf, `{"graph":`...)
	buf = append(buf, w.graphJSON[r.Graph]...)
	buf = append(buf, `,"options":`...)
	buf = append(buf, opts...)
	return append(buf, '}')
}

// streamDigest hashes the bodies of the first n positions.
func (w *workload) streamDigest(n int) string {
	h := sha256.New()
	var buf []byte
	for _, r := range w.stream[:n] {
		buf = w.body(buf[:0], r)
		fmt.Fprintf(h, "%d:%d\n", r.Key, len(buf))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// qualitySet is the number of positions in the prefix every timed run
// completes.
func (w *workload) qualitySet() int { return w.qualityRounds * w.round }

// traceSet is the number of positions the traced run replays.
func (w *workload) traceSet() int { return w.traceRounds * w.round }
