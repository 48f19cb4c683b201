package mcmpart

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"mcmpart/internal/faultinject"
	"mcmpart/internal/parallel"
	"mcmpart/internal/plancache"
	"mcmpart/internal/rl"
	"mcmpart/internal/telemetry"
)

// Service errors.
var (
	// ErrServiceClosed is returned by Submit, Plan, and PlanBatch after
	// Close, and while the service is draining (BeginDrain/Drain). Over
	// HTTP it maps to 503 with a Retry-After header — a load balancer's
	// signal to route elsewhere and retry.
	ErrServiceClosed = errors.New("mcmpart: service is closed")
	// ErrBusy is returned by Submit when the job queue is at capacity —
	// the admission-control signal; callers shed load or retry later.
	ErrBusy = errors.New("mcmpart: service queue is full")
	// ErrPolicyRequired is returned by Planner.Plan and Service.Submit when
	// a deployed-policy method (MethodZeroShot, MethodFineTune) is requested
	// but no pre-trained policy is installed or available in the registry.
	// Over HTTP it maps to 409 Conflict, and Client maps 409 back to it.
	ErrPolicyRequired = errors.New("mcmpart: a pre-trained policy is required")
	// ErrPlanPanic wraps a panic recovered from a planning worker: the job
	// fails with a typed error and the service keeps serving — one
	// poisoned request must not take the node down.
	ErrPlanPanic = errors.New("mcmpart: plan panicked")
	// ErrInvalidRequest wraps every request-validation failure — a nil
	// graph, a negative budget or seed, an unknown method. Over HTTP it
	// maps to 400 Bad Request, and Client maps 400 back to it, so
	// errors.Is(err, ErrInvalidRequest) distinguishes "fix the request"
	// from transient service states in-process and across the wire alike.
	ErrInvalidRequest = errors.New("mcmpart: invalid request")
	// ErrNoPlan is returned by Plan when the search exhausts its sample
	// budget without finding any valid partition, and by the baseline
	// stage when even the greedy layout does not fit the package.
	ErrNoPlan = errors.New("mcmpart: no valid partition found")
)

// ServiceOptions configure NewService. The zero value is a working
// configuration: process-default workers, a 4x queue, a 256-entry cache,
// no disk tier, and no policy directory.
type ServiceOptions struct {
	// Workers is the number of plans that may run concurrently
	// (0 = process default, see internal worker-pool default; negative is
	// an error).
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a worker
	// (0 = 4x Workers; negative is an error). When the queue is full,
	// Submit returns ErrBusy.
	QueueDepth int
	// CacheEntries bounds the in-memory plan cache (0 = 256 entries;
	// negative disables caching).
	CacheEntries int
	// CacheDir, when set, opens a crash-safe persistent plan-cache tier
	// under the in-memory LRU (created if missing). Completed plans are
	// written through (temp file + fsync + atomic rename, versioned and
	// checksummed), and in-memory misses consult the directory lazily, so
	// plans survive restarts with O(1) startup cost. Corrupt, truncated,
	// or stale-version entries are quarantined and logged, never served.
	CacheDir string
	// DisableCoalescing turns off single-flight request coalescing:
	// concurrent requests that normalize to the same cache key each run
	// their own plan instead of sharing one in-flight computation. The
	// results are identical either way (plans are a pure function of the
	// key); this exists for benchmarking the coalescing win and for
	// debugging, not for production.
	DisableCoalescing bool
	// PolicyDir, when set, opens a directory-backed policy registry
	// (created if missing). At startup — and lazily at plan time whenever
	// no policy is installed — the service installs the newest registry
	// policy matching its package, enabling MethodZeroShot and
	// MethodFineTune without an explicit Pretrain.
	PolicyDir string
	// MaxRetainedJobs bounds how many terminal jobs the service keeps
	// addressable by ID for status queries (0 = 1024; negative is an
	// error). Oldest terminal jobs are evicted first; live jobs are never
	// evicted.
	MaxRetainedJobs int
}

// ServiceStats is a point-in-time operational snapshot of a Service. Every
// counter and gauge here is a read of the same telemetry registry the
// GET /metrics exposition serves (Service.Metrics), so the JSON and
// Prometheus views cannot disagree. DESIGN.md §14 documents the metric
// names as a stable contract.
type ServiceStats struct {
	Package            string `json:"package"`
	PackageFingerprint string `json:"package_fingerprint"`
	Workers            int    `json:"workers"`
	// QueueDepth is the number of admitted jobs waiting for a worker right
	// now — the live pressure signal. QueueCapacity is the configured
	// bound admission sheds at (historically QueueDepth reported the
	// capacity; the live depth is what a dashboard needs).
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	// CacheHits/CacheMisses partition *admitted* jobs by their in-memory
	// cache outcome: every job counts on exactly one side, a rejected
	// submission (shed, draining) on neither — so CacheHits+CacheMisses
	// equals JobsSubmitted once the service is quiescent. Coalesced
	// requests and disk-tier hits are memory misses.
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CacheEntries  int    `json:"cache_entries"`
	CacheCapacity int    `json:"cache_capacity"`

	// PlansExecuted counts actual planner invocations; PlansCoalesced
	// counts requests that shared another request's in-flight computation
	// instead of planning. Under single-flight, N concurrent identical
	// cold requests add 1 to the former and N-1 to the latter.
	PlansExecuted  uint64 `json:"plans_executed"`
	PlansCoalesced uint64 `json:"plans_coalesced"`

	// Disk tier (all zero without ServiceOptions.CacheDir). Hits are
	// in-memory misses served from disk; Quarantined counts entries set
	// aside after failing verification — corruption detected, never served.
	DiskCacheHits        uint64 `json:"disk_cache_hits"`
	DiskCacheWrites      uint64 `json:"disk_cache_writes"`
	DiskCacheWriteErrors uint64 `json:"disk_cache_write_errors"`
	DiskCacheQuarantined uint64 `json:"disk_cache_quarantined"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsQueued    int    `json:"jobs_queued"`
	JobsRunning   int    `json:"jobs_running"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	// JobsShed counts submissions rejected with ErrBusy because the queue
	// was full — load the service refused, which JobsSubmitted never saw.
	JobsShed uint64 `json:"jobs_shed"`

	// Draining reports that admission is stopped (BeginDrain/Drain/Close)
	// while previously admitted work finishes.
	Draining bool `json:"draining"`

	PolicyInstalled   bool   `json:"policy_installed"`
	PolicyFingerprint string `json:"policy_fingerprint,omitempty"`
	RegistryPolicies  int    `json:"registry_policies"`
}

// PolicyInfo describes one policy visible to the service: the installed
// one and/or a registry artifact.
type PolicyInfo struct {
	// Path is the artifact file ("" for a policy installed via Pretrain
	// that was never saved).
	Path string `json:"path,omitempty"`
	// PackageName names the package the policy was pre-trained for.
	PackageName string `json:"package_name"`
	// PackageFingerprint is the fingerprint the artifact is bound to.
	PackageFingerprint string `json:"package_fingerprint"`
	// Seq is the registry sequence number (0 outside the registry naming
	// scheme). Higher is newer among one package's policies.
	Seq int `json:"seq"`
	// Installed marks the policy currently driving MethodZeroShot and
	// MethodFineTune plans.
	Installed bool `json:"installed"`
}

// PlanRequest is one unit of work for Submit and PlanBatch.
type PlanRequest struct {
	// Graph is the computation graph to partition.
	Graph *Graph
	// Options configure the plan exactly as in Planner.Plan. The Progress
	// callback, when set, streams from the worker goroutine running the
	// job; Job.Status additionally exposes the latest progress snapshot to
	// pollers. Coalesced requests receive the leader's progress stream.
	Options PlanOptions
}

// Service is a long-lived, concurrency-safe planning front end over a
// Planner — the process-wide object a daemon (cmd/mcmpartd) or an embedding
// application shares across all callers. It adds what a multi-tenant
// deployment needs beyond a bare Planner:
//
//   - a bounded LRU plan cache keyed by canonical graph fingerprint ×
//     package fingerprint × policy fingerprint × normalized options, so
//     repeated requests for the same model return instantly and
//     bit-identically — optionally backed by a crash-safe disk tier
//     (ServiceOptions.CacheDir) that survives restarts;
//   - single-flight coalescing: concurrent requests for the same cache key
//     share one in-flight computation (the leader plans; followers wait
//     under their own contexts and receive deep copies of its result);
//   - a policy registry (directory-backed) with automatic selection of the
//     newest matching policy at plan time;
//   - an async job API — Submit/Job.Wait/Status/Cancel and PlanBatch —
//     backed by a bounded worker pool with fail-fast admission (ErrBusy);
//   - a drain protocol (BeginDrain/Drain) for graceful shutdown behind a
//     load balancer, and panic containment: a panicking plan fails its job
//     with ErrPlanPanic instead of crashing the process.
//
// All methods are safe for concurrent use. Close shuts the service down.
type Service struct {
	planner  *Planner
	pkgFP    string
	cache    *planCache
	disk     *plancache.Store
	registry *rl.Registry
	pool     *parallel.Pool
	coalesce bool

	// root is the lifecycle context every job runs under; Close (and a
	// Drain deadline) cancels it.
	root     context.Context
	shutdown context.CancelFunc

	// jobsWG tracks every registered job from admission to its terminal
	// transition — what Drain waits on.
	jobsWG sync.WaitGroup
	// finalOnce guards the release of workers and the disk-tier flush,
	// shared by Close and Drain.
	finalOnce sync.Once

	// installedMu guards the provenance of the installed policy: the
	// registry path it came from ("" when installed via Pretrain or
	// LoadPolicy) and its fingerprint at install time.
	installedMu   sync.Mutex
	installedPath string // guarded by installedMu
	installedFP   string // guarded by installedMu

	// m holds every operational counter, gauge, and histogram, registered
	// on one telemetry registry; Stats() and GET /metrics read the same
	// instruments. now is the injectable clock behind the latency
	// histograms (a function value, so deterministic-lint stays happy and
	// tests can pin it).
	m   *serviceMetrics
	now func() time.Time

	mu          sync.Mutex
	closed      bool               // guarded by mu
	draining    bool               // guarded by mu
	seq         int                // guarded by mu
	jobs        map[string]*Job    // guarded by mu
	jobOrder    []string           // guarded by mu; insertion order, for terminal-job eviction
	maxRetained int                // guarded by mu
	inflight    map[string]*flight // guarded by mu
}

// serviceMetrics bundles the Service's instruments. Counters are never
// decremented (Prometheus monotonicity); live quantities are gauges or
// GaugeFuncs over the underlying structures. The admission contract that
// makes Stats() coherent: every admitted job increments exactly one
// memory-tier counter (hit or miss) *before* jobsSubmitted, a rejected
// submission (shed, draining) increments neither, and Stats() reads
// jobsSubmitted *before* the cache counters — so CacheHits+CacheMisses >=
// JobsSubmitted holds in every snapshot and equality holds at quiescence.
type serviceMetrics struct {
	reg *telemetry.Registry

	jobsSubmitted  *telemetry.Counter
	jobsShed       *telemetry.Counter
	jobsDone       *telemetry.Counter
	jobsFailed     *telemetry.Counter
	jobsCancelled  *telemetry.Counter
	jobsQueued     *telemetry.Gauge
	jobsRunning    *telemetry.Gauge
	plansExecuted  *telemetry.Counter
	plansCoalesced *telemetry.Counter
	memHits        *telemetry.Counter
	memMisses      *telemetry.Counter
	diskHits       *telemetry.Counter
	planCold       *telemetry.Histogram
	planWarm       *telemetry.Histogram
}

func newServiceMetrics() *serviceMetrics {
	reg := telemetry.NewRegistry()
	return &serviceMetrics{
		reg:            reg,
		jobsSubmitted:  reg.Counter("mcmpart_jobs_submitted_total", "Jobs admitted by Submit: served from cache, coalesced, or queued."),
		jobsShed:       reg.Counter("mcmpart_jobs_shed_total", "Submissions rejected with ErrBusy because the queue was full."),
		jobsDone:       reg.Counter("mcmpart_jobs_total", "Jobs finished, by terminal state.", telemetry.Label{Name: "state", Value: "done"}),
		jobsFailed:     reg.Counter("mcmpart_jobs_total", "Jobs finished, by terminal state.", telemetry.Label{Name: "state", Value: "failed"}),
		jobsCancelled:  reg.Counter("mcmpart_jobs_total", "Jobs finished, by terminal state.", telemetry.Label{Name: "state", Value: "cancelled"}),
		jobsQueued:     reg.Gauge("mcmpart_jobs_queued", "Admitted jobs waiting for a worker."),
		jobsRunning:    reg.Gauge("mcmpart_jobs_running", "Jobs a worker is currently planning."),
		plansExecuted:  reg.Counter("mcmpart_plans_executed_total", "Actual planner invocations (cache misses that ran)."),
		plansCoalesced: reg.Counter("mcmpart_plans_coalesced_total", "Requests that shared another request's in-flight plan."),
		memHits:        reg.Counter("mcmpart_cache_hits_total", "Plan-cache hits, by tier.", telemetry.Label{Name: "tier", Value: "memory"}),
		memMisses:      reg.Counter("mcmpart_cache_misses_total", "Plan-cache misses, by tier.", telemetry.Label{Name: "tier", Value: "memory"}),
		diskHits:       reg.Counter("mcmpart_cache_hits_total", "Plan-cache hits, by tier.", telemetry.Label{Name: "tier", Value: "disk"}),
		planCold:       reg.Histogram("mcmpart_plan_seconds", "Plan service latency: cold runs the planner, warm serves from cache.", telemetry.DefBuckets, telemetry.Label{Name: "path", Value: "cold"}),
		planWarm:       reg.Histogram("mcmpart_plan_seconds", "Plan service latency: cold runs the planner, warm serves from cache.", telemetry.DefBuckets, telemetry.Label{Name: "path", Value: "warm"}),
	}
}

// flight is one in-flight plan computation for one cache key: a leader job
// that actually plans, plus followers coalesced onto it. All fields except
// key/graph/graphFP are guarded by Service.mu.
type flight struct {
	key     string
	graph   *Graph
	graphFP string

	leader     *Job              // guarded by Service.mu
	leaderOpts PlanOptions       // guarded by Service.mu
	followers  []*flightFollower // guarded by Service.mu
	// done closes when the flight resolves (result, error, or abandoned
	// after the last waiter cancelled) — the signal follower watchers and
	// promotion exit on.
	done chan struct{}
}

// flightFollower is one coalesced request waiting on a flight.
type flightFollower struct {
	job      *Job
	progress ProgressFunc
	// promoted marks a follower that took over as leader after the
	// previous leader cancelled; detached marks one that cancelled while
	// waiting. Either way it is no longer in the followers slice.
	promoted bool // guarded by Service.mu
	detached bool // guarded by Service.mu
}

// NewService builds a service for one package. If opts.PolicyDir holds a
// policy pre-trained for the package, the newest one is installed
// immediately; otherwise the service starts policy-less (the from-scratch
// methods work, and a policy can still arrive via Pretrain, LoadPolicy, or
// a later registry drop picked up at plan time or by ReloadPolicies).
func NewService(pkg *Package, opts ServiceOptions) (*Service, error) {
	planner, err := NewPlanner(pkg)
	if err != nil {
		return nil, err
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("%w: Workers %d is negative; use 0 for the process default", ErrInvalidRequest, opts.Workers)
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("%w: QueueDepth %d is negative; use 0 for the default (4x workers)", ErrInvalidRequest, opts.QueueDepth)
	}
	if opts.MaxRetainedJobs < 0 {
		return nil, fmt.Errorf("%w: MaxRetainedJobs %d is negative; use 0 for the default (1024)", ErrInvalidRequest, opts.MaxRetainedJobs)
	}
	cacheEntries := opts.CacheEntries
	if cacheEntries == 0 {
		cacheEntries = 256
	}
	maxRetained := opts.MaxRetainedJobs
	if maxRetained == 0 {
		maxRetained = 1024
	}
	root, shutdown := context.WithCancel(context.Background())
	m := newServiceMetrics()
	s := &Service{
		planner:     planner,
		pkgFP:       rl.PackageFingerprint(pkg),
		cache:       newPlanCache(cacheEntries),
		pool:        parallel.NewPool(opts.Workers, opts.QueueDepth),
		coalesce:    !opts.DisableCoalescing,
		m:           m,
		now:         time.Now,
		root:        root,
		shutdown:    shutdown,
		jobs:        make(map[string]*Job),
		inflight:    make(map[string]*flight),
		maxRetained: maxRetained,
	}
	// Live quantities are read straight from the owning structures at
	// scrape time — there is no second copy to fall out of sync.
	m.reg.GaugeFunc("mcmpart_queue_depth", "Tasks waiting in the worker-pool queue right now.",
		func() float64 { return float64(s.pool.QueueLen()) })
	m.reg.GaugeFunc("mcmpart_queue_capacity", "Configured worker-pool queue bound; admission sheds beyond it.",
		func() float64 { return float64(s.pool.QueueCap()) })
	m.reg.GaugeFunc("mcmpart_workers", "Configured worker count.",
		func() float64 { return float64(s.pool.Workers()) })
	m.reg.GaugeFunc("mcmpart_workers_busy", "Workers executing a task right now.",
		func() float64 { return float64(s.pool.Busy()) })
	m.reg.GaugeFunc("mcmpart_cache_entries", "Plans currently held by the in-memory cache.",
		func() float64 { size, _ := s.cache.snapshot(); return float64(size) })
	m.reg.GaugeFunc("mcmpart_cache_capacity", "In-memory plan-cache entry bound (0 = caching disabled).",
		func() float64 { _, capacity := s.cache.snapshot(); return float64(capacity) })
	m.reg.GaugeFunc("mcmpart_draining", "1 while admission is stopped (BeginDrain/Drain/Close), else 0.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining || s.closed {
				return 1
			}
			return 0
		})
	if opts.CacheDir != "" {
		disk, err := plancache.Open(opts.CacheDir, log.Printf)
		if err != nil {
			s.pool.Close()
			shutdown()
			return nil, err
		}
		// Register the store's write-side counters and latency histograms
		// on the service registry. The disk *hit* counter stays service-
		// owned (m.diskHits): a hit means "served", which additionally
		// requires the payload to decode — the store's own read counters
		// include envelope-valid entries quarantined at that later step.
		disk.SetMetrics(plancache.Metrics{
			Writes:       m.reg.Counter("mcmpart_disk_writes_total", "Plans durably written to the disk tier."),
			WriteErrors:  m.reg.Counter("mcmpart_disk_write_errors_total", "Disk-tier writes that failed (logged; no partial entry remains)."),
			Quarantined:  m.reg.Counter("mcmpart_disk_quarantined_total", "Disk-tier entries set aside after failing verification."),
			ReadSeconds:  m.reg.Histogram("mcmpart_disk_read_seconds", "Disk-tier Get latency, hit or miss.", telemetry.DefBuckets),
			WriteSeconds: m.reg.Histogram("mcmpart_disk_write_seconds", "Disk-tier Put latency, success or failure.", telemetry.DefBuckets),
		})
		s.disk = disk
	}
	if opts.PolicyDir != "" {
		reg, err := rl.OpenRegistry(opts.PolicyDir)
		if err != nil {
			s.pool.Close()
			shutdown()
			return nil, err
		}
		s.registry = reg
		if err := s.installLatestFromRegistry(); err != nil {
			s.pool.Close()
			shutdown()
			return nil, err
		}
	}
	return s, nil
}

// Planner returns the underlying planner, e.g. to Pretrain through the
// service or to Assess a partition. The planner is concurrency-safe; a
// policy installed on it is picked up by subsequent plans (and, because
// the cache keys on the policy fingerprint, never by stale cache entries).
func (s *Service) Planner() *Planner { return s.planner }

// Package returns the package the service plans for.
func (s *Service) Package() *Package { return s.planner.Package() }

// installLatestFromRegistry installs the newest registry policy matching
// the package, if any. A registry with no matching policy is not an error.
func (s *Service) installLatestFromRegistry() error {
	policy, entry, found, err := s.registry.LoadLatest(s.planner.Package())
	if err != nil {
		return fmt.Errorf("mcmpart: loading policy %s from registry: %w", entry.Path, err)
	}
	if found {
		s.planner.installPolicy(policy)
		s.installedMu.Lock()
		s.installedPath = entry.Path
		s.installedFP = s.planner.PolicyFingerprint()
		s.installedMu.Unlock()
	}
	return nil
}

// ReloadPolicies rescans the policy directory and installs the newest
// policy for the package (a no-op without a PolicyDir). Use it after
// dropping a new artifact into the directory of a running service.
func (s *Service) ReloadPolicies() error {
	if s.registry == nil {
		return nil
	}
	if err := s.registry.Rescan(); err != nil {
		return err
	}
	return s.installLatestFromRegistry()
}

// SavePolicyToRegistry writes the planner's installed policy into the
// policy directory as the next version for this package.
func (s *Service) SavePolicyToRegistry() error {
	if s.registry == nil {
		return fmt.Errorf("%w: service has no policy directory", ErrInvalidRequest)
	}
	policy, _ := s.planner.snapshotPolicy()
	if policy == nil {
		return fmt.Errorf("%w: nothing to save; run Pretrain or LoadPolicy first", ErrPolicyRequired)
	}
	_, err := s.registry.Save(policy, s.planner.Package())
	return err
}

// Policies lists the installed policy and every registry artifact matching
// the service's package, oldest first, installed one marked. The installed
// mark uses the provenance recorded at install time (no artifact is read
// from disk here), and is dropped if the planner's policy changed since —
// e.g. a Pretrain through Planner() — in which case a synthetic
// path-less entry represents the installed policy instead.
func (s *Service) Policies() []PolicyInfo {
	installedFP := s.planner.PolicyFingerprint()
	s.installedMu.Lock()
	installedPath := s.installedPath
	if installedFP == "" || installedFP != s.installedFP {
		installedPath = "" // policy replaced outside the registry
	}
	s.installedMu.Unlock()
	var out []PolicyInfo
	seenInstalled := false
	if s.registry != nil {
		for _, e := range s.registry.ForPackage(s.planner.Package()) {
			info := PolicyInfo{
				Path:               e.Path,
				PackageName:        e.PackageName,
				PackageFingerprint: e.PackageFingerprint,
				Seq:                e.Seq,
			}
			if installedPath != "" && e.Path == installedPath {
				info.Installed = true
				seenInstalled = true
			}
			out = append(out, info)
		}
	}
	if installedFP != "" && !seenInstalled {
		out = append(out, PolicyInfo{
			PackageName:        s.planner.Package().Name,
			PackageFingerprint: s.pkgFP,
			Installed:          true,
		})
	}
	return out
}

// Stats returns a point-in-time operational snapshot, read from the same
// telemetry instruments GET /metrics serves.
//
// Snapshot coherence: the job counters are read *before* the cache
// counters, and every admission increments its cache-tier counter before
// jobsSubmitted (see serviceMetrics), so CacheHits+CacheMisses >=
// JobsSubmitted holds in every snapshot — even mid-burst — and the two
// sides are equal once the service is quiescent.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Package:            s.planner.Package().Name,
		PackageFingerprint: s.pkgFP,
		Workers:            s.pool.Workers(),
		QueueDepth:         s.pool.QueueLen(),
		QueueCapacity:      s.pool.QueueCap(),
		PolicyInstalled:    s.planner.HasPolicy(),
		PolicyFingerprint:  s.planner.PolicyFingerprint(),
	}
	st.JobsSubmitted = s.m.jobsSubmitted.Value()
	st.JobsDone = s.m.jobsDone.Value()
	st.JobsFailed = s.m.jobsFailed.Value()
	st.JobsCancelled = s.m.jobsCancelled.Value()
	st.JobsShed = s.m.jobsShed.Value()
	st.JobsQueued = int(s.m.jobsQueued.Value())
	st.JobsRunning = int(s.m.jobsRunning.Value())
	st.PlansExecuted = s.m.plansExecuted.Value()
	st.PlansCoalesced = s.m.plansCoalesced.Value()
	st.DiskCacheHits = s.m.diskHits.Value()
	st.CacheHits = s.m.memHits.Value()
	st.CacheMisses = s.m.memMisses.Value()
	st.CacheEntries, st.CacheCapacity = s.cache.snapshot()
	if s.registry != nil {
		st.RegistryPolicies = len(s.registry.ForPackage(s.planner.Package()))
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		st.DiskCacheWrites = ds.Writes
		st.DiskCacheWriteErrors = ds.WriteErrors
		st.DiskCacheQuarantined = ds.Quarantined
	}
	s.mu.Lock()
	st.Draining = s.draining || s.closed
	s.mu.Unlock()
	return st
}

// Metrics returns the service's telemetry registry — the instruments
// behind Stats(), ready to serve as a Prometheus text exposition via
// telemetry.Handler (cmd/mcmpartd mounts it at GET /metrics).
func (s *Service) Metrics() *telemetry.Registry { return s.m.reg }

// Job returns a submitted job by ID. Terminal jobs stay addressable until
// evicted by the retention bound.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// ensurePolicy makes the deployed-policy methods servable: if no policy is
// installed but a registry is configured, the newest matching policy is
// installed now — the "automatic policy selection at plan time".
func (s *Service) ensurePolicy(method Method) error {
	if method != MethodZeroShot && method != MethodFineTune {
		return nil
	}
	if s.planner.HasPolicy() {
		return nil
	}
	if s.registry != nil {
		if err := s.registry.Rescan(); err != nil {
			return err
		}
		if err := s.installLatestFromRegistry(); err != nil {
			return err
		}
		if s.planner.HasPolicy() {
			return nil
		}
	}
	return fmt.Errorf("%w: method %q needs Pretrain, LoadPolicy, or an artifact for this package in the policy directory", ErrPolicyRequired, method)
}

// Submit validates and admits one plan request, returning the Job tracking
// it. Submission is fail-fast: a malformed request, a missing policy, or a
// full queue (ErrBusy) is reported now, not from inside the job. ctx covers
// admission only — the job itself runs under the service's lifecycle and
// stops via Job.Cancel or Close.
//
// If the plan cache (memory or disk tier) already holds the result, Submit
// returns an already-terminal job carrying a copy of it (Status().Cached ==
// true) without consuming a worker. If another request for the same cache
// key is already in flight, the new job coalesces onto it
// (Status().Coalesced == true): it waits for the leader's plan and receives
// a deep copy of its result, without invoking the planner. Cancelling a
// coalesced job detaches it without disturbing the leader; cancelling the
// leader promotes a waiting follower to re-plan, so followers never lose
// their result to someone else's cancellation.
func (s *Service) Submit(ctx context.Context, req PlanRequest) (*Job, error) {
	start := s.now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Graph == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrInvalidRequest)
	}
	if err := req.Graph.Validate(); err != nil {
		return nil, err
	}
	opts, err := req.Options.normalized()
	if err != nil {
		return nil, err
	}
	if err := s.ensurePolicy(opts.Method); err != nil {
		return nil, err
	}
	rid := RequestIDFrom(ctx)

	graphFP := req.Graph.Fingerprint()
	key := planCacheKey(graphFP, s.pkgFP, s.planner.PolicyFingerprint(), opts)
	if res, ok := s.cache.get(key); ok {
		return s.cachedJob(res, rid, start, s.m.memHits)
	}
	// In-memory miss: consult the disk tier (outside s.mu — it does IO).
	// A verified entry is promoted into the memory cache on the way out.
	// A disk hit is a memory miss: the tier counters partition admissions.
	if s.disk != nil {
		if res, ok := s.diskGet(key); ok {
			s.cache.put(key, res)
			return s.cachedJob(res, rid, start, s.m.memMisses, s.m.diskHits)
		}
	}

	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, ErrServiceClosed
	}
	// Single-flight: coalesce onto an in-flight computation for this key.
	if s.coalesce {
		if fl, ok := s.inflight[key]; ok {
			job := s.registerJobLocked(rid)
			job.markCoalesced()
			f := &flightFollower{job: job, progress: opts.Progress}
			fl.followers = append(fl.followers, f)
			s.m.memMisses.Inc() // tier outcome first, then jobsSubmitted
			s.m.plansCoalesced.Inc()
			s.m.jobsSubmitted.Inc()
			s.mu.Unlock()
			go s.watchFollower(fl, f)
			return job, nil
		}
	}
	job := s.registerJobLocked(rid)
	fl := &flight{
		key:        key,
		graph:      req.Graph,
		graphFP:    graphFP,
		leader:     job,
		leaderOpts: opts,
		done:       make(chan struct{}),
	}
	if s.coalesce {
		s.inflight[key] = fl
	}
	// The queued gauge rises before TrySubmit: a worker may pick the task
	// up (and decrement) the instant it lands in the channel.
	s.m.jobsQueued.Inc()
	if err := s.pool.TrySubmit(func() { s.runFlight(fl) }); err != nil {
		// Roll the admission back entirely: the caller gets the error, not
		// a registered failed job. (Still under s.mu, so no follower can
		// have attached to the aborted flight.) jobsSubmitted was never
		// incremented for this job — it counts only successful admissions,
		// so there is no decrement to make and the counter stays monotone;
		// the refusal is counted on jobsShed instead.
		if s.coalesce {
			delete(s.inflight, key)
		}
		s.m.jobsQueued.Dec()
		delete(s.jobs, job.id)
		for i := len(s.jobOrder) - 1; i >= 0; i-- {
			if s.jobOrder[i] == job.id {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		job.cancel() // release the job's child context
		s.jobsWG.Done()
		switch {
		case errors.Is(err, parallel.ErrPoolFull):
			s.m.jobsShed.Inc()
			return nil, ErrBusy
		case errors.Is(err, parallel.ErrPoolClosed):
			return nil, ErrServiceClosed
		default:
			return nil, err
		}
	}
	s.m.memMisses.Inc() // tier outcome first, then jobsSubmitted
	s.m.jobsSubmitted.Inc()
	s.mu.Unlock()
	return job, nil
}

// cachedJob registers an already-terminal job carrying a cache hit. start
// is when Submit began — the warm-path latency observation. tiers are the
// cache-tier counters this admission lands on (memory hit, or memory miss
// + disk hit); they are incremented only once admission is certain, so a
// draining rejection counts on no tier.
func (s *Service) cachedJob(res *Result, rid string, start time.Time, tiers ...*telemetry.Counter) (*Job, error) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, ErrServiceClosed
	}
	job := s.registerJobLocked(rid)
	for _, tier := range tiers {
		tier.Inc() // tier outcome first, then jobsSubmitted
	}
	s.m.jobsSubmitted.Inc()
	s.mu.Unlock()
	s.finishJob(job, JobDone, res, nil, true)
	s.m.planWarm.Observe(s.now().Sub(start).Seconds())
	return job, nil
}

// diskGet reads and decodes one disk-tier entry; an envelope-valid entry
// whose payload does not decode is quarantined like any other corruption.
// The disk-hit counter is NOT incremented here — the caller counts it at
// admission, so a request rejected after a successful read stays off the
// books.
func (s *Service) diskGet(key string) (*Result, bool) {
	payload, ok := s.disk.Get(key)
	if !ok {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		s.disk.Quarantine(key, fmt.Errorf("undecodable payload: %w", err))
		return nil, false
	}
	return &res, true
}

// registerJobLocked allocates, registers, and retention-evicts under s.mu.
// Every registered job holds one jobsWG count until its terminal
// transition (finishJob) or an admission rollback. The submitted counter
// is NOT incremented here — callers increment it only once admission is
// certain, so it never needs a rollback decrement.
func (s *Service) registerJobLocked(requestID string) *Job {
	s.seq++
	s.jobsWG.Add(1)
	jobCtx, cancel := context.WithCancel(s.root)
	job := newJob(fmt.Sprintf("job-%06d", s.seq), jobCtx, cancel)
	job.requestID = requestID
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job.id)
	// Evict oldest terminal jobs beyond the retention bound (and drop ids
	// whose job was already removed, e.g. by an admission rollback).
	if len(s.jobs) > s.maxRetained {
		kept := s.jobOrder[:0]
		for _, id := range s.jobOrder {
			j, ok := s.jobs[id]
			if !ok {
				continue
			}
			if len(s.jobs) > s.maxRetained && j.Status().State.Terminal() {
				delete(s.jobs, id)
				continue
			}
			kept = append(kept, id)
		}
		s.jobOrder = kept
	}
	return job
}

// watchFollower detaches a coalesced job whose own context is cancelled
// before the flight resolves: the follower finishes cancelled, the flight
// (and its leader) is untouched. Exits when the flight resolves.
func (s *Service) watchFollower(fl *flight, f *flightFollower) {
	select {
	case <-f.job.ctx.Done():
		s.mu.Lock()
		detached := false
		if !f.promoted && !f.detached {
			f.detached = true
			for i, other := range fl.followers {
				if other == f {
					fl.followers = append(fl.followers[:i], fl.followers[i+1:]...)
					break
				}
			}
			detached = true
		}
		s.mu.Unlock()
		if detached {
			s.finishJob(f.job, JobCancelled, nil, f.job.ctx.Err(), false)
		}
	case <-fl.done:
		// Resolved (or abandoned): the resolver finished this job.
	}
}

// runFlight executes one flight on a pool worker. The loop is the leader
// hand-off protocol: if the current leader's plan is cancelled, it keeps
// its best-so-far result and a waiting follower is promoted to re-plan in
// this same worker slot — a follower never loses its result because some
// other caller gave up. A successful plan resolves the whole flight; a
// plan error is deterministic for the key (plans are a pure function of
// it), so it resolves the flight too.
func (s *Service) runFlight(fl *flight) {
	s.m.jobsQueued.Dec()
	for {
		s.mu.Lock()
		job, opts := fl.leader, fl.leaderOpts
		s.mu.Unlock()

		// The key was built from the policy fingerprint observed at
		// admission. If the installed policy changed between then and now,
		// re-key so the stored entry describes the policy that actually
		// planned; if it changes again *during* the plan, skip the store
		// (fpBefore/fpAfter bracket Plan's own policy snapshot, so
		// equality proves the key).
		fpBefore := s.planner.PolicyFingerprint()
		res, err := s.planOnce(fl, job, opts)
		fpAfter := s.planner.PolicyFingerprint()

		switch {
		case err == nil:
			if fpBefore == fpAfter {
				key := planCacheKey(fl.graphFP, s.pkgFP, fpBefore, opts)
				s.cache.put(key, res)
				if s.disk != nil {
					if payload, merr := json.Marshal(res); merr == nil {
						_ = s.disk.Put(key, payload) // logged + counted by the store
					}
				}
			}
			s.resolveFlight(fl, res, nil)
			return
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Best-so-far semantics: a cancelled plan may still carry a
			// result — it belongs to the cancelled leader only.
			s.finishJob(job, JobCancelled, res, err, false)
			if !s.promoteNext(fl) {
				return // no waiters left; flight closed by promoteNext
			}
		default:
			s.resolveFlight(fl, nil, err)
			return
		}
	}
}

// planOnce runs one plan attempt for the flight's current leader,
// containing panics (ErrPlanPanic) and injected evaluator faults. Progress
// events fan out to the leader and every currently attached follower.
func (s *Service) planOnce(fl *flight, job *Job, opts PlanOptions) (res *Result, err error) {
	if job.ctx.Err() != nil || !job.markRunning() {
		return nil, context.Canceled
	}
	s.m.jobsRunning.Inc()
	s.m.plansExecuted.Inc()
	start := s.now()
	defer func() {
		s.m.planCold.Observe(s.now().Sub(start).Seconds())
		s.m.jobsRunning.Dec()
	}()

	userProgress := opts.Progress
	opts.Progress = func(ev ProgressEvent) {
		job.recordProgress(ev)
		if userProgress != nil {
			userProgress(ev)
		}
		s.mu.Lock()
		followers := append([]*flightFollower(nil), fl.followers...)
		s.mu.Unlock()
		for _, f := range followers {
			f.job.recordProgress(ev)
			if f.progress != nil {
				f.progress(ev)
			}
		}
	}

	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrPlanPanic, r)
		}
	}()
	if ferr := faultinject.Check(faultinject.PointPlanEvaluate); ferr != nil {
		return nil, fmt.Errorf("mcmpart: injected evaluator fault: %w", ferr)
	}
	return s.planner.Plan(job.ctx, fl.graph, opts)
}

// promoteNext hands the flight to the first still-waiting follower after
// the leader cancelled, reporting whether there is a new leader to run. If
// no followers remain, the flight is closed (removed from the in-flight
// table so a later identical request plans fresh).
func (s *Service) promoteNext(fl *flight) bool {
	s.mu.Lock()
	if len(fl.followers) == 0 {
		if cur, ok := s.inflight[fl.key]; ok && cur == fl {
			delete(s.inflight, fl.key)
		}
		close(fl.done)
		s.mu.Unlock()
		return false
	}
	next := fl.followers[0]
	fl.followers = fl.followers[1:]
	next.promoted = true
	fl.leader = next.job
	fl.leaderOpts.Progress = next.progress
	s.mu.Unlock()
	return true
}

// resolveFlight finishes the flight's leader and every attached follower
// with the plan's outcome. Job.finish clones the result on retention (and
// Job.Result on the way out), so no caller can corrupt another's result.
func (s *Service) resolveFlight(fl *flight, res *Result, err error) {
	s.mu.Lock()
	if cur, ok := s.inflight[fl.key]; ok && cur == fl {
		delete(s.inflight, fl.key)
	}
	leader := fl.leader
	followers := fl.followers
	fl.followers = nil
	close(fl.done)
	s.mu.Unlock()

	if err == nil {
		s.finishJob(leader, JobDone, res, nil, false)
		for _, f := range followers {
			s.finishJob(f.job, JobDone, res, nil, false)
		}
		return
	}
	s.finishJob(leader, JobFailed, nil, err, false)
	for _, f := range followers {
		s.finishJob(f.job, JobFailed, nil, err, false)
	}
}

// finishJob finalizes a job, updates the terminal counters, and releases
// its drain count. Safe to call twice (only the transition that wins
// counts).
func (s *Service) finishJob(job *Job, state JobState, res *Result, err error, cached bool) {
	if !job.finish(state, res, err, cached) {
		return
	}
	switch state {
	case JobDone:
		s.m.jobsDone.Inc()
	case JobFailed:
		s.m.jobsFailed.Inc()
	case JobCancelled:
		s.m.jobsCancelled.Inc()
	}
	job.release()
	s.jobsWG.Done()
}

// Plan is the synchronous, cache-aware entry point: Submit + Wait. When ctx
// is cancelled or expires mid-plan, the job is cancelled and Plan returns
// its best-so-far result together with ctx's error — the same contract as
// Planner.Plan.
func (s *Service) Plan(ctx context.Context, g *Graph, opts PlanOptions) (*Result, error) {
	job, err := s.Submit(ctx, PlanRequest{Graph: g, Options: opts})
	if err != nil {
		return nil, err
	}
	return job.await(ctx)
}

// PlanBatch submits every request and waits for all of them. The results
// slice is index-aligned with reqs; entries whose plan failed are nil. The
// returned error is the lowest-index failure (admission or plan), so the
// error a caller sees is deterministic. Cancelling ctx cancels every
// outstanding job immediately — running ones keep their best-so-far
// results, queued ones finish cancelled without consuming a worker.
func (s *Service) PlanBatch(ctx context.Context, reqs []PlanRequest) ([]*Result, error) {
	jobs := make([]*Job, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		jobs[i], errs[i] = s.Submit(ctx, req)
	}
	// Fan the batch cancellation out to every job as soon as ctx is done.
	// Waiting for the sequential loop below to reach each index would let
	// queued jobs later in the batch run to completion on workers the
	// caller has already given up on.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			for _, job := range jobs {
				if job != nil {
					job.Cancel()
				}
			}
		case <-watchDone:
		}
	}()
	results := make([]*Result, len(reqs))
	for i, job := range jobs {
		if job == nil {
			continue
		}
		select {
		case <-job.Done():
		case <-ctx.Done():
			job.Cancel()
			<-job.Done()
		}
		results[i], errs[i] = job.Result()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// BeginDrain stops admission — Submit, Plan, and PlanBatch return
// ErrServiceClosed (503 + Retry-After over HTTP) — without disturbing
// queued or running jobs. It is the first step of graceful shutdown; pair
// with Drain, or poll Stats until JobsQueued and JobsRunning reach zero.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain gracefully shuts the service down: admission stops immediately,
// then previously admitted jobs run to completion. If ctx expires first,
// the remaining jobs are cancelled (keeping their best-so-far results,
// like Close) and ctx's error is returned. Either way the workers are
// released and the disk cache tier is flushed before Drain returns. Drain
// and Close are both idempotent and safe to combine.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	drained := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.shutdown()
		<-drained
	}
	s.finalize()
	return err
}

// Close stops admission, cancels every queued and running job (their
// best-so-far results are kept, mirroring plan cancellation), waits for the
// workers to drain, flushes the disk cache tier, and returns. Close is
// idempotent. For graceful shutdown — let in-flight work finish first —
// use Drain.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.shutdown()
	s.finalize()
	return nil
}

// finalize releases the workers and flushes the disk tier exactly once,
// after which the service is fully closed.
func (s *Service) finalize() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pool.Close()
	s.finalOnce.Do(func() {
		if s.disk != nil {
			_ = s.disk.Flush()
		}
	})
}
