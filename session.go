package nanobench

import (
	"context"
	"fmt"

	"nanobench/internal/nano"
	"nanobench/internal/sched"
	"nanobench/internal/uarch"
)

// A Session evaluates microbenchmarks on one CPU model in one privilege
// mode. It owns its machine pool (one independently-seeded simulated
// machine per in-flight evaluation), its scheduler, and its result cache;
// two sessions never share mutable state unless they were given the same
// cache via WithCache. A Session is safe for concurrent use.
//
// All evaluation methods take a context.Context: cancellation or a
// deadline aborts between individual benchmark runs, completed results
// are kept (partial results on cancellation), and no worker goroutine
// outlives the sweep beyond the evaluation it was simulating.
type Session struct {
	cpu         CPU
	mode        Mode
	seed        int64
	warmUp      int
	dropSamples bool
	cache       *BatchCache
	exec        *BatchExecutor
}

// sessionOptions collects the functional options of Open.
type sessionOptions struct {
	cpuName     string
	mode        Mode
	seed        int64
	parallelism int
	warmUp      int
	retain      bool
	cache       *BatchCache
	cacheSet    bool
}

// Option configures a Session at Open time.
type Option func(*sessionOptions)

// WithCPU selects the machine model (default "Skylake"; see CPUNames).
func WithCPU(name string) Option {
	return func(o *sessionOptions) { o.cpuName = name }
}

// WithMode selects user- or kernel-space operation (default Kernel, like
// the paper's kernel module).
func WithMode(mode Mode) Option {
	return func(o *sessionOptions) { o.mode = mode }
}

// WithSeed sets the root seed per-evaluation machine seeds derive from
// (default DefaultBatchSeed). The derivation depends only on the root
// seed and the config's batch index, never on scheduling.
func WithSeed(seed int64) Option {
	return func(o *sessionOptions) { o.seed = seed }
}

// WithParallelism bounds the number of concurrently simulated machines;
// 0 or negative means runtime.NumCPU(). Results are byte-identical for
// any parallelism level.
func WithParallelism(n int) Option {
	return func(o *sessionOptions) { o.parallelism = n }
}

// WithCache supplies the session's result cache — pass a shared
// NewBatchCache to let several sessions reuse each other's evaluations,
// or nil to disable caching entirely. By default every session gets its
// own private cache.
func WithCache(c *BatchCache) Option {
	return func(o *sessionOptions) { o.cache = c; o.cacheSet = true }
}

// WithWarmUp sets a session-wide default warm-up count: configs that
// leave WarmUpCount at zero inherit it (configs that set their own keep
// it, and WarmUpCount: NoWarmUp requests explicitly zero warm-up runs).
// The default is DefaultWarmUpCount, i.e. no warm-up runs.
func WithWarmUp(n int) Option {
	return func(o *sessionOptions) { o.warmUp = n }
}

// WithSampleRetention controls whether Results keep the raw per-run
// samples behind each aggregated metric value (default true). With
// retention off, every config the session evaluates gets
// Config.DropSamples set: metrics carry only their aggregate, which for
// million-config sweeps cuts the result-cache footprint and the
// deep-copy cost of every cache hit. Configs that set DropSamples
// themselves drop their samples regardless of the session setting.
func WithSampleRetention(retain bool) Option {
	return func(o *sessionOptions) { o.retain = retain }
}

// Open builds a session. The CPU model is validated eagerly, so an
// unknown name fails here rather than on the first Run.
func Open(opts ...Option) (*Session, error) {
	o := sessionOptions{
		cpuName: "Skylake",
		mode:    Kernel,
		seed:    DefaultBatchSeed,
		warmUp:  DefaultWarmUpCount,
		retain:  true,
	}
	for _, opt := range opts {
		opt(&o)
	}
	cpu, err := uarch.ByName(o.cpuName)
	if err != nil {
		return nil, fmt.Errorf("nanobench: open: %w", err)
	}
	if o.warmUp == NoWarmUp {
		o.warmUp = 0 // the explicit-zero sentinel is as good as the default
	}
	if o.warmUp < 0 {
		return nil, fmt.Errorf("nanobench: open: negative warm-up count %d", o.warmUp)
	}
	cache := o.cache
	if !o.cacheSet {
		cache = sched.NewCache()
	}
	return &Session{
		cpu:         cpu,
		mode:        o.mode,
		seed:        o.seed,
		warmUp:      o.warmUp,
		dropSamples: !o.retain,
		cache:       cache,
		exec: sched.New(sched.Options{
			Workers:  o.parallelism,
			RootSeed: o.seed,
			Cache:    cache,
		}),
	}, nil
}

// CPUName returns the session's machine model name.
func (s *Session) CPUName() string { return s.cpu.Name }

// Mode returns the session's privilege mode.
func (s *Session) Mode() Mode { return s.mode }

// Seed returns the session's root seed.
func (s *Session) Seed() int64 { return s.seed }

// Cache returns the session's result cache (nil when caching is
// disabled).
func (s *Session) Cache() *BatchCache { return s.cache }

// Run evaluates one configuration and returns its typed result. It is
// equivalent to a one-element RunBatch: the evaluation runs on a fresh
// machine seeded for batch index 0, and repeated identical Runs are
// served from the session cache.
func (s *Session) Run(ctx context.Context, cfg Config) (*Result, error) {
	res, err := s.RunBatch(ctx, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunBatch evaluates the configurations in parallel across the session's
// machine pool and returns the results in config order, byte-identical
// for any parallelism level. Failed configs leave a nil entry and their
// errors are joined into the returned error; on context cancellation the
// completed results are still returned alongside the context error.
func (s *Session) RunBatch(ctx context.Context, cfgs []Config) ([]*Result, error) {
	return s.exec.RunContext(ctx, s.jobs(cfgs))
}

// Stream evaluates the configurations and delivers the results in config
// order over the returned channel, each as soon as it and all its
// predecessors are available. The channel closes after the last item. On
// cancellation the completed prefix is still delivered in order, the
// remaining configs arrive as items carrying the context's error, and
// the channel closes promptly.
func (s *Session) Stream(ctx context.Context, cfgs []Config) <-chan BatchItem {
	return s.exec.StreamContext(ctx, s.jobs(cfgs))
}

// RunSweep expands the sweep into its config family and evaluates it like
// RunBatch; results are in the sweep's deterministic expansion order.
func (s *Session) RunSweep(ctx context.Context, sw *Sweep) ([]*Result, error) {
	cfgs, err := sw.Configs()
	if err != nil {
		return nil, err
	}
	return s.RunBatch(ctx, cfgs)
}

// StreamSweep expands the sweep and streams its results like Stream.
func (s *Session) StreamSweep(ctx context.Context, sw *Sweep) (<-chan BatchItem, error) {
	cfgs, err := sw.Configs()
	if err != nil {
		return nil, err
	}
	return s.Stream(ctx, cfgs), nil
}

// NewMachine builds a fresh simulated machine of the session's CPU model,
// seeded with the session's root seed — for tools that need direct
// machine access, like the simulated kernel module (internal/kmod).
func (s *Session) NewMachine() (*Machine, error) {
	return s.cpu.NewMachine(s.seed)
}

// NewRunner builds a fresh machine plus a runner in the session's mode —
// for the case-study tools that drive a runner directly (the cache
// analysis tools take a Runner; serial instruction sweeps share one).
func (s *Session) NewRunner() (*Runner, error) {
	m, err := s.NewMachine()
	if err != nil {
		return nil, err
	}
	return nano.NewRunner(m, s.mode)
}

// CacheStats reports the session cache's lookup hits and misses (zeros
// when caching is disabled).
func (s *Session) CacheStats() (hits, misses uint64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Stats()
}

// CacheInfo returns a snapshot of the session cache's occupancy and
// lookup counters (the zero value when caching is disabled).
func (s *Session) CacheInfo() BatchCacheInfo {
	if s.cache == nil {
		return BatchCacheInfo{}
	}
	return s.cache.Info()
}

// jobs lifts configs into scheduler jobs, applying the session's default
// warm-up count to configs that leave WarmUpCount at zero and the
// session's sample-retention policy.
func (s *Session) jobs(cfgs []Config) []BatchJob {
	jobs := make([]BatchJob, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.WarmUpCount == 0 {
			cfg.WarmUpCount = s.warmUp
		}
		if s.dropSamples {
			cfg.DropSamples = true
		}
		jobs[i] = BatchJob{CPU: s.cpu.Name, Mode: s.mode, Cfg: cfg}
	}
	return jobs
}
