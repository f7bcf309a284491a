// Package sched is a deterministic batch executor for microbenchmark
// sweeps. It fans a slice of jobs — each a (CPU model, privilege mode,
// nano.Config) triple — out across a shared-counter worker pool (ForEach)
// of independently-seeded simulated machines, one live machine per in-flight
// job (a machine.Machine is single-threaded), and memoizes results in a
// content-addressed cache so repeated sweeps hit memory instead of
// re-simulating.
//
// # Seeding and determinism contract
//
// Results are byte-identical for any worker count. Two mechanisms make the
// schedule invisible in the output:
//
//  1. Every job's machine seed is derived from the executor's root seed and
//     a stable index — never from scheduling order. DeriveSeed(root, i)
//     mixes the root seed and index through SplitMix64.
//
//  2. Jobs are deduplicated by content key before execution. All jobs in a
//     batch that share a key (same CPU, mode, and canonicalized Config) are
//     fulfilled by a single evaluation whose seed comes from the LOWEST job
//     index with that key. Which worker runs the evaluation, and when, can
//     therefore never influence which seed produced a result.
//
// The cache is keyed by content plus the derived seed (see KeyOf and
// withSeed), so re-running a sweep returns the identical values without
// re-simulating, while the same content at a different batch index — a
// different seed — is honestly re-evaluated rather than served a result
// computed under another seed. Cache hits hand out deep copies:
// pointer-distinct, value-equal results. A cache may be bounded with
// least-recently-used eviction (NewCacheLRU) — the configuration
// long-running services use — and exposes occupancy and hit/miss/
// eviction counters (Info) for their stats endpoints.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nanobench/internal/nano"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
)

// Job is one microbenchmark evaluation: a Config to run on a named CPU
// model in the given privilege mode.
type Job struct {
	// CPU names a machine model from the uarch catalog (e.g. "Skylake").
	CPU string
	// Mode selects user- or kernel-space operation.
	Mode machine.Mode
	// Cfg is the microbenchmark configuration to evaluate.
	Cfg nano.Config
	// BigArea, when nonzero, pre-allocates a physically-contiguous region
	// of that many bytes (Config.UseBigArea requires it).
	BigArea uint64
}

// Options configures an Executor.
type Options struct {
	// Workers bounds the number of concurrently simulated machines;
	// 0 or negative means runtime.NumCPU().
	Workers int
	// RootSeed is the root of the per-job seed derivation (DeriveSeed).
	// The zero value is a valid root seed.
	RootSeed int64
	// Cache, when non-nil, memoizes results across Run/Stream calls. An
	// executor without a cache still deduplicates within each batch.
	Cache *Cache
}

// Item is one delivered result of a streaming batch.
type Item struct {
	// Index is the position of the job in the submitted slice.
	Index int
	// Result is the evaluation's outcome; nil when Err is set.
	Result *nano.Result
	// Err reports a failed job; the remaining jobs still run.
	Err error
	// CacheHit marks a result served from the executor's cache rather
	// than a fresh simulation.
	CacheHit bool
}

// Executor runs batches of jobs. It is safe for concurrent use.
type Executor struct {
	opts Options
}

// New builds an executor.
func New(opts Options) *Executor { return &Executor{opts: opts} }

// DeriveSeed derives the machine seed for the job at the given index from
// the root seed, via a SplitMix64 step. The derivation depends only on
// (root, index), never on scheduling order.
func DeriveSeed(root int64, index int) int64 {
	z := uint64(root) + 0x9E3779B97F4A7C15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Run evaluates all jobs and returns their results in job order. Failed
// jobs leave a nil entry; the joined per-job errors are returned alongside
// the successful results (an error in one job never wedges the pool).
func (e *Executor) Run(jobs []Job) ([]*nano.Result, error) {
	return e.RunContext(context.Background(), jobs)
}

// RunContext is Run bounded by a context. On cancellation (or a missed
// deadline) the already-completed jobs keep their results — partial
// results are returned, not discarded — and every job that was skipped or
// interrupted carries the context's error in the joined error value.
func (e *Executor) RunContext(ctx context.Context, jobs []Job) ([]*nano.Result, error) {
	results := make([]*nano.Result, len(jobs))
	errs := make([]error, len(jobs))
	e.execute(ctx, jobs, func(it Item) {
		results[it.Index] = it.Result
		errs[it.Index] = it.Err
	})
	return results, errors.Join(errs...)
}

// Stream evaluates all jobs and delivers their results over the returned
// channel in job-index order, each as soon as it and all its predecessors
// are available. The channel is closed after the last item; the sequence
// of items is deterministic for any worker count.
func (e *Executor) Stream(jobs []Job) <-chan Item {
	return e.StreamContext(context.Background(), jobs)
}

// StreamContext is Stream bounded by a context. On cancellation the
// channel still delivers the completed prefix in order; jobs that were
// skipped or interrupted are delivered as Items carrying the context's
// error, and the channel closes promptly after the last one — consumers
// never block on a cancelled sweep, and no worker goroutine outlives it
// beyond the unit it was simulating.
func (e *Executor) StreamContext(ctx context.Context, jobs []Job) <-chan Item {
	// execute delivers out of order; a sequencer emits in index order.
	// Buffered to len(jobs): the sequencer can always run to completion
	// and exit, so a consumer that abandons the channel early leaks
	// nothing beyond the (garbage-collectable) buffered items.
	out := make(chan Item, len(jobs))
	go func() {
		defer close(out)
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		ready := make([]bool, len(jobs))
		items := make([]Item, len(jobs))
		go func() {
			e.execute(ctx, jobs, func(it Item) {
				mu.Lock()
				items[it.Index] = it
				ready[it.Index] = true
				cond.Broadcast()
				mu.Unlock()
			})
		}()
		for i := range jobs {
			mu.Lock()
			for !ready[i] {
				cond.Wait()
			}
			it := items[i]
			mu.Unlock()
			out <- it
		}
	}()
	return out
}

// unit is one deduplicated evaluation: the job positions sharing a
// content key, in ascending order. The first position is the
// representative; its index alone determines the machine seed.
type unit struct {
	key  Key
	jobs []int
}

// execute runs the batch, calling deliver exactly once per job position
// (from worker goroutines; deliver must be safe for concurrent use).
// When ctx is cancelled, in-flight units still deliver (the runner aborts
// between measurement runs), and every not-yet-started unit delivers the
// context's error instead of simulating.
func (e *Executor) execute(ctx context.Context, jobs []Job, deliver func(Item)) {
	byKey := make(map[Key]*unit, len(jobs))
	var units []*unit
	for i, j := range jobs {
		k := KeyOf(j)
		u := byKey[k]
		if u == nil {
			u = &unit{key: k}
			byKey[k] = u
			units = append(units, u)
		}
		u.jobs = append(u.jobs, i)
	}
	// Which worker simulates a unit, and when, never reaches the output:
	// every result is fully determined by the unit itself. Each unit
	// delivers its own outcome, so ForEach's joined error is always nil.
	_ = ForEach(len(units), e.opts.Workers, func(k int) error {
		u := units[k]
		res, hit, err := e.runUnit(ctx, jobs, u)
		for n, i := range u.jobs {
			it := Item{Index: i, Result: res, Err: err, CacheHit: hit}
			if res != nil && (hit || n > 0) {
				// The cached copy and the representative's own result
				// are never shared.
				it.Result = res.Clone()
			}
			deliver(it)
		}
		return nil
	})
}

// runUnit evaluates one deduplicated unit: from the cache when possible,
// otherwise by simulating the representative job. The cache key pins
// both the content and the derived seed, so a hit is guaranteed to equal
// what a cold evaluation would compute. A hit returns the cached copy
// itself (hit is true); the caller must clone it. A panic is contained
// here, at the one boundary every evaluation passes: it becomes an error
// naming the content key, and nothing is cached.
func (e *Executor) runUnit(ctx context.Context, jobs []Job, u *unit) (res *nano.Result, hit bool, err error) {
	rep := u.jobs[0]
	defer func() {
		if p := recover(); p != nil {
			res, hit, err = nil, false, fmt.Errorf("sched: job %d (content key %x): panic: %v", rep, u.key, p)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	seed := DeriveSeed(e.opts.RootSeed, rep)
	cacheKey := withSeed(u.key, seed)
	if c := e.opts.Cache; c != nil {
		if cached := c.get(cacheKey); cached != nil {
			return cached, true, nil
		}
	}
	j := jobs[rep]
	res, err = evaluate(ctx, j, seed)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Interrupted mid-evaluation: report the bare context error so
			// callers can distinguish cancellation from real failures. (A
			// genuine evaluation error that merely coincides with a
			// cancelled context falls through and keeps its cause.)
			return nil, false, err
		}
		return nil, false, fmt.Errorf("sched: job %d (%s, %v): %w", rep, j.CPU, j.Mode, err)
	}
	if c := e.opts.Cache; c != nil {
		c.put(cacheKey, res)
	}
	return res, false, nil
}

// evaluate is the one evaluation path; a variable only so tests can
// inject a faulty evaluation.
var evaluate = simulate

// simulate evaluates one job on a fresh machine with the given seed.
func simulate(ctx context.Context, j Job, seed int64) (*nano.Result, error) {
	cpu, err := uarch.ByName(j.CPU)
	if err != nil {
		return nil, err
	}
	m, err := cpu.NewMachine(seed)
	if err != nil {
		return nil, err
	}
	r, err := nano.NewRunner(m, j.Mode)
	if err != nil {
		return nil, err
	}
	if j.BigArea > 0 {
		if err := r.AllocBigArea(j.BigArea); err != nil {
			return nil, err
		}
	}
	return r.RunContext(ctx, j.Cfg)
}

// ForEach runs fn(0), …, fn(n-1) across min(workers, n) goroutines (0 or
// negative workers means runtime.NumCPU()), which claim indices in
// ascending order from a shared counter, and returns the joined errors.
// Every index runs exactly once even when others fail or panic; a panic
// in fn(i) becomes index i's error. Callers that need deterministic
// output write into per-index slots and emit them after ForEach returns.
// It is the one fan-out loop: the executor's deduplicated units and the
// experiment sweeps' coarser work (Table I's per-CPU inference) run on it.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = call(fn, i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// call runs fn(i), reporting a panic as its error.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sched: index %d: panic: %v", i, p)
		}
	}()
	return fn(i)
}
