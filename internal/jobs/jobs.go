// Package jobs is the asynchronous job subsystem behind nanobenchd's
// /v1/jobs surface: a bounded admission queue feeding a fixed worker
// pool, durable-in-memory job records with per-phase nanosecond
// timestamps, progress counters, a change-notification primitive the
// NDJSON event stream rides on, and Prometheus-format metrics.
//
// The manager is deliberately ignorant of HTTP and of benchmarking: a
// job is an opaque Task closure returning a rendered result body (the
// server hands it the exact bytes the synchronous endpoint would have
// written) or an error. What the manager owns is the lifecycle —
//
//	queued ──► running ──► done | failed | canceled
//	   └──────────────────────────► canceled   (canceled or parked while queued)
//
// — and the admission contract: Submit either enqueues within the
// configured bound (waiting up to MaxWait for a slot, the size+max-wait
// admission shape) or fails fast with ErrQueueFull so the HTTP layer can
// answer 429 with a Retry-After estimate instead of growing without
// bound. Records of finished jobs are retained for TTL and pruned
// lazily, so a crashed client can come back for its result without the
// map growing forever.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle states.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Task evaluates one job. It runs on a worker goroutine under the job's
// context (canceled by Cancel and by Shutdown's deadline), reports
// per-item completion through the progress handle, and returns the
// rendered result body. A returned error marks the job failed — or
// canceled, when cancellation was requested or the error is the
// context's.
type Task func(ctx context.Context, p *Progress) ([]byte, error)

// Progress counts a job's per-item completion. It is safe for
// concurrent use from the task's worker goroutines.
type Progress struct {
	job       *Job
	total     int
	completed int
	failed    int
	cacheHits int
}

// Step records one completed item. failed marks an item that finished
// with a per-item error; cacheHit marks a result served from cache.
func (p *Progress) Step(cacheHit, failed bool) {
	m := p.job.m
	m.mu.Lock()
	p.completed++
	if failed {
		p.failed++
	}
	if cacheHit {
		p.cacheHits++
	}
	p.job.notifyLocked()
	m.mu.Unlock()
}

// Counts is a point-in-time copy of a job's progress counters.
type Counts struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	CacheHits int `json:"cache_hits"`
}

// Job is one submitted evaluation's durable-in-memory record. All
// mutable fields are guarded by the manager's mutex; read them through
// Snapshot.
type Job struct {
	m    *Manager
	id   string
	kind string
	task Task

	state    State
	err      error
	result   []byte
	progress *Progress

	// Per-phase timestamps (UnixNano; zero = phase not reached) — the
	// latency provenance of the job: queue wait is startedNs-submittedNs,
	// run time finishedNs-startedNs.
	submittedNs int64
	startedNs   int64
	finishedNs  int64

	// events is the append-only transition log (queued, running,
	// terminal) — deliberately O(1) per job, never per item; per-item
	// progress is counters plus the change broadcast.
	events []Snapshot

	cancelRequested bool
	cancel          context.CancelFunc
	changed         chan struct{} // closed and replaced on every mutation
}

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID          string
	Kind        string
	State       State
	Err         error
	SubmittedNs int64
	StartedNs   int64
	FinishedNs  int64
	Progress    Counts
}

// snapshotLocked copies the job's visible state; callers hold m.mu.
func (j *Job) snapshotLocked() Snapshot {
	return Snapshot{
		ID:          j.id,
		Kind:        j.kind,
		State:       j.state,
		Err:         j.err,
		SubmittedNs: j.submittedNs,
		StartedNs:   j.startedNs,
		FinishedNs:  j.finishedNs,
		Progress: Counts{
			Total:     j.progress.total,
			Completed: j.progress.completed,
			Failed:    j.progress.failed,
			CacheHits: j.progress.cacheHits,
		},
	}
}

// notifyLocked wakes every watcher; callers hold m.mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Options configures a Manager.
type Options struct {
	// Workers is the number of jobs evaluated concurrently
	// (default DefaultWorkers).
	Workers int
	// QueueSize bounds the admission queue: at most this many jobs wait
	// for a worker; further submissions fail with ErrQueueFull
	// (default DefaultQueueSize).
	QueueSize int
	// MaxWait is how long Submit blocks for a queue slot before giving
	// up with ErrQueueFull (default 0: fail immediately).
	MaxWait time.Duration
	// TTL is how long finished job records are retained for result
	// retrieval; expired records are pruned lazily on submission
	// (default DefaultTTL).
	TTL time.Duration
	// Now supplies the clock (default time.Now().UnixNano); tests inject
	// a deterministic one.
	Now func() int64
}

// Defaults for Options fields left zero.
const (
	DefaultWorkers   = 2
	DefaultQueueSize = 64
	DefaultTTL       = 15 * time.Minute
)

// Sentinel admission errors, mapped by the HTTP layer to queue_full 429
// and unavailable 503.
var (
	// ErrQueueFull rejects a submission when the admission queue stayed
	// full past MaxWait.
	ErrQueueFull = errors.New("jobs: admission queue full")
	// ErrDraining rejects submissions after Shutdown began.
	ErrDraining = errors.New("jobs: manager draining")
	// ErrNotFound reports an unknown (or expired) job id.
	ErrNotFound = errors.New("jobs: no such job")
)

// Manager owns the queue, the worker pool, and the job records. Create
// it with New; it is safe for concurrent use.
type Manager struct {
	opts  Options
	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for TTL pruning
	seq      uint64
	draining bool
	running  int

	workers sync.WaitGroup
	active  sync.WaitGroup // one count per job being evaluated
	submits sync.WaitGroup // one count per Submit between admission check and enqueue

	metrics managerMetrics
}

// New builds a manager and starts its worker pool.
func New(opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = DefaultQueueSize
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.Now == nil {
		// The injected-clock default: job timestamps are observability
		// metadata, not result bytes, and golden tests override Options.Now.
		//nanolint:allow detrand injected-clock default; timestamps are metadata off the result path and tests inject Options.Now
		opts.Now = func() int64 { return time.Now().UnixNano() }
	}
	m := &Manager{
		opts:  opts,
		queue: make(chan *Job, opts.QueueSize),
		jobs:  make(map[string]*Job),
	}
	m.metrics.init()
	for i := 0; i < opts.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// Submit admits a job: the record is created in state queued and a
// worker will eventually evaluate task. total sizes the progress
// counters (the number of Step calls the task will make). Returns the
// queued snapshot, or ErrQueueFull/ErrDraining when admission fails.
func (m *Manager) Submit(kind string, total int, task Task) (Snapshot, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	m.pruneLocked()
	m.seq++
	j := &Job{
		m:           m,
		id:          fmt.Sprintf("j%06d", m.seq),
		kind:        kind,
		state:       Queued,
		submittedNs: m.opts.Now(),
		changed:     make(chan struct{}),
	}
	j.progress = &Progress{job: j, total: total}
	j.events = append(j.events, j.snapshotLocked())
	snap := j.snapshotLocked()
	// The submits count, taken under the mutex, is what lets Shutdown
	// close the queue without racing an in-flight enqueue.
	m.submits.Add(1)
	m.mu.Unlock()

	ok := m.enqueue(j, task)
	m.submits.Done()
	if !ok {
		return Snapshot{}, ErrQueueFull
	}

	m.mu.Lock()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.metrics.submitted++
	m.mu.Unlock()
	return snap, nil
}

// enqueue places the job on the bounded queue, waiting up to MaxWait
// for a slot. The two-phase shape (try, then wait with a timer) avoids
// allocating a timer on the fast path.
func (m *Manager) enqueue(j *Job, task Task) bool {
	j.task = task
	select {
	case m.queue <- j:
		return true
	default:
	}
	if m.opts.MaxWait <= 0 {
		return false
	}
	t := time.NewTimer(m.opts.MaxWait)
	defer t.Stop()
	select {
	case m.queue <- j:
		return true
	case <-t.C:
		return false
	}
}

// worker evaluates queued jobs until the queue closes at shutdown.
func (m *Manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job through running to its terminal state.
func (m *Manager) runJob(j *Job) {
	m.mu.Lock()
	if j.state != Queued { // canceled (or parked by Shutdown) while queued
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.state = Running
	j.startedNs = m.opts.Now()
	j.events = append(j.events, j.snapshotLocked())
	j.notifyLocked()
	m.running++
	m.active.Add(1)
	task := j.task
	p := j.progress
	m.metrics.queueSeconds.observe(float64(j.startedNs-j.submittedNs) / 1e9)
	m.mu.Unlock()

	body, err := runTask(ctx, task, p)
	cancel()

	m.mu.Lock()
	j.finishedNs = m.opts.Now()
	j.result = body
	j.err = err
	switch {
	case err == nil:
		j.state = Done
	case j.cancelRequested || errors.Is(err, context.Canceled):
		j.state = Canceled
	default:
		j.state = Failed
	}
	j.events = append(j.events, j.snapshotLocked())
	j.notifyLocked()
	m.running--
	m.metrics.finished[j.state]++
	m.metrics.runSeconds.observe(float64(j.finishedNs-j.startedNs) / 1e9)
	m.mu.Unlock()
	m.active.Done()
}

// runTask calls the task, reporting a panic as its error: the job fails
// alone and its worker keeps serving the queue.
func runTask(ctx context.Context, task Task, p *Progress) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("jobs: task panicked: %v", r)
		}
	}()
	return task(ctx, p)
}

// Get returns the job's current snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snapshotLocked(), nil
}

// Events returns the job's transition log so far: one snapshot per
// state transition (queued, running, terminal).
func (m *Manager) Events(id string) ([]Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]Snapshot(nil), j.events...), nil
}

// Result returns the job's rendered result body. The error is
// ErrNotFound for unknown ids; for known but unfinished jobs ok is
// false. A failed or canceled job returns its terminal snapshot with a
// nil body — the caller renders the stored error.
func (m *Manager) Result(id string) (Snapshot, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, nil, ErrNotFound
	}
	return j.snapshotLocked(), j.result, nil
}

// Cancel requests cancellation: a queued job is parked canceled without
// running; a running job's context is canceled and the task winds down
// between benchmark runs. Terminal jobs are left untouched. Returns the
// post-cancel snapshot.
func (m *Manager) Cancel(id string, reason string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	switch j.state {
	case Queued:
		j.cancelRequested = true
		j.state = Canceled
		j.err = fmt.Errorf("jobs: canceled while queued: %s", reason)
		j.finishedNs = m.opts.Now()
		j.events = append(j.events, j.snapshotLocked())
		j.notifyLocked()
		m.metrics.finished[Canceled]++
	case Running:
		j.cancelRequested = true
		j.cancel()
	}
	return j.snapshotLocked(), nil
}

// Watch returns the job's current snapshot plus a channel that is
// closed on the next state or progress change — the primitive the
// NDJSON event stream polls without busy-waiting.
func (m *Manager) Watch(id string) (Snapshot, <-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, nil, ErrNotFound
	}
	return j.snapshotLocked(), j.changed, nil
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns its final snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	for {
		snap, changed, err := m.Watch(id)
		if err != nil {
			return Snapshot{}, err
		}
		if snap.State.Terminal() {
			return snap, nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return snap, ctx.Err()
		}
	}
}

// Stats is a point-in-time view of the manager for /v1/stats.
type Stats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Stored   int `json:"stored"`
	Workers  int `json:"workers"`
	Capacity int `json:"queue_capacity"`
}

// Stats snapshots the queue and pool occupancy.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Queued:   len(m.queue),
		Running:  m.running,
		Stored:   len(m.jobs),
		Workers:  m.opts.Workers,
		Capacity: m.opts.QueueSize,
	}
}

// RetryAfter estimates, in whole seconds, how long a rejected client
// should wait before resubmitting: the queue drain time at the observed
// mean job duration, clamped to [1, 60]. With no history it answers 1.
func (m *Manager) RetryAfter() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	mean := 1.0
	if n := m.metrics.runSeconds.count; n > 0 {
		mean = m.metrics.runSeconds.sum / float64(n)
	}
	est := mean * float64(len(m.queue)+m.running) / float64(m.opts.Workers)
	switch {
	case est < 1:
		return 1
	case est > 60:
		return 60
	}
	return int(est)
}

// Shutdown drains the manager: admission closes (further Submits fail
// with ErrDraining), jobs still queued are parked canceled without
// running, and running jobs are waited for until ctx expires — then
// their contexts are canceled and the tail of each in-flight benchmark
// run is the only remaining wait.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return errors.New("jobs: already shut down")
	}
	m.draining = true
	m.mu.Unlock()
	// Wait out submissions that passed the admission check before
	// draining began — closing the queue under a concurrent enqueue
	// would panic. They block at most MaxWait.
	m.submits.Wait()

	// Park everything still queued. Workers race this loop for the
	// queued jobs — whichever side wins, the job ends up either run to
	// completion or parked canceled, never lost.
	close(m.queue)
	for j := range m.queue {
		m.mu.Lock()
		if j.state == Queued {
			j.cancelRequested = true
			j.state = Canceled
			j.err = errors.New("jobs: server shutting down")
			j.finishedNs = m.opts.Now()
			j.events = append(j.events, j.snapshotLocked())
			j.notifyLocked()
			m.metrics.finished[Canceled]++
		}
		m.mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		m.active.Wait()
		m.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	// Out of patience: cancel what is still running and wait out the
	// current benchmark run of each.
	m.mu.Lock()
	for _, id := range m.order {
		if j := m.jobs[id]; j.state == Running && j.cancel != nil {
			j.cancelRequested = true
			j.cancel()
		}
	}
	m.mu.Unlock()
	<-done
	return ctx.Err()
}

// pruneLocked drops finished records older than TTL; callers hold m.mu.
func (m *Manager) pruneLocked() {
	cutoff := m.opts.Now() - m.opts.TTL.Nanoseconds()
	keep := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state.Terminal() && j.finishedNs <= cutoff {
			delete(m.jobs, id)
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}
