// nanobenchd serves the nanobench Session API over HTTP/JSON: single
// configs, heterogeneous batches, streaming sweeps, and asynchronous
// jobs behind a bounded admission queue, with one session per (CPU
// model, privilege mode) behind a shared LRU-bounded result cache.
// Prometheus metrics are served on /metrics. The wire schema is
// documented in docs/API.md.
//
//	go run nanobench/cmd/nanobenchd -addr :8080
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/run \
//	    -d '{"config": {"asm": "add rax, rbx", "n_measurements": 3}}'
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"sweep": {"sweep": {"asm": ["add rax, rbx"], "unrolls": [10, 100]}}}'
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener closes,
// in-flight requests drain, queued jobs are parked canceled, and
// running jobs are waited for (all bounded by -drain) before the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"nanobench"
	"nanobench/internal/jobs"
	"nanobench/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Int64("seed", nanobench.DefaultBatchSeed, "root seed for per-job machine seed derivation")
		parallelism = flag.Int("parallelism", 0, "concurrently simulated machines per session (0: all cores)")
		warmUp      = flag.Int("warm_up_count", nanobench.DefaultWarmUpCount, "session-wide default warm-up run count")
		cacheMax    = flag.Int("cache_entries", 4096, "shared result cache bound in evaluations (0: unbounded)")
		maxBatch    = flag.Int("max_batch", server.DefaultMaxBatch, "max configs per request")
		drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
		jobWorkers  = flag.Int("job_workers", jobs.DefaultWorkers, "async job worker pool size")
		jobQueue    = flag.Int("job_queue", jobs.DefaultQueueSize, "async job admission queue bound (full queue answers 429)")
		jobWait     = flag.Duration("job_wait", 0, "how long a submission may wait for a queue slot before the 429 (0: fail fast)")
		jobTTL      = flag.Duration("job_ttl", jobs.DefaultTTL, "how long finished job records are retained for result retrieval")
	)
	flag.Parse()

	srv, err := server.New(server.Options{
		Seed:            *seed,
		Parallelism:     *parallelism,
		WarmUp:          *warmUp,
		CacheMaxEntries: *cacheMax,
		MaxBatch:        *maxBatch,
		JobWorkers:      *jobWorkers,
		JobQueueSize:    *jobQueue,
		JobMaxWait:      *jobWait,
		JobTTL:          *jobTTL,
	})
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("nanobenchd listening on %s (seed %d, cache bound %d)", *addr, *seed, *cacheMax)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining %d in-flight request(s)", srv.InFlight())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("shutdown: %v", err)
	}
	// With the listener closed, drain the job subsystem: queued jobs are
	// parked canceled, running ones get the remainder of the budget.
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("job drain: %v", err)
	}
	log.Print("nanobenchd stopped")
}
