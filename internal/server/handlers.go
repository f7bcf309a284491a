package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"nanobench"
)

// handler wraps an endpoint with the shared request plumbing: the
// method gate (anything else gets the method_not_allowed envelope), the
// per-endpoint request counter, and — for endpoints that evaluate
// inline — the in-flight gauge.
func (s *Server) handler(method string, counter *atomic.Uint64, evaluates bool, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, errMethod(method+" required"))
			return
		}
		if counter != nil {
			counter.Add(1)
		}
		if evaluates {
			s.inflight.Add(1)
			defer s.inflight.Add(-1)
		}
		fn(w, r)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if e := decodeJSON(r, &req); e != nil {
		writeError(w, e)
		return
	}
	sess, e := s.prepareRun(req)
	if e != nil {
		writeError(w, e)
		return
	}
	res, err := sess.Run(r.Context(), req.Config)
	if err != nil {
		writeError(w, runError(err))
		return
	}
	writeJSON(w, http.StatusOK, runResponse{
		CPU:    sess.CPUName(),
		Mode:   sess.Mode().String(),
		Result: res,
	})
}

// MaxMeasurements caps warm-up plus timed runs per config. The runner
// itself bounds code size (unroll × benchmark bytes must fit the code
// area), but run counts are unbounded there — legitimate for a local
// CLI, a worker-pinning lever for an untrusted request.
const MaxMeasurements = 100000

// validateCost rejects configs whose declared cost no benchmark needs:
// a run-count gate here, the code-size gate in the runner's validation.
func validateCost(cfg nanobench.Config) *apiError {
	warm := cfg.WarmUpCount
	if warm < 0 {
		warm = 0 // NoWarmUp
	}
	// Individual bounds first so the sum below cannot overflow.
	if cfg.NMeasurements > MaxMeasurements || warm > MaxMeasurements ||
		cfg.NMeasurements+warm > MaxMeasurements {
		return errInvalid(fmt.Sprintf("config: %d measurement + %d warm-up runs exceed the limit of %d",
			cfg.NMeasurements, warm, MaxMeasurements))
	}
	return nil
}

// runError maps a single evaluation's failure to the envelope: client
// cancellations get the non-standard 499 (best effort — the client is
// usually gone), everything else is an unprocessable evaluation.
func runError(err error) *apiError {
	body := itemError(err)
	status := http.StatusUnprocessableEntity
	if errors.Is(err, context.Canceled) {
		status = statusClientClosedRequest
	}
	return &apiError{status: status, body: *body}
}

func (s *Server) handleRunBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if e := decodeJSON(r, &req); e != nil {
		writeError(w, e)
		return
	}
	groups, n, e := s.prepareBatch(req)
	if e != nil {
		writeError(w, e)
		return
	}
	resp := batchResponse{Results: make([]itemJSON, 0, n)}
	for it := range mergeGroups(r.Context(), groups, n) {
		resp.Results = append(resp.Results, toItem(it.Index, it))
	}
	writeJSON(w, http.StatusOK, resp)
}

// toItem converts a delivered batch item to its wire form under its
// response index.
func toItem(index int, it nanobench.BatchItem) itemJSON {
	out := itemJSON{Index: index}
	if it.Err != nil {
		out.Error = itemError(it.Err)
	} else {
		out.Result = it.Result
	}
	return out
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if e := decodeJSON(r, &req); e != nil {
		writeError(w, e)
		return
	}
	groups, n, e := s.prepareSweep(req)
	if e != nil {
		writeError(w, e)
		return
	}
	items := mergeGroups(r.Context(), groups, n)

	if q := r.URL.Query().Get("stream"); q == "1" || q == "true" {
		s.streamItems(w, items)
		return
	}

	resp := sweepResponse{Count: n, Results: make([]itemJSON, 0, n)}
	for it := range items {
		resp.Results = append(resp.Results, toItem(it.Index, it))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok", CPUs: cpuCatalog()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	keys := s.sessionKeys()
	sessions := make([]sessionStat, len(keys))
	for i, k := range keys {
		sessions[i] = sessionStat{CPU: k.cpu, Mode: k.mode.String()}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Sessions: sessions,
		Cache:    s.cache.Info(),
		InFlight: s.inflight.Load(),
		Jobs:     s.jobMgr.Stats(),
		Requests: requestStats{
			Run:      s.reqRun.Load(),
			RunBatch: s.reqBatch.Load(),
			Sweep:    s.reqSweep.Load(),
			Jobs:     s.reqJobs.Load(),
		},
		Options: optionsStat{
			Seed:            s.opts.Seed,
			Parallelism:     s.opts.Parallelism,
			WarmUpCount:     s.opts.WarmUp,
			CacheMaxEntries: s.opts.CacheMaxEntries,
		},
	})
}
