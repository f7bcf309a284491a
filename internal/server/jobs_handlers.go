package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"nanobench/internal/experiments"
	"nanobench/internal/jobs"
)

// The asynchronous jobs surface. A job wraps one of the synchronous
// evaluation requests and runs it on the manager's worker pool behind a
// bounded admission queue:
//
//	POST   /v1/jobs                submit; 202 + job record, 429 when full
//	GET    /v1/jobs/{id}           poll the job record
//	GET    /v1/jobs/{id}/result    the finished body; ?wait=1 long-polls
//	GET    /v1/jobs/{id}/events    transition log; ?stream=1 NDJSON live
//	DELETE /v1/jobs/{id}           cancel (park queued, interrupt running)
//
// A done job's result bytes are exactly what the synchronous endpoint
// would have written: the job streams through the same evaluation core
// (mergeGroups over Session.Stream), so they match by construction.

// jobSubmitRequest is the body of POST /v1/jobs: exactly one of the
// synchronous request bodies, keyed by its endpoint name — or a
// campaign, which has no synchronous endpoint (a full campaign simulates
// for minutes; it only makes sense as a job).
type jobSubmitRequest struct {
	Run      *runRequest      `json:"run,omitempty"`
	RunBatch *batchRequest    `json:"runbatch,omitempty"`
	Sweep    *sweepRequest    `json:"sweep,omitempty"`
	Campaign *campaignRequest `json:"campaign,omitempty"`
}

// campaignRequest selects a policy-inference campaign (experiments
// package, Section VI): Table I's replacement-policy inference over the
// requested CPU models and cache levels, optionally with stochastic-
// leader age graphs. Empty cpus/levels mean every Table I model and all
// three levels. The result is deterministic for a given request — worker
// count included — so repeated submissions return byte-identical bodies.
type campaignRequest struct {
	CPUs         []string `json:"cpus,omitempty"`
	Levels       []string `json:"levels,omitempty"`
	MaxSequences int      `json:"max_sequences,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	Workers      int      `json:"workers,omitempty"`
	AgeGraphs    bool     `json:"age_graphs,omitempty"`
	AgeMaxFresh  int      `json:"age_max_fresh,omitempty"`
	AgeStep      int      `json:"age_step,omitempty"`
	AgeTrials    int      `json:"age_trials,omitempty"`
}

// Campaign age-graph limits. Each age-graph point runs age_trials
// measurements, so age_trials shares the run requests' MaxMeasurements
// cap. A point's sequence holds up to age_max_fresh fresh accesses, and
// the graph has age_max_fresh/age_step + 1 fresh-count columns per
// block; both stay far above what a 16-way Table I cache needs.
const (
	MaxAgeFresh   = 1024
	MaxAgeColumns = 128
)

// prepareCampaign validates a campaign submission (CPU names and levels
// resolve, age-graph sizes within the limits) and sizes its progress
// denominator.
func (s *Server) prepareCampaign(req campaignRequest) (experiments.CampaignOptions, int, *apiError) {
	levels, err := experiments.ParseLevels(req.Levels)
	if err != nil {
		return experiments.CampaignOptions{}, 0, errBadRequest(err.Error())
	}
	opt := experiments.CampaignOptions{
		CPUs:         req.CPUs,
		Levels:       levels,
		MaxSequences: req.MaxSequences,
		Seed:         req.Seed,
		Workers:      req.Workers,
		AgeGraphs:    req.AgeGraphs,
		AgeMaxFresh:  req.AgeMaxFresh,
		AgeStep:      req.AgeStep,
		AgeTrials:    req.AgeTrials,
	}
	maxFresh, step, trials := opt.AgeParams()
	switch {
	case trials > MaxMeasurements:
		return experiments.CampaignOptions{}, 0, errBadRequest(fmt.Sprintf(
			"campaign: age_trials %d exceeds the limit of %d", trials, MaxMeasurements))
	case maxFresh > MaxAgeFresh:
		return experiments.CampaignOptions{}, 0, errBadRequest(fmt.Sprintf(
			"campaign: age_max_fresh %d exceeds the limit of %d", maxFresh, MaxAgeFresh))
	case maxFresh/step+1 > MaxAgeColumns:
		return experiments.CampaignOptions{}, 0, errBadRequest(fmt.Sprintf(
			"campaign: age_max_fresh %d / age_step %d gives %d fresh-count columns, over the limit of %d",
			maxFresh, step, maxFresh/step+1, MaxAgeColumns))
	}
	total, err := experiments.CampaignSize(opt)
	if err != nil {
		return experiments.CampaignOptions{}, 0, errBadRequest(err.Error())
	}
	return opt, total, nil
}

// jobJSON is a job record's wire form: the submit/status/cancel
// response body, one entry of the events log, and the NDJSON event
// stream's line format.
type jobJSON struct {
	ID          string      `json:"id"`
	Kind        string      `json:"kind"`
	State       string      `json:"state"`
	SubmittedNs int64       `json:"submitted_ns"`
	StartedNs   int64       `json:"started_ns,omitempty"`
	FinishedNs  int64       `json:"finished_ns,omitempty"`
	Progress    jobs.Counts `json:"progress"`
	Error       *errorBody  `json:"error,omitempty"`
}

// jobEventsResponse is the body of a non-streamed GET /v1/jobs/{id}/events.
type jobEventsResponse struct {
	Events []jobJSON `json:"events"`
}

// toJob converts a job snapshot to its wire form.
func toJob(snap jobs.Snapshot) jobJSON {
	out := jobJSON{
		ID:          snap.ID,
		Kind:        snap.Kind,
		State:       string(snap.State),
		SubmittedNs: snap.SubmittedNs,
		StartedNs:   snap.StartedNs,
		FinishedNs:  snap.FinishedNs,
		Progress:    snap.Progress,
	}
	if snap.Err != nil {
		var ae *apiError
		switch {
		case errors.As(snap.Err, &ae):
			body := ae.body
			out.Error = &body
		case snap.State == jobs.Canceled:
			out.Error = &errorBody{"canceled", snap.Err.Error()}
		default:
			out.Error = &errorBody{"evaluation_failed", snap.Err.Error()}
		}
	}
	return out
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobSubmitRequest
	if e := decodeJSON(r, &req); e != nil {
		writeError(w, e)
		return
	}
	kind, total, task, e := s.buildJobTask(req)
	if e != nil {
		writeError(w, e)
		return
	}
	snap, err := s.jobMgr.Submit(kind, total, task)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, errQueueFull("job queue full; retry later", s.jobMgr.RetryAfter()))
		return
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, errUnavailable("server is draining; not accepting jobs", 1))
		return
	case err != nil:
		writeError(w, errInternal(err.Error()))
		return
	}
	writeJSON(w, http.StatusAccepted, toJob(snap))
}

// buildJobTask validates the submission against the same gates its
// synchronous endpoint applies — a bad request is rejected at submit
// time with the same envelope, never accepted and failed later — and
// closes over the prepared groups as the job's task.
func (s *Server) buildJobTask(req jobSubmitRequest) (kind string, total int, task jobs.Task, e *apiError) {
	set := 0
	for _, p := range []bool{req.Run != nil, req.RunBatch != nil, req.Sweep != nil, req.Campaign != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return "", 0, nil, errBadRequest(`give exactly one of "run", "runbatch", "sweep", "campaign"`)
	}
	switch {
	case req.Run != nil:
		sess, e := s.prepareRun(*req.Run)
		if e != nil {
			return "", 0, nil, e
		}
		cfg := req.Run.Config
		return "run", 1, func(ctx context.Context, p *jobs.Progress) ([]byte, error) {
			res, err := sess.Run(ctx, cfg)
			if err != nil {
				p.Step(false, true)
				return nil, runError(err)
			}
			p.Step(false, false)
			return renderJSON(runResponse{
				CPU:    sess.CPUName(),
				Mode:   sess.Mode().String(),
				Result: res,
			})
		}, nil
	case req.RunBatch != nil:
		groups, n, e := s.prepareBatch(*req.RunBatch)
		if e != nil {
			return "", 0, nil, e
		}
		return "runbatch", n, func(ctx context.Context, p *jobs.Progress) ([]byte, error) {
			resp := batchResponse{Results: make([]itemJSON, 0, n)}
			for it := range mergeGroups(ctx, groups, n) {
				p.Step(it.CacheHit, it.Err != nil)
				resp.Results = append(resp.Results, toItem(it.Index, it))
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return renderJSON(resp)
		}, nil
	case req.Campaign != nil:
		opt, total, e := s.prepareCampaign(*req.Campaign)
		if e != nil {
			return "", 0, nil, e
		}
		return "campaign", total, func(ctx context.Context, p *jobs.Progress) ([]byte, error) {
			res, err := experiments.PolicyCampaign(ctx, opt, func() { p.Step(false, false) })
			if err != nil {
				return nil, err
			}
			return renderJSON(res)
		}, nil
	default:
		groups, n, e := s.prepareSweep(*req.Sweep)
		if e != nil {
			return "", 0, nil, e
		}
		return "sweep", n, func(ctx context.Context, p *jobs.Progress) ([]byte, error) {
			resp := sweepResponse{Count: n, Results: make([]itemJSON, 0, n)}
			for it := range mergeGroups(ctx, groups, n) {
				p.Step(it.CacheHit, it.Err != nil)
				resp.Results = append(resp.Results, toItem(it.Index, it))
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return renderJSON(resp)
		}, nil
	}
}

// handleJobByID dispatches /v1/jobs/{id}[/result|/events] by hand — the
// ServeMux of the toolchain's floor version has no method or wildcard
// patterns — preserving the JSON envelope for unknown paths and
// methods.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	if id == "" {
		writeError(w, errNotFound("no such endpoint: "+r.URL.Path))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		s.handleJobStatus(w, id)
	case sub == "" && r.Method == http.MethodDelete:
		s.handleJobCancel(w, id)
	case sub == "":
		writeError(w, errMethod("GET or DELETE required"))
	case sub == "result" && r.Method == http.MethodGet:
		s.handleJobResult(w, r, id)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleJobEvents(w, r, id)
	case sub == "result" || sub == "events":
		writeError(w, errMethod("GET required"))
	default:
		writeError(w, errNotFound("no such endpoint: "+r.URL.Path))
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, id string) {
	snap, err := s.jobMgr.Get(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	writeJSON(w, http.StatusOK, toJob(snap))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, id string) {
	snap, err := s.jobMgr.Cancel(id, "canceled by client")
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	writeJSON(w, http.StatusOK, toJob(snap))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id string) {
	if q := r.URL.Query().Get("wait"); q == "1" || q == "true" {
		if _, err := s.jobMgr.Wait(r.Context(), id); err != nil {
			if errors.Is(err, jobs.ErrNotFound) {
				writeError(w, errNotFound("no such job: "+id))
			} else { // client gone; best effort
				writeError(w, &apiError{status: statusClientClosedRequest, body: errorBody{"canceled", "client closed request"}})
			}
			return
		}
	}
	snap, body, err := s.jobMgr.Result(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	switch snap.State {
	case jobs.Done:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	case jobs.Canceled:
		writeError(w, &apiError{status: http.StatusConflict, body: errorBody{"canceled", snap.Err.Error()}})
	case jobs.Failed:
		// Replay the stored envelope: the job's failure answers exactly
		// as the synchronous endpoint would have.
		var ae *apiError
		if errors.As(snap.Err, &ae) {
			writeError(w, ae)
			return
		}
		writeError(w, errInternal(snap.Err.Error()))
	default: // queued or running
		writeError(w, errUnavailable(fmt.Sprintf("job %s is %s; result not ready (poll, or retry with ?wait=1)", id, snap.State), 1))
	}
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	if q := r.URL.Query().Get("stream"); q == "1" || q == "true" {
		s.streamJobEvents(w, r, id)
		return
	}
	evs, err := s.jobMgr.Events(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	resp := jobEventsResponse{Events: make([]jobJSON, len(evs))}
	for i, snap := range evs {
		resp.Events[i] = toJob(snap)
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamJobEvents follows a job live as NDJSON: the transition log so
// far, then one line per state or progress change until the job is
// terminal or the client goes away. Delivery is at-least-once — a
// change landing between the replay and the watch is re-sent, never
// lost, because the change channel was taken before the replay.
func (s *Server) streamJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	snap, changed, err := s.jobMgr.Watch(id)
	if err != nil {
		writeError(w, errNotFound("no such job: "+id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	evs, _ := s.jobMgr.Events(id)
	for _, e := range evs {
		if enc.Encode(toJob(e)) != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for !snap.State.Terminal() {
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
		if snap, changed, err = s.jobMgr.Watch(id); err != nil {
			return // pruned mid-stream
		}
		if enc.Encode(toJob(snap)) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the job subsystem's families plus the result cache and HTTP
// request families.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var mw jobs.MetricsWriter
	s.jobMgr.WriteMetrics(&mw)
	info := s.cache.Info()
	mw.Counter("nanobenchd_cache_hits_total", "Result-cache lookup hits.", info.Hits)
	mw.Counter("nanobenchd_cache_misses_total", "Result-cache lookup misses.", info.Misses)
	mw.Counter("nanobenchd_cache_evictions_total", "Result-cache entries evicted by the LRU bound.", info.Evictions)
	mw.Gauge("nanobenchd_cache_entries", "Result-cache resident entries.", float64(info.Entries))
	mw.Gauge("nanobenchd_inflight_requests", "Evaluation requests currently being served inline.", float64(s.inflight.Load()))
	mw.CounterVec("nanobenchd_requests_total", "Requests served, by endpoint.", "endpoint", map[string]uint64{
		"run":      s.reqRun.Load(),
		"runbatch": s.reqBatch.Load(),
		"sweep":    s.reqSweep.Load(),
		"jobs":     s.reqJobs.Load(),
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	mw.WriteTo(w)
}
