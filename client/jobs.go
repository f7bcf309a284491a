package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"nanobench"
)

// JobStatus is a job record as served by the /v1/jobs endpoints.
type JobStatus struct {
	ID          string      `json:"id"`
	Kind        string      `json:"kind"`
	State       string      `json:"state"`
	SubmittedNs int64       `json:"submitted_ns"`
	StartedNs   int64       `json:"started_ns,omitempty"`
	FinishedNs  int64       `json:"finished_ns,omitempty"`
	Progress    JobProgress `json:"progress"`
	Err         *ItemError  `json:"error,omitempty"`
}

// Terminal reports whether the status is final (done, failed, or
// canceled).
func (s JobStatus) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// JobProgress counts a job's per-evaluation completion.
type JobProgress struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	CacheHits int `json:"cache_hits"`
}

// A Job is a handle to one asynchronous submission. Obtain it from the
// Submit methods; methods are safe for concurrent use.
type Job struct {
	c *Client
	// ID is the server-assigned job id ("j000001").
	ID string
	// Submitted is the job record the 202 answered with.
	Submitted JobStatus
}

// jobSubmitRequest mirrors the server's POST /v1/jobs body: exactly one
// of the synchronous request bodies, keyed by endpoint name.
type jobSubmitRequest struct {
	Run      *RunRequest   `json:"run,omitempty"`
	RunBatch *batchRequest `json:"runbatch,omitempty"`
	Sweep    *sweepRequest `json:"sweep,omitempty"`
}

// SubmitRun submits a single evaluation as an asynchronous job.
func (c *Client) SubmitRun(ctx context.Context, cpu, mode string, cfg nanobench.Config) (*Job, error) {
	return c.submit(ctx, jobSubmitRequest{Run: &RunRequest{CPU: cpu, Mode: mode, Config: cfg}})
}

// SubmitBatch submits a heterogeneous batch as an asynchronous job.
func (c *Client) SubmitBatch(ctx context.Context, jobs []RunRequest) (*Job, error) {
	return c.submit(ctx, jobSubmitRequest{RunBatch: &batchRequest{Jobs: jobs}})
}

// SubmitSweep submits a sweep as an asynchronous job; the server
// evaluates it on the same executor as the synchronous endpoint, so the
// result is byte-identical to the synchronous response.
func (c *Client) SubmitSweep(ctx context.Context, cpu, mode string, sw *nanobench.Sweep) (*Job, error) {
	return c.submit(ctx, jobSubmitRequest{Sweep: &sweepRequest{CPU: cpu, Mode: mode, Sweep: sw}})
}

func (c *Client) submit(ctx context.Context, req jobSubmitRequest) (*Job, error) {
	var snap JobStatus
	if err := c.postJSON(ctx, "/v1/jobs", req, &snap); err != nil {
		return nil, err
	}
	return &Job{c: c, ID: snap.ID, Submitted: snap}, nil
}

// Poll fetches the job's current record (GET /v1/jobs/{id}).
func (j *Job) Poll(ctx context.Context) (JobStatus, error) {
	var snap JobStatus
	if err := j.c.getJSON(ctx, "/v1/jobs/"+j.ID, &snap); err != nil {
		return JobStatus{}, err
	}
	return snap, nil
}

// Result fetches a finished job's response body — exactly the bytes
// the synchronous endpoint would have returned. An unfinished job
// yields an *APIError with code "unavailable"; decode the bytes with
// the response type matching the job's kind (RunResponse,
// BatchResponse, SweepResponse).
func (j *Job) Result(ctx context.Context) ([]byte, error) {
	return j.result(ctx, "/v1/jobs/"+j.ID+"/result")
}

// Wait long-polls until the job is terminal (GET .../result?wait=1)
// and returns the result body. Cancelling ctx abandons the wait but
// leaves the job running.
func (j *Job) Wait(ctx context.Context) ([]byte, error) {
	return j.result(ctx, "/v1/jobs/"+j.ID+"/result?wait=1")
}

// WaitSweep is Wait plus decoding for sweep jobs.
func (j *Job) WaitSweep(ctx context.Context) (*SweepResponse, error) {
	data, err := j.Wait(ctx)
	if err != nil {
		return nil, err
	}
	var out SweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("client: decoding sweep result: %w", err)
	}
	return &out, nil
}

// WaitRun is Wait plus decoding for run jobs.
func (j *Job) WaitRun(ctx context.Context) (*RunResponse, error) {
	data, err := j.Wait(ctx)
	if err != nil {
		return nil, err
	}
	var out RunResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("client: decoding run result: %w", err)
	}
	return &out, nil
}

// WaitBatch is Wait plus decoding for runbatch jobs.
func (j *Job) WaitBatch(ctx context.Context) (*BatchResponse, error) {
	data, err := j.Wait(ctx)
	if err != nil {
		return nil, err
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("client: decoding batch result: %w", err)
	}
	return &out, nil
}

func (j *Job) result(ctx context.Context, path string) ([]byte, error) {
	resp, err := j.c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Cancel requests cancellation (DELETE /v1/jobs/{id}): a queued job is
// parked canceled, a running one winds down between benchmark runs.
// Returns the post-cancel record; cancelling is idempotent.
func (j *Job) Cancel(ctx context.Context) (JobStatus, error) {
	resp, err := j.c.do(ctx, http.MethodDelete, "/v1/jobs/"+j.ID, nil)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	var snap JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return JobStatus{}, err
	}
	return snap, nil
}

// Events fetches the job's transition log (one record per state
// transition).
func (j *Job) Events(ctx context.Context) ([]JobStatus, error) {
	var out struct {
		Events []JobStatus `json:"events"`
	}
	if err := j.c.getJSON(ctx, "/v1/jobs/"+j.ID+"/events", &out); err != nil {
		return nil, err
	}
	return out.Events, nil
}

// Stream follows the job live (GET .../events?stream=1): fn receives
// the transition log so far, then every state or progress change until
// the job is terminal. Delivery is at-least-once. A non-nil error from
// fn stops the stream and is returned; cancelling ctx stops the stream
// without cancelling the job.
func (j *Job) Stream(ctx context.Context, fn func(JobStatus) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resp, err := j.c.do(ctx, http.MethodGet, "/v1/jobs/"+j.ID+"/events?stream=1", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var snap JobStatus
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			return fmt.Errorf("client: event line: %w", err)
		}
		if err := fn(snap); err != nil {
			return err
		}
	}
	return sc.Err()
}

// getJSON issues a GET and decodes a successful response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
