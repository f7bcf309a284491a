package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// jobRecord mirrors jobJSON for test-side decoding.
type jobRecord struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       string `json:"state"`
	SubmittedNs int64  `json:"submitted_ns"`
	StartedNs   int64  `json:"started_ns"`
	FinishedNs  int64  `json:"finished_ns"`
	Progress    struct {
		Total     int `json:"total"`
		Completed int `json:"completed"`
		Failed    int `json:"failed"`
		CacheHits int `json:"cache_hits"`
	} `json:"progress"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func decodeJob(t *testing.T, body []byte) jobRecord {
	t.Helper()
	var j jobRecord
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("not a job record: %v\n%s", err, body)
	}
	return j
}

// pollJob polls the status endpoint until the predicate holds.
func pollJob(t *testing.T, ts *httptest.Server, id string, pred func(jobRecord) bool) jobRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body := get(t, ts, "/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll status %d: %s", status, body)
		}
		j := decodeJob(t, body)
		if pred(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the wanted state; last record: %+v", id, j)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobSubmitPollResult(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42})
	runBody := `{"config": {"asm": "add rax, rbx", "n_measurements": 3}}`

	status, body := post(t, ts, "/v1/jobs", `{"run": `+runBody+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, body)
	}
	submitted := decodeJob(t, body)
	if submitted.ID == "" || submitted.Kind != "run" || submitted.State != "queued" {
		t.Fatalf("submitted record = %+v", submitted)
	}
	if submitted.SubmittedNs == 0 || submitted.StartedNs != 0 {
		t.Errorf("submit timestamps = %+v", submitted)
	}

	final := pollJob(t, ts, submitted.ID, func(j jobRecord) bool { return j.State == "done" })
	if final.Progress.Total != 1 || final.Progress.Completed != 1 || final.Progress.Failed != 0 {
		t.Errorf("final progress = %+v", final.Progress)
	}
	if !(final.SubmittedNs < final.StartedNs && final.StartedNs < final.FinishedNs) {
		t.Errorf("phase timestamps not ordered: %+v", final)
	}

	// The job's result is byte-for-byte the synchronous response.
	status, jobResult := get(t, ts, "/v1/jobs/"+submitted.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result status %d: %s", status, jobResult)
	}
	status, syncResult := post(t, ts, "/v1/run", runBody)
	if status != http.StatusOK {
		t.Fatalf("sync status %d: %s", status, syncResult)
	}
	if !bytes.Equal(jobResult, syncResult) {
		t.Errorf("job result differs from the synchronous response:\njob:  %s\nsync: %s", jobResult, syncResult)
	}

	// The transition log ends terminal; the streamed variant replays it
	// and closes.
	status, body = get(t, ts, "/v1/jobs/"+submitted.ID+"/events")
	if status != http.StatusOK {
		t.Fatalf("events status %d: %s", status, body)
	}
	var evs struct {
		Events []jobRecord `json:"events"`
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	if n := len(evs.Events); n != 3 ||
		evs.Events[0].State != "queued" || evs.Events[1].State != "running" || evs.Events[2].State != "done" {
		t.Errorf("transition log: %+v", evs.Events)
	}
	status, stream := get(t, ts, "/v1/jobs/"+submitted.ID+"/events?stream=1")
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %s", status, stream)
	}
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("stream delivered %d lines: %s", len(lines), stream)
	}
	if last := decodeJob(t, lines[len(lines)-1]); last.State != "done" {
		t.Errorf("stream's last line is %q, want a terminal record", last.State)
	}
}

// TestJobSweepEquivalence pins the headline determinism claim: a sweep
// submitted as an async job at 4 workers returns result bytes identical
// to the synchronous /v1/sweep response at 1 worker, each from a fresh
// server so neither leg is served the other's cache.
func TestJobSweepEquivalence(t *testing.T) {
	const body = `{"sweep": {
		"base": {"n_measurements": 3},
		"cpus": ["Skylake", "Haswell"],
		"asm": ["add rax, rbx", "imul rax, rbx", "add rax, rbx"],
		"unrolls": [10, 100]
	}}`

	syncTS := newTestServer(t, Options{Seed: 42, Parallelism: 1})
	status, want := post(t, syncTS, "/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sync sweep status %d: %s", status, want)
	}

	asyncTS := newTestServer(t, Options{Seed: 42, Parallelism: 4})
	status, sub := post(t, asyncTS, "/v1/jobs", `{"sweep": `+body+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, sub)
	}
	id := decodeJob(t, sub).ID
	status, got := get(t, asyncTS, "/v1/jobs/"+id+"/result?wait=1")
	if status != http.StatusOK {
		t.Fatalf("result status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("job result differs from the synchronous sweep:\njob:  %s\nsync: %s", got, want)
	}

	// The duplicated asm entry is deduplicated (fanned out, not
	// re-evaluated); the progress counters still cover every index.
	final := pollJob(t, asyncTS, id, func(j jobRecord) bool { return j.State == "done" })
	if final.Progress.Total != 12 || final.Progress.Completed != 12 || final.Progress.Failed != 0 {
		t.Errorf("progress = %+v, want 12/12", final.Progress)
	}
}

// slowJobBody is a sweep whose loop counts keep one worker busy for
// seconds — long enough that cancel/overflow tests always land while it
// runs, short enough to drain quickly once canceled.
func slowJobBody() string {
	loops := "1500"
	for i := 1; i < 8; i++ {
		loops += fmt.Sprintf(",%d", 1500+2*i)
	}
	return `{"sweep": {"sweep": {"base": {"asm": "add rax, rbx"}, "loops": [` + loops + `]}}}`
}

func TestJobQueueOverflow429(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42, Parallelism: 1, JobWorkers: 1, JobQueueSize: 1})

	// Fill the system: one job running, one queued.
	status, body := post(t, ts, "/v1/jobs", slowJobBody())
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", status, body)
	}
	first := decodeJob(t, body).ID
	pollJob(t, ts, first, func(j jobRecord) bool { return j.State == "running" })
	status, body = post(t, ts, "/v1/jobs", slowJobBody())
	if status != http.StatusAccepted {
		t.Fatalf("second submit: %d: %s", status, body)
	}
	second := decodeJob(t, body).ID

	// The queue bound is reached: the next submission is rejected with
	// the typed envelope and a Retry-After hint.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slowJobBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	overflow, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d: %s", resp.StatusCode, overflow)
	}
	if code := errorCode(t, overflow); code != "queue_full" {
		t.Errorf("overflow code %q, want queue_full", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("overflow response carries no Retry-After header")
	}

	// Cancel both admitted jobs so the server drains fast.
	for _, id := range []string{second, first} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

func TestJobCancelWhileRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := newServer(t, Options{Seed: 42, Parallelism: 1, JobWorkers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := post(t, ts, "/v1/jobs", slowJobBody())
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", status, body)
	}
	id := decodeJob(t, body).ID
	pollJob(t, ts, id, func(j jobRecord) bool { return j.State == "running" })

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancelBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %s", resp.StatusCode, cancelBody)
	}

	// The running sweep winds down between benchmark runs and the job
	// lands canceled — far sooner than the seconds it had left.
	final := pollJob(t, ts, id, func(j jobRecord) bool { return j.State != "running" })
	if final.State != "canceled" {
		t.Fatalf("post-cancel state %q, want canceled", final.State)
	}

	// A canceled job has no result body to serve.
	status, body = get(t, ts, "/v1/jobs/"+id+"/result")
	if status != http.StatusConflict {
		t.Fatalf("canceled result status %d: %s", status, body)
	}
	if code := errorCode(t, body); code != "canceled" {
		t.Errorf("canceled result code %q", code)
	}

	// No goroutines may outlive the canceled job once the server drains.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after cancel drain", before, now)
	}
}

func TestJobDrainOnShutdown(t *testing.T) {
	srv := newServer(t, Options{Seed: 42, Parallelism: 1, JobWorkers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One job running, one queued behind it.
	status, body := post(t, ts, "/v1/jobs", slowJobBody())
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", status, body)
	}
	running := decodeJob(t, body).ID
	pollJob(t, ts, running, func(j jobRecord) bool { return j.State == "running" })
	status, body = post(t, ts, "/v1/jobs", slowJobBody())
	if status != http.StatusAccepted {
		t.Fatalf("second submit: %d: %s", status, body)
	}
	queued := decodeJob(t, body).ID

	// An impatient drain: the queued job is parked canceled without
	// running; the running one is canceled at the deadline and winds
	// down between benchmark runs.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown = %v, want DeadlineExceeded (running job outlives the budget)", err)
	}
	if j := pollJob(t, ts, queued, func(j jobRecord) bool { return j.State != "queued" }); j.State != "canceled" {
		t.Errorf("queued job ended %q, want parked canceled", j.State)
	}
	if j := pollJob(t, ts, running, func(j jobRecord) bool { return j.State != "running" }); j.State != "canceled" {
		t.Errorf("running job ended %q, want canceled", j.State)
	}

	// A drained server rejects new submissions as unavailable.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slowJobBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d: %s", resp.StatusCode, body)
	}
	if code := errorCode(t, body); code != "unavailable" {
		t.Errorf("post-drain submit code %q", code)
	}
}

func TestJobValidation(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"empty submit", "POST", "/v1/jobs", `{}`, 400, "bad_request"},
		{"two bodies", "POST", "/v1/jobs",
			`{"run": {"config": {"asm": "nop"}}, "sweep": {"sweep": {"asm": ["nop"]}}}`, 400, "bad_request"},
		{"invalid inner request", "POST", "/v1/jobs", `{"run": {"config": {}}}`, 422, "invalid_argument"},
		{"unknown inner cpu", "POST", "/v1/jobs", `{"run": {"cpu": "Pentium", "config": {"asm": "nop"}}}`, 422, "invalid_argument"},
		{"jobs wrong method", "GET", "/v1/jobs", ``, 405, "method_not_allowed"},
		{"unknown job", "GET", "/v1/jobs/j999999", ``, 404, "not_found"},
		{"unknown job result", "GET", "/v1/jobs/j999999/result", ``, 404, "not_found"},
		{"unknown job events", "GET", "/v1/jobs/j999999/events", ``, 404, "not_found"},
		{"cancel unknown job", "DELETE", "/v1/jobs/j999999", ``, 404, "not_found"},
		{"job wrong method", "PUT", "/v1/jobs/j999999", ``, 405, "method_not_allowed"},
		{"result wrong method", "POST", "/v1/jobs/j999999/result", ``, 405, "method_not_allowed"},
		{"unknown subresource", "GET", "/v1/jobs/j999999/logs", ``, 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if code := errorCode(t, body); code != tc.wantCode {
				t.Errorf("error code %q, want %q", code, tc.wantCode)
			}
		})
	}

	// A queued-or-running job's result is not ready: 503 with a
	// Retry-After hint, not an error record.
	status, body := post(t, ts, "/v1/jobs", slowJobBody())
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", status, body)
	}
	id := decodeJob(t, body).ID
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	notReady, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready result status %d: %s", resp.StatusCode, notReady)
	}
	if code := errorCode(t, notReady); code != "unavailable" {
		t.Errorf("not-ready code %q", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("not-ready response carries no Retry-After header")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

func TestJobFailedReplaysEnvelope(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42})
	// An unroll bomb passes submission-time validation (the cost gate
	// cannot see the expanded size) and fails during evaluation; the
	// job replays the same envelope the synchronous endpoint answers.
	body := `{"config": {"asm": "nop", "unroll_count": 2000000000}}`
	status, sub := post(t, ts, "/v1/jobs", `{"run": `+body+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", status, sub)
	}
	id := decodeJob(t, sub).ID
	final := pollJob(t, ts, id, func(j jobRecord) bool { return j.State != "queued" && j.State != "running" })
	if final.State != "failed" || final.Error == nil || final.Error.Code != "evaluation_failed" {
		t.Fatalf("final record = %+v", final)
	}

	status, result := get(t, ts, "/v1/jobs/"+id+"/result")
	if status != 422 {
		t.Fatalf("failed-job result status %d: %s", status, result)
	}
	if code := errorCode(t, result); code != "evaluation_failed" {
		t.Errorf("failed-job result code %q", code)
	}
	// Byte-for-byte the synchronous error envelope.
	syncStatus, syncBody := post(t, ts, "/v1/run", body)
	if syncStatus != 422 || !bytes.Equal(result, syncBody) {
		t.Errorf("replayed envelope differs from the synchronous one (%d):\njob:  %s\nsync: %s", syncStatus, result, syncBody)
	}
}

// TestJobEventsStreamLive follows a running job's NDJSON event stream
// and requires progress updates to arrive while the job runs.
func TestJobEventsStreamLive(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42, Parallelism: 1, JobWorkers: 1})
	status, body := post(t, ts, "/v1/jobs", slowJobBody())
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", status, body)
	}
	id := decodeJob(t, body).ID

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	// Read until a running record with nonzero progress, then cancel the
	// job out-of-band and require the stream to end on a terminal line.
	sc := bufio.NewScanner(resp.Body)
	sawProgress, canceled := false, false
	var last jobRecord
	for sc.Scan() {
		last = decodeJob(t, sc.Bytes())
		if last.State == "running" && last.Progress.Completed > 0 && !canceled {
			sawProgress = true
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
			canceled = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawProgress {
		t.Error("stream delivered no mid-run progress update")
	}
	if last.State != "canceled" {
		t.Errorf("stream's last record is %q, want canceled", last.State)
	}
}

// TestCampaignJobDeterministicAcrossWorkers submits the same miniature
// policy-inference campaign (one adaptive model, L1 only, plus a tiny
// stochastic-leader age graph) at two worker counts and requires the
// finished result bodies to be byte-identical: campaign cells and
// age-graph groups are pure functions of the request, never of the
// schedule. docs/API.md replays this request.
func TestCampaignJobDeterministicAcrossWorkers(t *testing.T) {
	ts := newTestServer(t, Options{Seed: 42})
	submit := func(workers int) []byte {
		body := fmt.Sprintf(`{"campaign": {"cpus": ["IvyBridge"], "levels": ["L1"], "max_sequences": 30,
			"workers": %d, "age_graphs": true, "age_max_fresh": 16, "age_step": 16, "age_trials": 2}}`, workers)
		status, resp := post(t, ts, "/v1/jobs", body)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d: %s", status, resp)
		}
		submitted := decodeJob(t, resp)
		if submitted.Kind != "campaign" {
			t.Fatalf("kind = %q, want campaign", submitted.Kind)
		}
		final := pollJob(t, ts, submitted.ID, func(j jobRecord) bool { return j.State == "done" })
		// One (CPU, level) cell plus one age row.
		if final.Progress.Total != 2 || final.Progress.Completed != 2 {
			t.Errorf("workers=%d progress = %+v", workers, final.Progress)
		}
		status, result := get(t, ts, "/v1/jobs/"+submitted.ID+"/result")
		if status != http.StatusOK {
			t.Fatalf("result status %d: %s", status, result)
		}
		return result
	}
	one, four := submit(1), submit(4)
	if !bytes.Equal(one, four) {
		t.Errorf("campaign results differ across worker counts:\nworkers=1: %s\nworkers=4: %s", one, four)
	}
	var res struct {
		Cells []struct {
			CPU, Level, Policy string
			OK                 bool
		} `json:"cells"`
		AgeRows []json.RawMessage `json:"age_rows"`
	}
	if err := json.Unmarshal(one, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || len(res.AgeRows) != 1 {
		t.Fatalf("campaign shape: %s", one)
	}
	if c := res.Cells[0]; c.CPU != "IvyBridge" || c.Level != "L1" || !c.OK {
		t.Errorf("cell = %+v", c)
	}

	// A campaign of unknown CPUs or levels, or with age graphs beyond the
	// cost limits, is rejected at submit time.
	for _, bad := range []string{
		`{"campaign": {"cpus": ["NoSuchCPU"]}}`,
		`{"campaign": {"levels": ["L4"]}}`,
		`{"campaign": {"age_graphs": true, "age_trials": 100001}}`,
		`{"campaign": {"age_graphs": true, "age_trials": 9223372036854775807}}`,
		`{"campaign": {"age_graphs": true, "age_max_fresh": 1025}}`,
		`{"campaign": {"age_graphs": true, "age_max_fresh": 9223372036854775807, "age_step": 9223372036854775807}}`,
		`{"campaign": {"age_graphs": true, "age_max_fresh": 1024, "age_step": 1}}`,
	} {
		status, resp := post(t, ts, "/v1/jobs", bad)
		if status != http.StatusBadRequest || errorCode(t, resp) != "bad_request" {
			t.Errorf("submit %s: status %d: %s", bad, status, resp)
		}
	}
	// The server keeps serving after the rejections.
	if status, resp := get(t, ts, "/v1/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after rejections: status %d: %s", status, resp)
	}
}
