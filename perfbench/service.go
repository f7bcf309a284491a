package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nanobench"
	"nanobench/internal/nano"
	"nanobench/internal/sched"
	"nanobench/internal/server"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
	"nanobench/internal/x86"
)

// The service_mix request mix. Each block brings blockConfigs fresh
// /v1/run configs, each requested configRepeats times, so about two
// thirds of the runs are result-cache hits; plus blockSweeps sweeps,
// each sent once to /v1/sweep and once as an async job. A block's live
// configs stay far below the cache bound, so no hit is lost to eviction.
const (
	// serviceCacheEntries is the result-cache bound of the API
	// examples. The stream fills it within the first seconds, so memory
	// and eviction reach their steady state early in the window.
	serviceCacheEntries = 1024
	// serviceJobTTL keeps finished job records just long enough for the
	// client's status read, so retained records do not grow with the
	// window.
	serviceJobTTL = 5 * time.Second
	blockConfigs  = 30
	configRepeats = 3
	blockSweeps   = 2
	// warmUpTag offsets the unique immediates of the set-up requests, so
	// they never collide with the timed pool's.
	warmUpTag = 1 << 30
)

// asmTemplates are the instructions the run configs are drawn from:
// integer, memory (through R14, the benchmark's memory area) and vector
// forms, none touching a register nanoBench reserves.
var asmTemplates = []string{
	"add rax, rbx", "imul rcx, rdx", "xor r8, r9", "sub r10, r11", "and rbx, rcx",
	"or r11, rax", "shl rdx, 3", "inc r10", "neg r9", "bswap r8", "popcnt r9, r8",
	"lea rcx, [rax+rbx]", "cmp rax, rbx", "test rcx, rcx", "nop",
	"mov rax, [r14]", "mov [r14+8], rbx", "add rax, [r14+16]",
	"addps xmm1, xmm2", "mulpd xmm3, xmm4", "pxor xmm5, xmm6",
}

var serviceCPUs = []string{"Skylake", "Haswell", "Zen"}

type reqKind int

const (
	kindRun reqKind = iota
	kindSweep
	kindJob
)

// request is one operation of the mix. key identifies the content whose
// response bytes must agree: a run config, or a sweep (shared by its
// synchronous and job twins).
type request struct {
	kind  reqKind
	key   string
	block int
	body  []byte
	asm   string // run: the benchmark source
}

type runConfigJSON struct {
	Asm           string `json:"asm"`
	UnrollCount   int    `json:"unroll_count"`
	LoopCount     int    `json:"loop_count,omitempty"`
	NMeasurements int    `json:"n_measurements"`
}

type runRequestJSON struct {
	CPU    string        `json:"cpu"`
	Config runConfigJSON `json:"config"`
}

type sweepRequestJSON struct {
	Sweep struct {
		Base    runConfigJSON `json:"base"`
		Asm     []string      `json:"asm"`
		Unrolls []int         `json:"unrolls"`
	} `json:"sweep"`
}

// genBlock returns block number block of the seed's request stream; tag
// numbers the block's configs uniquely (an immediate in their code), so
// every block's configs are new to the cache.
func genBlock(seed int64, block, tag int) ([]request, error) {
	rng := rand.New(rand.NewSource(sched.DeriveSeed(seed, block)))
	var out []request
	var srcs []string
	for i := 0; i < blockConfigs; i++ {
		var lines []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			lines = append(lines, asmTemplates[rng.Intn(len(asmTemplates))])
		}
		lines = append(lines, fmt.Sprintf("add r12, %d", tag+block*blockConfigs+i+1))
		src := strings.Join(lines, "\n")
		srcs = append(srcs, src)
		body, err := json.Marshal(runRequestJSON{
			CPU: serviceCPUs[rng.Intn(len(serviceCPUs))],
			Config: runConfigJSON{
				Asm:           src,
				UnrollCount:   []int{10, 25, 50, 100}[rng.Intn(4)],
				LoopCount:     []int{0, 0, 0, 10}[rng.Intn(4)],
				NMeasurements: []int{3, 5, 10}[rng.Intn(3)],
			},
		})
		if err != nil {
			return nil, err
		}
		for r := 0; r < configRepeats; r++ {
			out = append(out, request{kind: kindRun, key: string(body), block: block, body: body, asm: src})
		}
	}
	for i := 0; i < blockSweeps; i++ {
		var sw sweepRequestJSON
		sw.Sweep.Base = runConfigJSON{UnrollCount: 4, NMeasurements: 3}
		sw.Sweep.Asm = []string{srcs[rng.Intn(len(srcs))], srcs[rng.Intn(len(srcs))]}
		sw.Sweep.Unrolls = []int{4, 8}
		body, err := json.Marshal(sw)
		if err != nil {
			return nil, err
		}
		job, err := json.Marshal(map[string]json.RawMessage{"sweep": body})
		if err != nil {
			return nil, err
		}
		out = append(out,
			request{kind: kindSweep, key: string(body), block: block, body: body},
			request{kind: kindJob, key: string(body), block: block, body: job})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// feed hands the clients the seed's request stream in order, and has
// the digests of blocks no request can reach any more forgotten.
type feed struct {
	mu     sync.Mutex
	seed   int64
	block  int
	queue  []request
	bodies *bodyDigests
}

func (f *feed) next() (request, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 {
		q, err := genBlock(f.seed, f.block, 0)
		if err != nil {
			return request{}, err
		}
		f.bodies.prune(f.block - 1)
		f.queue = q
		f.block++
	}
	r := f.queue[0]
	f.queue = f.queue[1:]
	return r, nil
}

// bodyDigests remembers the first response body of every content key;
// every later response for the key must be byte-equal to it.
type bodyDigests struct {
	mu   sync.Mutex
	seen map[string]digest
}

type digest struct {
	sum   [32]byte
	block int // the stream block the key belongs to
}

func (d *bodyDigests) has(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.seen[key]
	return ok
}

// match records body as the first response for key, which belongs to
// stream block block, or reports whether it equals the one recorded.
func (d *bodyDigests) match(key string, block int, body []byte) (ok, first bool) {
	sum := sha256.Sum256(body)
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, seen := d.seen[key]
	if !seen {
		d.seen[key] = digest{sum, block}
		return true, true
	}
	return prev.sum == sum, false
}

// prune forgets the keys of blocks before block, except block 0, which
// the traced run's probe replays. Two clients are never more than one
// block behind the feed, so a pruned key is never requested again.
func (d *bodyDigests) prune(block int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, v := range d.seen {
		if v.block != 0 && v.block < block {
			delete(d.seen, k)
		}
	}
}

// jobRecord is the part of a job record the benchmark reads.
type jobRecord struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	SubmittedNs int64  `json:"submitted_ns"`
	StartedNs   int64  `json:"started_ns"`
	FinishedNs  int64  `json:"finished_ns"`
}

// serviceBench is the service_mix workload: an in-process nanobenchd on
// a loopback listener, driven by closed-loop clients.
type serviceBench struct {
	seed    int64
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	feed    *feed
	bodies  *bodyDigests
	tr      atomic.Pointer[tracer]
	stats0  nanobench.BatchCacheInfo
	reasons []string

	mu       sync.Mutex
	jobs     []jobRecord // records of the jobs finished in a traced phase
	rejected atomic.Int64
}

// Headers carrying a traced request's op and span to the handler wrapper.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

func setupService(ctx context.Context, seed int64) (bench, error) {
	srv, err := server.New(server.Options{
		Seed:            nanobench.DefaultBatchSeed,
		Parallelism:     workers,
		CacheMaxEntries: serviceCacheEntries,
		JobWorkers:      workers,
		JobTTL:          serviceJobTTL,
		SweepShards:     workers,
	})
	if err != nil {
		return nil, err
	}
	b := &serviceBench{
		seed:   seed,
		srv:    srv,
		bodies: &bodyDigests{seen: map[string]digest{}},
	}
	b.feed = &feed{seed: seed, bodies: b.bodies}
	b.ts = httptest.NewServer(http.HandlerFunc(b.serve))
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}, Timeout: time.Minute}
	if code, _, _, err := b.call(ctx, http.MethodGet, "/v1/healthz", nil, nil, 0, ""); err != nil || code != http.StatusOK {
		b.close()
		return nil, fmt.Errorf("healthz: status %d, %v", code, err)
	}
	// One set-up block on its own stream warms the sessions, connections
	// and job workers; its outputs are checked like the timed ones.
	warm, err := genBlock(^seed, 0, warmUpTag)
	if err != nil {
		b.close()
		return nil, err
	}
	var st stats
	for _, r := range warm {
		b.do(ctx, r, nil, &st)
	}
	if st.failed > 0 {
		b.reasons = append(b.reasons, fmt.Sprintf("set-up block: %d requests failed their checks", st.failed))
	}
	if b.stats0, err = b.cacheInfo(ctx); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// serve wraps the server's handler with a server.handler span when a
// phase is traced.
func (b *serviceBench) serve(w http.ResponseWriter, r *http.Request) {
	tr := b.tr.Load()
	if tr == nil {
		b.srv.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
	if err != nil {
		parent = -1
	}
	id := tr.begin("server.handler", op, parent)
	b.srv.ServeHTTP(w, r)
	tr.end(id)
}

// call makes one HTTP request and reads the whole response, inside a
// span named span when traced.
func (b *serviceBench) call(ctx context.Context, method, path string, body []byte, tr *tracer, op int64, span string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.ts.URL+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	id := tr.begin(span, op, -1)
	if tr != nil {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := b.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	tr.end(id)
	if err != nil {
		return 0, nil, lat, err
	}
	return resp.StatusCode, data, lat, nil
}

// do runs one operation of the mix (one to three HTTP requests) and
// checks every response: the expected status, and bytes equal to the
// first response for the same content.
func (b *serviceBench) do(ctx context.Context, r request, tr *tracer, st *stats) {
	op := tr.newOp()
	record := func(code, want int, lat time.Duration, err error, ok bool) bool {
		st.ops++
		st.checked++
		st.latencies = append(st.latencies, float64(lat.Nanoseconds())/1e6)
		if code == http.StatusTooManyRequests {
			b.rejected.Add(1)
		}
		ok = ok && err == nil && code == want
		if ok {
			st.matched++
		} else {
			st.failed++
		}
		return ok
	}
	switch r.kind {
	case kindRun:
		span := "server.request.run_miss"
		if b.bodies.has(r.key) {
			span = "server.request.run_hit"
		}
		code, body, lat, err := b.call(ctx, http.MethodPost, "/v1/run", r.body, tr, op, span)
		same, first := b.bodies.match(r.key, r.block, body)
		if first && code == http.StatusOK {
			same = validRunBody(body)
		}
		record(code, http.StatusOK, lat, err, same)
	case kindSweep:
		code, body, lat, err := b.call(ctx, http.MethodPost, "/v1/sweep", r.body, tr, op, "server.request.sweep")
		same, _ := b.bodies.match(r.key, r.block, body)
		record(code, http.StatusOK, lat, err, same)
	case kindJob:
		code, body, lat, err := b.call(ctx, http.MethodPost, "/v1/jobs", r.body, tr, op, "server.request.job_submit")
		var rec jobRecord
		ok := json.Unmarshal(body, &rec) == nil && rec.ID != ""
		if !record(code, http.StatusAccepted, lat, err, ok) {
			return
		}
		code, body, lat, err = b.call(ctx, http.MethodGet, "/v1/jobs/"+rec.ID+"/result?wait=1", nil, tr, op, "server.request.job_result")
		same, _ := b.bodies.match(r.key, r.block, body)
		record(code, http.StatusOK, lat, err, same)
		code, body, lat, err = b.call(ctx, http.MethodGet, "/v1/jobs/"+rec.ID, nil, tr, op, "server.request.job_status")
		ok = json.Unmarshal(body, &rec) == nil && rec.State == "done"
		if record(code, http.StatusOK, lat, err, ok) && tr != nil {
			b.mu.Lock()
			b.jobs = append(b.jobs, rec)
			b.mu.Unlock()
		}
	}
}

// validRunBody checks a cold /v1/run body decodes to a result carrying
// the fixed counters.
func validRunBody(body []byte) bool {
	var resp struct {
		Result *nano.Result `json:"result"`
	}
	if json.Unmarshal(body, &resp) != nil || resp.Result == nil {
		return false
	}
	_, ok := resp.Result.Get("Core cycles")
	return ok
}

func (b *serviceBench) run(ctx context.Context, deadline time.Time, tr *tracer) (stats, error) {
	b.tr.Store(tr)
	defer b.tr.Store(nil)
	var (
		mu    sync.Mutex
		total stats
		wg    sync.WaitGroup
		ferr  error
	)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st stats
			var err error
			for {
				var r request
				if r, err = b.feed.next(); err != nil {
					break
				}
				b.do(ctx, r, tr, &st)
				if !time.Now().Before(deadline) {
					break
				}
			}
			mu.Lock()
			total.add(st)
			if err != nil {
				ferr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, ferr
}

// cacheInfo reads the shared result cache's counters from /v1/stats.
func (b *serviceBench) cacheInfo(ctx context.Context) (nanobench.BatchCacheInfo, error) {
	code, body, _, err := b.call(ctx, http.MethodGet, "/v1/stats", nil, nil, 0, "")
	if err != nil || code != http.StatusOK {
		return nanobench.BatchCacheInfo{}, fmt.Errorf("stats: status %d, %v", code, err)
	}
	var st struct {
		Cache nanobench.BatchCacheInfo `json:"cache"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nanobench.BatchCacheInfo{}, fmt.Errorf("stats: %w", err)
	}
	return st.Cache, nil
}

// probe replays the distinct /v1/run bodies of the stream's first block
// through each layer the server's run handler calls, checks the rendered
// body byte-equal to the server's, and times a cache hit through a
// private session.
func (b *serviceBench) probe(ctx context.Context, tr *tracer) (probeResult, error) {
	pr := newProbeResult()
	info, err := b.cacheInfo(ctx)
	if err != nil {
		return pr, err
	}
	block, err := genBlock(b.seed, 0, 0)
	if err != nil {
		return pr, err
	}
	sessions := map[string]*nanobench.Session{}
	done := map[string]bool{}
	var cycles int64
	for _, r := range block {
		if r.kind != kindRun || done[r.key] {
			continue
		}
		done[r.key] = true
		op := tr.newOp()
		root := tr.begin("probe.request", op, -1)
		id := tr.begin("server.decode", op, root)
		var req struct {
			CPU    string      `json:"cpu"`
			Config nano.Config `json:"config"`
		}
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		tr.end(id)
		if err != nil {
			return pr, fmt.Errorf("decode probe: %w", err)
		}
		cpu, err := uarch.ByName(req.CPU)
		if err != nil {
			return pr, err
		}
		id = tr.begin("sched.key", op, root)
		sched.KeyOf(sched.Job{CPU: cpu.Name, Mode: machine.Kernel, Cfg: req.Config})
		tr.end(id)

		ev := tr.begin("probe.evaluation", op, root)
		id = tr.begin("machine.new", op, ev)
		m, err := cpu.NewMachine(sched.DeriveSeed(nanobench.DefaultBatchSeed, 0))
		tr.end(id)
		if err != nil {
			return pr, err
		}
		id = tr.begin("nano.new_runner", op, ev)
		runner, err := nano.NewRunner(m, machine.Kernel)
		tr.end(id)
		if err != nil {
			return pr, err
		}
		c0 := m.Cycle()
		id = tr.begin("nano.run", op, ev)
		res, err := runner.RunContext(ctx, req.Config)
		tr.end(id)
		tr.end(ev)
		if err != nil {
			return pr, err
		}
		cycles += m.Cycle() - c0
		id = tr.begin("server.render", op, root)
		_, err = res.MarshalJSON()
		tr.end(id)
		tr.end(root)
		if err != nil {
			return pr, err
		}
		body, err := json.MarshalIndent(struct {
			CPU    string       `json:"cpu"`
			Mode   string       `json:"mode"`
			Result *nano.Result `json:"result"`
		}{cpu.Name, machine.Kernel.String(), res}, "", "  ")
		if err != nil {
			return pr, err
		}
		// A config the window ended before serving has nothing to agree with.
		if same, first := b.bodies.match(r.key, r.block, append(body, '\n')); !first {
			pr.check(same, "service_mix: replayed /v1/run body differs from the server's for %s", r.asm)
		}

		id = tr.begin("x86.assemble", tr.newOp(), -1)
		_, err = x86.Assemble(r.asm)
		tr.end(id)
		if err != nil {
			return pr, err
		}

		sess := sessions[cpu.Name]
		if sess == nil {
			if sess, err = nanobench.Open(nanobench.WithCPU(cpu.Name), nanobench.WithParallelism(1)); err != nil {
				return pr, err
			}
			sessions[cpu.Name] = sess
		}
		if _, err := sess.Run(ctx, req.Config); err != nil {
			return pr, err
		}
		id = tr.begin("sched.hit", tr.newOp(), -1)
		hit, err := sess.Run(ctx, req.Config)
		tr.end(id)
		if err != nil {
			return pr, err
		}
		pr.check(hit.Equal(res), "service_mix: cached Session.Run result differs from the replayed evaluation for %s", r.asm)
	}

	for _, k := range []string{"run_hit", "run_miss", "sweep"} {
		pr.mean(tr, "server.request_ms."+k, "server.request."+k, time.Millisecond)
	}
	var job spanStat
	for _, k := range []string{"job_submit", "job_result", "job_status"} {
		s := tr.stat("server.request." + k)
		job.n += s.n
		job.total += s.total
	}
	pr.set("server.request_ms.job", float64(job.mean())/1e6, "mean of %d job submit, result and status request spans", job.n)
	pr.mean(tr, "server.decode_us", "server.decode", time.Microsecond)
	pr.mean(tr, "server.render_us", "server.render", time.Microsecond)
	pr.mean(tr, "x86.assemble_us", "x86.assemble", time.Microsecond)
	pr.mean(tr, "sched.key_us", "sched.key", time.Microsecond)
	pr.mean(tr, "sched.hit_us", "sched.hit", time.Microsecond)
	pr.mean(tr, "machine.new_ms", "machine.new", time.Millisecond)
	pr.share(tr, "machine.new_share", "machine.new")
	pr.mean(tr, "nano.run_ms", "nano.run", time.Millisecond)
	run := tr.stat("nano.run")
	pr.set("machine.sim_cycles", float64(cycles)/float64(max(run.n, 1)), "%d simulated cycles over %d nano.run spans", cycles, run.n)
	pr.set("machine.host_ns_per_sim_cycle", float64(run.total.Nanoseconds())/float64(max(cycles, 1)),
		"%.4f s of nano.run spans / %d simulated cycles", run.total.Seconds(), cycles)

	hits, misses := info.Hits-b.stats0.Hits, info.Misses-b.stats0.Misses
	pr.set("sched.cache_hit_frac", float64(hits)/float64(max(hits+misses, 1)),
		"%d hits / %d lookups of the server's cache over the timed window (/v1/stats)", hits, hits+misses)
	pr.set("sched.evictions", float64(info.Evictions-b.stats0.Evictions), "LRU evictions over the timed window, bound %d entries", info.MaxEntries)
	var wait, busy time.Duration
	b.mu.Lock()
	for _, j := range b.jobs {
		wait += time.Duration(j.StartedNs - j.SubmittedNs)
		busy += time.Duration(j.FinishedNs - j.StartedNs)
	}
	n := len(b.jobs)
	b.mu.Unlock()
	pr.set("jobs.queue_wait_ms", float64(wait.Nanoseconds())/1e6/float64(max(n, 1)), "mean started - submitted over %d job records", n)
	pr.set("jobs.run_ms", float64(busy.Nanoseconds())/1e6/float64(max(n, 1)), "mean finished - started over %d job records", n)
	pr.set("jobs.rejected", float64(b.rejected.Load()), "429 answers over the run")
	pr.notes = []string{
		fmt.Sprintf("server.decode, sched.key, machine.new, nano.run and server.render run inside the run handler; they are timed by replaying the first block's %d distinct /v1/run bodies through Config.UnmarshalJSON -> sched.KeyOf -> uarch.CPU.NewMachine -> nano.NewRunner -> Runner.RunContext -> Result.MarshalJSON, each rendered body checked byte-equal to the server's", len(done)),
		"x86.assemble_us: the same sources through x86.Assemble on their own; server.decode includes this assembly",
		"sched.hit_us: the server's sessions are not reachable, so a hit is timed as a Session.Run served from a private session's cache, checked equal to the replayed evaluation",
		"jobs.queue_wait_ms and jobs.run_ms come from the server's job records (started - submitted, finished - started), not from spans",
		"server.handler spans time the server's http.Handler; the rest of each server.request span is the client and the loopback transport",
	}
	return pr, nil
}

func (b *serviceBench) finish() []string { return b.reasons }

func (b *serviceBench) close() {
	b.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx)
	b.client.CloseIdleConnections()
}
