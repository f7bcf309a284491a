package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanStat sums the spans of one name.
type spanStat struct {
	n     int
	total time.Duration
}

func (s spanStat) mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.total / time.Duration(s.n)
}

// stat returns the count and summed duration of the spans named name.
func (t *tracer) stat(name string) spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s spanStat
	for _, sp := range t.spans {
		if sp.Name == name {
			s.n++
			s.total += time.Duration(sp.End - sp.Start)
		}
	}
	return s
}

// parentTotal sums the durations of the spans that enclose a span named
// name: the base of that layer's share.
func (t *tracer) parentTotal(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, sp := range t.spans {
		if sp.Name == name && sp.Parent >= 0 {
			p := t.spans[sp.Parent]
			total += time.Duration(p.End - p.Start)
		}
	}
	return total
}

// layerRow is one line of the decomposition: a span name's calls and
// self time (duration minus its children's) under one root.
type layerRow struct {
	name  string
	calls int
	self  time.Duration
}

// decomposition groups the spans by the name of their root span and
// returns, per root, the total root time and the rows sorted by self
// time.
func (t *tracer) decomposition() (roots []string, totals map[string]time.Duration, rows map[string][]layerRow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		self[i] += time.Duration(sp.End - sp.Start)
		if sp.Parent >= 0 {
			self[sp.Parent] -= time.Duration(sp.End - sp.Start)
		}
	}
	rootOf := func(i int) int {
		for t.spans[i].Parent >= 0 {
			i = t.spans[i].Parent
		}
		return i
	}
	totals = map[string]time.Duration{}
	acc := map[string]map[string]*layerRow{}
	for i, sp := range t.spans {
		root := t.spans[rootOf(i)].Name
		if sp.Parent < 0 {
			totals[root] += time.Duration(sp.End - sp.Start)
		}
		if acc[root] == nil {
			acc[root] = map[string]*layerRow{}
			roots = append(roots, root)
		}
		r := acc[root][sp.Name]
		if r == nil {
			r = &layerRow{name: sp.Name}
			acc[root][sp.Name] = r
		}
		r.calls++
		r.self += self[i]
	}
	rows = map[string][]layerRow{}
	for root, m := range acc {
		for _, r := range m {
			rows[root] = append(rows[root], *r)
		}
		sort.Slice(rows[root], func(i, j int) bool { return rows[root][i].self > rows[root][j].self })
	}
	return roots, totals, rows
}

// writeSpans writes the spans as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is every per-layer metric a traced run prints, on every
// workload; a layer the workload does not reach reads 0, and the report
// says so.
var layerMetrics = []layerMetric{
	{"machine.new_ms", "ms", "lower"},
	{"machine.new_share", "frac", "lower"},
	{"nano.run_ms", "ms", "lower"},
	{"machine.sim_cycles", "count", "lower"},
	{"machine.host_ns_per_sim_cycle", "ns/cycle", "lower"},
	{"x86.assemble_us", "us", "lower"},
	{"sched.key_us", "us", "lower"},
	{"sched.hit_us", "us", "lower"},
	{"sched.cache_hit_frac", "frac", "higher"},
	{"sched.evictions", "count", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.render_us", "us", "lower"},
	{"server.request_ms.run_hit", "ms", "lower"},
	{"server.request_ms.run_miss", "ms", "lower"},
	{"server.request_ms.sweep", "ms", "lower"},
	{"server.request_ms.job", "ms", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.rejected", "count", "lower"},
	{"cachetools.infer_ms", "ms", "lower"},
	{"cachetools.agegraph_ms", "ms", "lower"},
	{"cachetools.run_seq_us", "us", "lower"},
	{"nano.seqreplay_replay_frac", "frac", "higher"},
	{"nano.seqreplay_real_runs", "count", "lower"},
	{"policy.count_hits_ns", "ns", "lower"},
	{"policy.fallbacks", "count", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"experiments.campaign_s", "s", "lower"},
	{"instbench.sweep_s", "s", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// reportTraced finishes a traced run: the tracing overhead from the
// traced and untraced slices' throughput, the probe replay, and the
// span file and decomposition report.
func reportTraced(ctx context.Context, o options, w workload, b bench, tr *tracer, slices []slice, fallbacks0 uint64, logw io.Writer) (*result, error) {
	var st stats
	var plain, traced []float64
	for _, sl := range slices {
		st.add(sl.st)
		if sl.traced {
			traced = append(traced, sl.rate())
		} else {
			plain = append(plain, sl.rate())
		}
	}
	plainRate, tracedRate := median(plain), median(traced)

	pr, err := b.probe(ctx, tr)
	if err != nil {
		return nil, err
	}
	st.ops += pr.checks
	st.failed += len(pr.failed)

	reasons, fb := finish(b, fallbacks0)
	res := newResult(st, reasons)
	pr.set("policy.fallbacks", float64(fb), "policy.EngineFallbacks() delta over the run")
	pr.set("trace.overhead_frac", 1-tracedRate/plainRate, "1 - median traced %.1f ops/s / median untraced %.1f ops/s, over %d alternating slices", tracedRate, plainRate, len(slices))
	for _, m := range layerMetrics {
		res.put(m.name, pr.metrics[m.name], m.unit)
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := tr.writeSpans(stem + ".spans.json"); err != nil {
		return nil, err
	}
	var rep strings.Builder
	writeReport(&rep, w, o.seed, tr, pr, res)
	if err := os.WriteFile(stem+".report.txt", []byte(rep.String()), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprint(logw, rep.String())
	for _, f := range pr.failed {
		fmt.Fprintln(logw, "perfbench: probe check failed:", f)
	}
	logFailures(logw, res, reasons)
	return res, nil
}

// writeReport renders the decomposition report of a traced run: the
// per-root self-time tables, every per-layer metric with its base, and
// the metrics that could not be timed from outside the program.
func writeReport(w io.Writer, wl workload, seed int64, tr *tracer, pr probeResult, res *result) {
	fmt.Fprintf(w, "## %s (seed %d): decomposition of the traced run\n", wl.name, seed)
	fmt.Fprintf(w, "one op: %s\n\n", wl.op)
	roots, totals, rows := tr.decomposition()
	for _, root := range roots {
		fmt.Fprintf(w, "root %s: %.3f s in total\n", root, totals[root].Seconds())
		fmt.Fprintf(w, "  %-34s %8s %12s %8s\n", "layer (span)", "calls", "self s", "share")
		for _, r := range rows[root] {
			share := 0.0
			if totals[root] > 0 {
				share = float64(r.self) / float64(totals[root])
			}
			fmt.Fprintf(w, "  %-34s %8d %12.6f %7.2f%%\n", r.name, r.calls, r.self.Seconds(), 100*share)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "per-layer metrics:")
	for _, m := range layerMetrics {
		base := pr.bases[m.name]
		if base == "" {
			base = "not on this workload's path"
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-9s %s\n", m.name, res.Metrics[m.name].Value, m.unit, base)
	}
	if len(pr.notes) > 0 {
		fmt.Fprintln(w, "\nnot timed from outside the program:")
		for _, n := range pr.notes {
			fmt.Fprintln(w, "  -", n)
		}
	}
	fmt.Fprintln(w)
}
