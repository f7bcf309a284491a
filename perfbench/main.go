// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed wall-clock window, checks every output against
// the repository's own ground truth, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as one JSON line on
// standard output. See README.md for the workloads and how to compare
// two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nanobench/internal/sim/policy"
)

// workers is the concurrency of every load the benchmark generates:
// sched workers, campaign workers, server parallelism, job workers,
// sweep shards and HTTP clients. It matches the 2-vCPU machines the
// benchmark is sized for; more would only measure oversubscription.
const workers = 2

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 3

// stats is what one timed phase of a workload produced.
type stats struct {
	ops       int       // operations completed (attempted)
	failed    int       // operations whose output check failed
	checked   int       // ground-truth or byte-equality checks made
	matched   int       // checks that passed
	latencies []float64 // per-latency-sample milliseconds
}

func (s *stats) add(o stats) {
	s.ops += o.ops
	s.failed += o.failed
	s.checked += o.checked
	s.matched += o.matched
	s.latencies = append(s.latencies, o.latencies...)
}

// bench is one workload after set-up.
type bench interface {
	// run drives the workload until the deadline has passed, recording
	// spans into tr when it is non-nil.
	run(ctx context.Context, deadline time.Time, tr *tracer) (stats, error)
	// probe replays a fixed, seed-determined sample of the workload's
	// operations through the public functions of each layer, one call at
	// a time, and returns the per-layer metrics the spans cannot give.
	probe(ctx context.Context, tr *tracer) (probeResult, error)
	// finish runs the run-level output checks and reports how many
	// failed, with a reason for each.
	finish() []string
	close()
}

// probeResult is a probe's outcome: counts and ratios keyed by per-layer
// metric name, plus output checks made while replaying.
type probeResult struct {
	metrics map[string]float64
	bases   map[string]string // how each metric was computed, with its base
	notes   []string          // metrics that could not be timed from outside
	checks  int
	failed  []string
}

func newProbeResult() probeResult {
	return probeResult{metrics: map[string]float64{}, bases: map[string]string{}}
}

// set records a metric with its base.
func (p *probeResult) set(name string, v float64, base string, args ...any) {
	p.metrics[name] = v
	p.bases[name] = fmt.Sprintf(base, args...)
}

// check counts one replay check, recording why it failed unless ok.
func (p *probeResult) check(ok bool, why string, args ...any) {
	p.checks++
	if !ok {
		p.failed = append(p.failed, fmt.Sprintf(why, args...))
	}
}

// mean records the mean duration of the spans named spanName, in unit.
func (p *probeResult) mean(tr *tracer, name, spanName string, unit time.Duration) {
	s := tr.stat(spanName)
	p.set(name, float64(s.mean())/float64(unit), "mean of %d %s spans", s.n, spanName)
}

// share records the spans named spanName as a share of their parents.
func (p *probeResult) share(tr *tracer, name, spanName string) {
	s := tr.stat(spanName)
	base := tr.parentTotal(spanName)
	v := 0.0
	if base > 0 {
		v = float64(s.total) / float64(base)
	}
	p.set(name, v, "%.4f s in %d %s spans / %.4f s in their parent spans", s.total.Seconds(), s.n, spanName, base.Seconds())
}

// workload names a workload and builds one instance of it. Why each
// workload exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name  string
	op    string // what one operation is
	setup func(ctx context.Context, seed int64) (bench, error)
}

var workloads = []workload{
	{"instr_sweep", "one instruction variant characterized", setupInstr},
	{"cache_campaign", "one campaign cell or age row", setupCampaign},
	{"service_mix", "one HTTP request", setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

func main() {
	var o options
	var name string
	var traceFlag int
	flag.StringVar(&name, "workload", "", "workload to run: instr_sweep, cache_campaign or service_mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span file and the decomposition report of a traced run")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		os.Exit(2)
	}
	res, err := run(context.Background(), w, o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, measures it, and assembles the result. Log
// lines (failures, sample counts, the decomposition report) go to logw.
func run(ctx context.Context, w workload, o options, logw io.Writer) (*result, error) {
	fallbacks0 := policy.EngineFallbacks()

	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibration buffers: %w", err)
	}
	defer cal.close()

	var b bench
	setups := make([]float64, 0, setupRepeats)
	cal.measure()
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(ctx, o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cal.measure()
		b = nb
	}
	defer b.close()

	window := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	slices, rssMB, err := measure(ctx, b, cal, window, tr)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return reportTraced(ctx, o, w, b, tr, slices, fallbacks0, logw)
	}

	// Every time is scaled to the reference host by the run's median
	// calibration (calib.go).
	wallF, cpuF := cal.factors()
	var st stats
	rates := make([]float64, len(slices))
	cpuPerOp := make([]float64, len(slices))
	for i, sl := range slices {
		st.add(sl.st)
		rates[i] = sl.rate()
		cpuPerOp[i] = float64(sl.cpu.Nanoseconds()) / 1e6 / float64(max(sl.st.ops, 1))
	}
	reasons, _ := finish(b, fallbacks0)
	res := newResult(st, reasons)
	sort.Float64s(st.latencies)
	res.put("setup_s", median(setups)/wallF, "s")
	res.put("ops_per_s", median(rates)*wallF, "ops/s")
	res.put("cpu_ms_per_op", median(cpuPerOp)/cpuF, "ms")
	tail := tailQuantile(len(st.latencies))
	res.put("latency_p50_ms", quantile(st.latencies, 0.50)/wallF, "ms")
	res.put("latency_tail_ms", quantile(st.latencies, tail)/wallF, "ms")
	res.put("rss_mb", rssMB, "MB")
	res.put("accuracy_frac", float64(st.matched)/float64(max(st.checked, 1)), "frac")
	fmt.Fprintf(logw, "perfbench: %s seed %d: %d ops in %d slices, %d checks, raw setup %.4f s\n",
		w.name, o.seed, st.ops, len(slices), st.checked, setups)
	fmt.Fprintf(logw, "perfbench: latency_tail_ms is p%g of %d latency samples\n", 100*tail, len(st.latencies))
	fmt.Fprintf(logw, "perfbench: raw slice ops/s in run order: %.0f\n", rates)
	fmt.Fprintf(logw, "perfbench: host slower than the reference by %.3f× (wall) and %.3f× (CPU); %d calibrations, wall ms in run order: %.1f\n",
		wallF, cpuF, len(cal.taken), cal.wallMs())
	logFailures(logw, res, reasons)
	return res, nil
}

// sliceLen is the length of one measured slice. Throughput and CPU cost
// are medians over the slices of a window, so a burst of contention
// from outside the process moves one slice, not the result.
const sliceLen = time.Second

// slice is what one slice of the window measured.
type slice struct {
	st     stats
	wall   time.Duration
	cpu    time.Duration
	traced bool
}

func (s slice) rate() float64 { return float64(s.st.ops) / s.wall.Seconds() }

// measure runs the workload over the window in an even number of
// slices of about sliceLen; every slice runs at least one operation,
// and the host is calibrated after each, outside the window. With a
// tracer, every second slice is traced, so traced and untraced slices
// see the same conditions. It also returns the window's mean resident
// memory in MB.
func measure(ctx context.Context, b bench, cal *calibrator, window time.Duration, tr *tracer) ([]slice, float64, error) {
	n := max(2, 2*int(window/(2*sliceLen)))
	out := make([]slice, 0, n)
	mem := startMemSampler()
	start := time.Now()
	for i := 0; i < n; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		c0, t0 := cpuTime(), time.Now()
		// Deadlines are fixed on the window, so a slice that overran
		// shortens the next one instead of stretching the run.
		st, err := b.run(ctx, start.Add(window*time.Duration(i+1)/time.Duration(n)), t)
		if err != nil {
			mem.stopMB()
			return nil, 0, err
		}
		out = append(out, slice{st: st, wall: time.Since(t0), cpu: cpuTime() - c0, traced: t != nil})
		t1 := time.Now()
		cal.measure()
		start = start.Add(time.Since(t1))
	}
	return out, mem.stopMB(), nil
}

// finish runs the workload's run-level checks plus the one every
// workload shares: no policy engine may fall back to a reference
// policy. It also returns the fallback count.
func finish(b bench, fallbacks0 uint64) ([]string, uint64) {
	reasons := b.finish()
	fb := policy.EngineFallbacks() - fallbacks0
	if fb != 0 {
		reasons = append(reasons, fmt.Sprintf("policy engine fell back to reference policies %d times", fb))
	}
	return reasons, fb
}

// newResult starts a result from a phase's counts and the run-level
// check failures, each of which counts as one failed operation.
func newResult(st stats, reasons []string) *result {
	failed := st.failed + len(reasons)
	return &result{
		Correct:   failed == 0 && st.ops > 0,
		Attempted: max(st.ops, 1),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func logFailures(logw io.Writer, res *result, reasons []string) {
	for _, r := range reasons {
		fmt.Fprintln(logw, "perfbench: check failed:", r)
	}
	if !res.Correct {
		fmt.Fprintf(logw, "perfbench: %d of %d operations failed their output checks\n", res.Failed, res.Attempted)
	}
}
