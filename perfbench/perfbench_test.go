package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"nanobench/internal/experiments"
	"nanobench/internal/instbench"
	"nanobench/internal/x86"
)

// benchmarkJSON is the part of ../BENCHMARK.json the printer must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsAndLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, ours)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, perfbench prints %+v", i, got, m)
		}
	}
}

// smoke runs one workload for a short window and decodes the printed
// JSON line the way the command writes it.
func smoke(t *testing.T, w workload, trace bool) map[string]any {
	t.Helper()
	res, err := run(context.Background(), w, options{seed: 7, seconds: 0.5, trace: trace, outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	return out
}

// checkMetrics verifies the printed metrics are exactly the listed ones,
// each with its unit and a finite value.
func checkMetrics(t *testing.T, out map[string]any, want map[string]string) map[string]float64 {
	t.Helper()
	metrics := out["metrics"].(map[string]any)
	if len(metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(metrics), len(want))
	}
	values := map[string]float64{}
	for name, unit := range want {
		m, ok := metrics[name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		v, _ := m["value"].(float64)
		if m["unit"] != unit || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v, want unit %s and a finite value", name, m, unit)
		}
		values[name] = v
	}
	return values
}

func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	endToEnd := map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := smoke(t, w, false)
			if out["correct"] != true || out["failed"].(float64) != 0 || out["attempted"].(float64) < 1 {
				t.Fatalf("untraced run: correct %v, failed %v, attempted %v", out["correct"], out["failed"], out["attempted"])
			}
			for name, v := range checkMetrics(t, out, endToEnd) {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
				}
			}
			out = smoke(t, w, true)
			if out["correct"] != true {
				t.Fatalf("traced run not correct: %v", out)
			}
			values := checkMetrics(t, out, perLayer)
			if values["machine.new_ms"] <= 0 || values["policy.fallbacks"] != 0 {
				t.Errorf("machine.new_ms %v, policy.fallbacks %v", values["machine.new_ms"], values["policy.fallbacks"])
			}
			if w.name == "instr_sweep" && values["sched.cache_hit_frac"] != 0 {
				t.Errorf("instr_sweep sched.cache_hit_frac = %v, want 0: every pass must simulate", values["sched.cache_hit_frac"])
			}
			if w.name == "service_mix" && (values["sched.cache_hit_frac"] <= 0 || values["server.request_ms.run_hit"] <= 0) {
				t.Errorf("service_mix made no cache hits: %v", values)
			}
		})
	}
}

// corruptingTransport appends a byte to the body of the nth /v1/run
// response.
type corruptingTransport struct {
	next  http.RoundTripper
	n     int64
	calls atomic.Int64
}

func (c *corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/run" || c.calls.Add(1) != c.n {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	// Trailing whitespace keeps the body valid JSON: only the byte
	// comparison can catch it.
	resp.Body = io.NopCloser(bytes.NewReader(append(body, ' ')))
	return resp, nil
}

func TestCorruptedServiceResponseFailsTheRun(t *testing.T) {
	w, _ := findWorkload("service_mix")
	setup := w.setup
	// The first requests of the timed window include repeats of the same
	// configs, so a corrupted body is caught against its twin whether
	// the corrupted copy or the clean one arrives first.
	w.setup = func(ctx context.Context, seed int64) (bench, error) {
		b, err := setup(ctx, seed)
		if err != nil {
			return nil, err
		}
		sb := b.(*serviceBench)
		sb.client.Transport = &corruptingTransport{next: sb.client.Transport, n: 3}
		return b, nil
	}
	out := smoke(t, w, false)
	if out["correct"] != false || out["failed"].(float64) < 1 {
		t.Fatalf("corrupted response not reported: correct %v, failed %v", out["correct"], out["failed"])
	}
}

func TestCorruptedInstrOutputFails(t *testing.T) {
	v := instbench.Variant{Op: x86.ADD, Form: instbench.FormRR}
	m := instbench.Measurement{Variant: v, Latency: instbench.ExpectedLatency(v)}
	m.Ports[0] = 1
	if checks, matched := checkVariant(m); checks != 2 || matched != 2 {
		t.Fatalf("ground-truth measurement: %d of %d checks matched", matched, checks)
	}
	m.Latency += 1
	if checks, matched := checkVariant(m); matched == checks {
		t.Error("a latency one cycle off ground truth passed its check")
	}
	if tableDigest([]instbench.Measurement{m}) == instrGolden["Skylake"] {
		t.Error("a corrupted table matched the golden digest")
	}
}

func TestCorruptedCampaignCellFails(t *testing.T) {
	res := &experiments.CampaignResult{Cells: []experiments.CampaignCell{{CPU: "Skylake", Level: "L1", OK: true}, {CPU: "Skylake", Level: "L2", OK: false}}}
	failed, checked, matched := checkCampaign(res, 3)
	if failed != 2 || checked != 2 || matched != 1 {
		t.Errorf("checkCampaign = failed %d, checked %d, matched %d; want 2 (a wrong cell and a missing step), 2, 1", failed, checked, matched)
	}
}

func TestRequestStreamIsSeededAndAssembles(t *testing.T) {
	a, err := genBlock(5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genBlock(5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and block gave different requests")
	}
	runs, keys := 0, map[string]bool{}
	for _, r := range a {
		if r.kind != kindRun {
			continue
		}
		runs++
		keys[r.key] = true
		if _, err := x86.Assemble(r.asm); err != nil {
			t.Errorf("%q: %v", r.asm, err)
		}
	}
	if runs != blockConfigs*configRepeats || len(keys) != blockConfigs {
		t.Errorf("block has %d runs over %d configs, want %d over %d", runs, len(keys), blockConfigs*configRepeats, blockConfigs)
	}
	next, err := genBlock(5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range next {
		if r.kind == kindRun && keys[r.key] {
			t.Errorf("config repeated across blocks: %s", strings.ReplaceAll(r.asm, "\n", "; "))
		}
	}
}

func TestCalibrationFactorsAreMediansOverTheReference(t *testing.T) {
	c := &calibrator{taken: []calibration{
		{wall: 2 * calibRefWall, cpu: 3 * calibRefCPU},
		{wall: calibRefWall, cpu: calibRefCPU},
		{wall: 9 * calibRefWall, cpu: calibRefCPU / 2},
	}}
	if wall, cpu := c.factors(); wall != 2 || cpu != 1 {
		t.Errorf("factors = %v, %v; want the medians 2 and 1", wall, cpu)
	}
}

func TestCalibrationRunsOutsideTheHeap(t *testing.T) {
	mapped := func() uint64 {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := mapped()
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if grown := int64(mapped()) - int64(before); grown > 2<<20 {
		t.Errorf("the Go runtime mapped %d more bytes for the calibrator; its buffers belong outside the heap", grown)
	}
	if len(c.taken) != 0 {
		t.Errorf("the warm-up round was recorded: %d calibrations", len(c.taken))
	}
	c.measure()
	c.measure()
	wall, cpu := c.factors()
	if len(c.taken) != 2 || !(wall > 0) || !(cpu > 0) {
		t.Errorf("after two calibrations: %d recorded, factors %v, %v", len(c.taken), wall, cpu)
	}
}
