package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"nanobench/internal/nano"
	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/machine"
)

// testJobs builds a short mixed-mode job mix. The jobs are too short for
// a timer interrupt to land, so their results do not depend on the
// machine seed; tests that must see a seeding leak add seedSensitiveJob.
func testJobs(n int) []Job {
	asms := []string{
		"add rbx, rbx",
		"imul rbx, rbx",
		"mov r14, [r14]",
		"shl rbx, 1",
	}
	jobs := make([]Job, n)
	for i := range jobs {
		mode := machine.Kernel
		if i%3 == 0 {
			mode = machine.User
		}
		cfg := nano.Config{
			Code:        nano.MustAsm(asms[i%len(asms)]),
			CodeInit:    nano.MustAsm("mov [r14], r14"),
			UnrollCount: 20 + i%2,
			WarmUpCount: 1,
		}
		jobs[i] = Job{CPU: "Skylake", Mode: mode, Cfg: cfg}
	}
	return jobs
}

// seedSensitiveJob is a user-mode job long enough that several timer
// interrupts land inside the measurement (mean interval 200k cycles; this
// runs ~1.6M), so its result depends on the machine seed.
func seedSensitiveJob() Job {
	return Job{CPU: "Skylake", Mode: machine.User, Cfg: nano.Config{
		Code:          nano.MustAsm("mov r14, [r14]"),
		CodeInit:      nano.MustAsm("mov [r14], r14"),
		UnrollCount:   100,
		LoopCount:     2000,
		NMeasurements: 1,
	}}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	distinct := testJobs(12)
	distinct[0] = seedSensitiveJob()
	// Interleaved duplicates: each must be fulfilled by the evaluation
	// seeded at the first position sharing its content, whichever worker
	// runs it — so appending them changes no result of the distinct run.
	dupOf := []int{0, 5, 0}
	withDups := append([]Job(nil), distinct...)
	for _, first := range dupOf {
		withDups = append(withDups, distinct[first])
	}
	var bases [][]*nano.Result
	for _, jobs := range [][]Job{distinct, withDups} {
		var base []*nano.Result
		for _, workers := range []int{1, 4, 16} {
			res, err := New(Options{Workers: workers, RootSeed: 7}).Run(jobs)
			if err != nil {
				t.Fatalf("%d jobs, workers=%d: %v", len(jobs), workers, err)
			}
			if len(res) != len(jobs) {
				t.Fatalf("%d jobs, workers=%d: %d results", len(jobs), workers, len(res))
			}
			if base == nil {
				base = res
				continue
			}
			for i := range res {
				if !res[i].Equal(base[i]) {
					t.Errorf("%d jobs, workers=%d: job %d differs from the 1-worker run:\n%v\nvs\n%v",
						len(jobs), workers, i, res[i], base[i])
				}
			}
		}
		bases = append(bases, base)
	}
	for i, r := range bases[1] {
		first := i
		if i >= len(distinct) {
			first = dupOf[i-len(distinct)]
		}
		if !r.Equal(bases[0][first]) {
			t.Errorf("with duplicates, job %d differs from distinct job %d:\n%v\nvs\n%v", i, first, r, bases[0][first])
		}
	}
}

func TestDifferentRootSeedsChangeUserModeResults(t *testing.T) {
	// Sanity check that the determinism test above can fail at all:
	// seedSensitiveJob must actually depend on the machine seed.
	job := seedSensitiveJob()
	differs := false
	a, err := New(Options{Workers: 1, RootSeed: 1}).Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed < 6 && !differs; seed++ {
		b, err := New(Options{Workers: 1, RootSeed: seed}).Run([]Job{job})
		if err != nil {
			t.Fatal(err)
		}
		differs = !a[0].Equal(b[0])
	}
	if !differs {
		t.Error("user-mode results identical across root seeds; determinism tests prove nothing")
	}
}

func TestCacheHitPointerDistinctValueEqual(t *testing.T) {
	cache := NewCache()
	ex := New(Options{Workers: 2, RootSeed: 3, Cache: cache})
	jobs := testJobs(6)

	first, err := ex.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != 0 {
		t.Errorf("cold run recorded %d hits", hits)
	}

	// The second run must be served from the cache: value-equal results
	// behind distinct pointers.
	var items []Item
	for it := range ex.Stream(jobs) {
		items = append(items, it)
	}
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("job %d: %v", it.Index, it.Err)
		}
		if !it.CacheHit {
			t.Errorf("job %d: expected a cache hit on the warm run", it.Index)
		}
		if it.Result == first[it.Index] {
			t.Errorf("job %d: cache returned the identical pointer", it.Index)
		}
		if !it.Result.Equal(first[it.Index]) {
			t.Errorf("job %d: cached result differs:\n%vvs\n%v", it.Index, it.Result, first[it.Index])
		}
	}
	if cache.Len() == 0 {
		t.Error("cache is empty after a cold run")
	}
}

func TestErrorInOneJobDoesNotWedgePool(t *testing.T) {
	jobs := testJobs(8)
	jobs[2].CPU = "NoSuchCPU"                // fails at machine construction
	jobs[5].Cfg = nano.Config{LoopCount: -1} // fails config validation
	res, err := New(Options{Workers: 4, RootSeed: 1}).Run(jobs)
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "job 2") || !strings.Contains(err.Error(), "job 5") {
		t.Errorf("error does not identify the failing jobs: %v", err)
	}
	for i, r := range res {
		switch i {
		case 2, 5:
			if r != nil {
				t.Errorf("failed job %d has a result", i)
			}
		default:
			if r == nil {
				t.Errorf("job %d has no result; the pool wedged", i)
			}
		}
	}
}

// TestPanickingEvaluationIsContained: a panic inside one evaluation
// reaches every position of its unit as an error naming the content key,
// is never cached, and leaves the rest of the batch and the stream
// intact.
func TestPanickingEvaluationIsContained(t *testing.T) {
	jobs := testJobs(5)          // five distinct contents
	jobs = append(jobs, jobs[2]) // a duplicate of the panicking unit
	bad := KeyOf(jobs[2])
	defer func(orig func(context.Context, Job, int64) (*nano.Result, error)) { evaluate = orig }(evaluate)
	evaluate = func(ctx context.Context, j Job, seed int64) (*nano.Result, error) {
		if KeyOf(j) == bad {
			panic("injected")
		}
		return simulate(ctx, j, seed)
	}
	cache := NewCache()
	n := 0
	for it := range New(Options{Workers: 2, RootSeed: 1, Cache: cache}).Stream(jobs) {
		n++
		switch it.Index {
		case 2, 5:
			if it.Err == nil || !strings.Contains(it.Err.Error(), fmt.Sprintf("content key %x): panic: injected", bad)) {
				t.Errorf("job %d: err = %v, want the contained panic naming the key", it.Index, it.Err)
			}
		default:
			if it.Err != nil || it.Result == nil {
				t.Errorf("job %d: res=%v err=%v, want a result", it.Index, it.Result, it.Err)
			}
		}
	}
	if n != len(jobs) {
		t.Fatalf("stream delivered %d of %d items", n, len(jobs))
	}
	if got := cache.Len(); got != 4 {
		t.Errorf("cache holds %d entries, want the 4 healthy evaluations", got)
	}
}

func TestStreamDeliversInIndexOrder(t *testing.T) {
	jobs := testJobs(10)
	next := 0
	for it := range New(Options{Workers: 4, RootSeed: 9}).Stream(jobs) {
		if it.Index != next {
			t.Fatalf("stream delivered index %d, want %d", it.Index, next)
		}
		if it.Err != nil {
			t.Fatalf("job %d: %v", it.Index, it.Err)
		}
		next++
	}
	if next != len(jobs) {
		t.Fatalf("stream delivered %d items, want %d", next, len(jobs))
	}
}

func TestDuplicateJobsShareOneEvaluation(t *testing.T) {
	// Without a cache, identical jobs still collapse to one evaluation
	// seeded by the LOWEST index, so duplicates are value-equal but
	// pointer-distinct — and independent of scheduling.
	cfg := nano.Config{Code: nano.MustAsm("add rbx, rbx"), UnrollCount: 10}
	jobs := []Job{
		{CPU: "Skylake", Mode: machine.User, Cfg: cfg},
		{CPU: "Skylake", Mode: machine.Kernel, Cfg: cfg},
		{CPU: "Skylake", Mode: machine.User, Cfg: cfg},
	}
	res, err := New(Options{Workers: 3, RootSeed: 5}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Equal(res[2]) {
		t.Errorf("duplicate jobs differ:\n%vvs\n%v", res[0], res[2])
	}
	if res[0] == res[2] {
		t.Error("duplicate jobs share one Result pointer")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	code := nano.MustAsm("nop")
	implicit := nano.Config{Code: code}
	explicit := nano.Config{Code: code, UnrollCount: 100, NMeasurements: 10}
	sky := func(cfg nano.Config) Job { return Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: cfg} }
	if KeyOf(sky(implicit)) != KeyOf(sky(explicit)) {
		t.Error("defaulted and explicit configs hash differently")
	}
	variations := []struct {
		name string
		job  Job
	}{
		{"cpu", Job{CPU: "Haswell", Mode: machine.Kernel, Cfg: implicit}},
		{"mode", Job{CPU: "Skylake", Mode: machine.User, Cfg: implicit}},
		{"bigarea", Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: implicit, BigArea: 4 << 20}},
		{"code", sky(nano.Config{Code: nano.MustAsm("add rbx, rbx")})},
		{"init", sky(nano.Config{Code: code, CodeInit: code})},
		{"unroll", sky(nano.Config{Code: code, UnrollCount: 7})},
		{"loop", sky(nano.Config{Code: code, LoopCount: 3})},
		{"nomem", sky(nano.Config{Code: code, NoMem: true})},
		{"basic", sky(nano.Config{Code: code, BasicMode: true})},
		{"agg", sky(nano.Config{Code: code, Aggregate: nano.Avg})},
		{"events", sky(nano.Config{Code: code, Events: perfcfg.MustParse("0E.01 UOPS")})},
	}
	base := KeyOf(sky(implicit))
	seenKeys := map[Key]string{base: "base"}
	for _, v := range variations {
		k := KeyOf(v.job)
		if prev, dup := seenKeys[k]; dup {
			t.Errorf("variation %q collides with %q", v.name, prev)
		}
		seenKeys[k] = v.name
	}
	if withSeed(base, 1) == withSeed(base, 2) {
		t.Error("cache keys for different seeds collide")
	}
	if withSeed(base, 1) != withSeed(base, 1) {
		t.Error("withSeed is not a pure function")
	}
}

// TestKeyCoversEveryConfigField pins the field counts KeyOf was written
// against: growing Job, nano.Config, or perfcfg.EventSpec without
// extending the hash would silently alias distinct evaluations.
func TestKeyCoversEveryConfigField(t *testing.T) {
	if n := reflect.TypeOf(Job{}).NumField(); n != 4 {
		t.Errorf("sched.Job has %d fields; update sched.KeyOf and this count", n)
	}
	if n := reflect.TypeOf(nano.Config{}).NumField(); n != 12 {
		t.Errorf("nano.Config has %d fields; update sched.KeyOf and this count", n)
	}
	if n := reflect.TypeOf(perfcfg.EventSpec{}).NumField(); n != 6 {
		t.Errorf("perfcfg.EventSpec has %d fields; update sched.writeEvent and this count", n)
	}
}

// TestCacheDoesNotServeAcrossSeeds: the same job content at a different
// batch index derives a different seed and must be re-evaluated, not
// served the other index's cached result.
func TestCacheDoesNotServeAcrossSeeds(t *testing.T) {
	job := seedSensitiveJob()
	filler := Job{CPU: "Skylake", Mode: machine.Kernel, Cfg: nano.Config{Code: nano.MustAsm("nop")}}

	cache := NewCache()
	ex := New(Options{Workers: 1, RootSeed: 42, Cache: cache})
	atIndex0, err := ex.Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	// Same content now at index 1: must not be served index 0's result.
	atIndex1, err := ex.Run([]Job{filler, job})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Options{Workers: 1, RootSeed: 42}).Run([]Job{filler, job})
	if err != nil {
		t.Fatal(err)
	}
	if !atIndex1[1].Equal(fresh[1]) {
		t.Errorf("warm cache changed an index-1 result:\n%vvs fresh\n%v", atIndex1[1], fresh[1])
	}
	// And the index-0 evaluation itself must hit when repeated.
	again, err := ex.Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].Equal(atIndex0[0]) {
		t.Errorf("repeated batch not reproduced from cache")
	}
}

func TestDeriveSeedStableAndSpread(t *testing.T) {
	a, b := DeriveSeed(42, 0), DeriveSeed(42, 0)
	if a != b {
		t.Error("DeriveSeed is not a pure function")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		seen[DeriveSeed(42, i)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("only %d distinct seeds from 1000 indices", len(seen))
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Error("root seed does not influence the derivation")
	}
}

func TestForEachRunsEveryIndexDespiteErrors(t *testing.T) {
	var ran [16]int32
	boom := errors.New("boom")
	err := ForEach(len(ran), 4, func(i int) error {
		atomic.AddInt32(&ran[i], 1)
		switch i {
		case 3, 9:
			return boom
		case 12:
			panic("injected")
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("joined error lost the cause: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "index 12: panic: injected") {
		t.Errorf("joined error does not report the panic: %v", err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
	if err := ForEach(0, 4, func(int) error { return boom }); err != nil {
		t.Errorf("ForEach(0, ...) = %v", err)
	}
}

func TestRunEmptyBatch(t *testing.T) {
	res, err := New(Options{}).Run(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	for range New(Options{}).Stream(nil) {
		t.Fatal("empty stream delivered an item")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := NewCache()
	ex := New(Options{Workers: 2, RootSeed: 1, Cache: cache})
	jobs := testJobs(6)
	res, err := ex.RunContext(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if r != nil {
			t.Errorf("job %d produced a result under a cancelled context", i)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("cancelled batch cached %d entries", cache.Len())
	}
	// The executor is reusable after cancellation.
	res, err = ex.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("job %d: no result on the follow-up run", i)
		}
	}
}

func TestStreamContextCancelDeliversEveryIndexInOrder(t *testing.T) {
	// Cancel while the stream is mid-flight: every index must still be
	// delivered exactly once, in order, each either with a result or with
	// the context error, and the channel must close.
	jobs := testJobs(16)
	ctx, cancel := context.WithCancel(context.Background())
	ch := New(Options{Workers: 2, RootSeed: 3}).StreamContext(ctx, jobs)
	next, results, cancelled := 0, 0, 0
	for it := range ch {
		if it.Index != next {
			t.Fatalf("stream delivered index %d, want %d", it.Index, next)
		}
		next++
		switch {
		case it.Err == nil && it.Result != nil:
			results++
		case errors.Is(it.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("item %d: unexpected state (res=%v err=%v)", it.Index, it.Result, it.Err)
		}
		if next == 2 {
			cancel()
		}
	}
	cancel()
	if next != len(jobs) {
		t.Fatalf("stream delivered %d of %d items", next, len(jobs))
	}
	if results < 2 {
		t.Errorf("cancellation discarded already-completed results (%d delivered)", results)
	}
}
