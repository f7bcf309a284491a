package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"nanobench/internal/instbench"
	"nanobench/internal/nano"
	"nanobench/internal/sched"
	"nanobench/internal/sim/machine"
	"nanobench/internal/uarch"
)

// instrGolden is the SHA-256 of instbench.FormatTable for the full
// variant sweep of each Table I model in kernel mode. The table does not
// depend on the sched root seed, so every pass of every run must render
// these exact bytes; a change to them is a change to the
// characterization results.
var instrGolden = map[string]string{
	"Nehalem":     "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"Westmere":    "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"SandyBridge": "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"IvyBridge":   "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"Haswell":     "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"Broadwell":   "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"Skylake":     "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"KabyLake":    "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"CoffeeLake":  "761d45ac0dd42d1052e0208b59055e34e0710a221d39bc8f06da4649673cdb1d",
	"CannonLake":  "31b0bb26672644b1380c4e53c4955b63ceb37958f57b2ad7cfc473b660df0d10",
}

// instrBench is the instr_sweep workload: passes of the full variant
// sweep, each on the next model of a seed-shuffled Table I order, each
// with a fresh result cache so that every evaluation is simulated.
type instrBench struct {
	seed     int64
	models   []string
	variants []instbench.Variant
	passes   int
	cache    sched.CacheInfo // summed over every pass's cache
	reasons  []string
}

func setupInstr(ctx context.Context, seed int64) (bench, error) {
	b := &instrBench{seed: seed, variants: instbench.Variants()}
	for _, cpu := range uarch.Table1() {
		b.models = append(b.models, cpu.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(b.models), func(i, j int) { b.models[i], b.models[j] = b.models[j], b.models[i] })
	// One untimed pass pays the lazy one-time costs (instruction tables,
	// heap growth) before the window opens; its outputs are checked too.
	st, err := b.sweep(ctx, nil)
	if err != nil {
		return nil, err
	}
	if st.failed > 0 {
		b.reasons = append(b.reasons, fmt.Sprintf("set-up pass: %d variants failed their checks", st.failed))
	}
	return b, nil
}

// sweep runs one pass on the next model and checks it.
func (b *instrBench) sweep(ctx context.Context, tr *tracer) (stats, error) {
	model := b.models[b.passes%len(b.models)]
	b.passes++
	cache := sched.NewCache()
	id := tr.begin("instbench.sweep", tr.newOp(), -1)
	t0 := time.Now()
	ms, err := instbench.SweepVariantsContext(ctx, model, machine.Kernel, b.variants,
		sched.Options{Workers: workers, RootSeed: b.seed, Cache: cache})
	lat := time.Since(t0)
	tr.end(id)
	if err != nil {
		return stats{}, fmt.Errorf("instr_sweep on %s: %w", model, err)
	}
	info := cache.Info()
	b.cache.Hits += info.Hits
	b.cache.Misses += info.Misses
	b.cache.Evictions += info.Evictions

	st := stats{ops: len(ms), latencies: []float64{float64(lat.Nanoseconds()) / 1e6}}
	for _, m := range ms {
		checks, matched := checkVariant(m)
		st.checked += checks
		st.matched += matched
		if matched < checks {
			st.failed++
		}
	}
	if len(ms) != len(b.variants) {
		st.failed += len(b.variants) - len(ms)
	}
	if got := tableDigest(ms); got != instrGolden[model] {
		b.reasons = append(b.reasons, fmt.Sprintf("%s: FormatTable digest %s, want %s", model, got, instrGolden[model]))
	}
	return st, nil
}

// checkVariant compares one measurement with the simulator's
// instruction table, the way the E6 experiment scores it: a latency
// within 0.25 cycles of ExpectedLatency, and a non-empty port set inside
// ExpectedPorts.
func checkVariant(m instbench.Measurement) (checks, matched int) {
	if want := instbench.ExpectedLatency(m.Variant); want >= 0 && m.Latency >= 0 {
		checks++
		if math.Abs(m.Latency-want) <= 0.25 {
			matched++
		}
	}
	if m.Variant.Form != instbench.FormNone {
		checks++
		if got := m.PortSet(); got != 0 && got&^instbench.ExpectedPorts(m.Variant) == 0 {
			matched++
		}
	}
	return checks, matched
}

func tableDigest(ms []instbench.Measurement) string {
	sum := sha256.Sum256([]byte(instbench.FormatTable(ms)))
	return hex.EncodeToString(sum[:])
}

func (b *instrBench) run(ctx context.Context, deadline time.Time, tr *tracer) (stats, error) {
	var st stats
	for {
		one, err := b.sweep(ctx, tr)
		if err != nil {
			return st, err
		}
		st.add(one)
		if !time.Now().Before(deadline) {
			return st, nil
		}
	}
}

// probe replays the first model's variant set one evaluation at a time,
// exactly as the sched executor would run it (same jobs, same derived
// seeds), and checks every replayed result against the executor's.
func (b *instrBench) probe(ctx context.Context, tr *tracer) (probeResult, error) {
	pr := newProbeResult()
	model := b.models[0]
	cpu, err := uarch.ByName(model)
	if err != nil {
		return pr, err
	}
	var jobs []sched.Job
	var replayed []*nano.Result
	seedIdx := map[sched.Key]int{}
	var cycles int64
	evaluate := func(op int64, parent int, cfg nano.Config) error {
		j := sched.Job{CPU: model, Mode: machine.Kernel, Cfg: cfg}
		id := tr.begin("sched.key", op, parent)
		key := sched.KeyOf(j)
		tr.end(id)
		idx, ok := seedIdx[key]
		if !ok {
			idx = len(jobs)
			seedIdx[key] = idx
		}
		jobs = append(jobs, j)

		ev := tr.begin("probe.evaluation", op, parent)
		defer tr.end(ev)
		id = tr.begin("machine.new", op, ev)
		m, err := cpu.NewMachine(sched.DeriveSeed(b.seed, idx))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("nano.new_runner", op, ev)
		r, err := nano.NewRunner(m, machine.Kernel)
		tr.end(id)
		if err != nil {
			return err
		}
		c0 := m.Cycle()
		id = tr.begin("nano.run", op, ev)
		res, err := r.RunContext(ctx, cfg)
		tr.end(id)
		cycles += m.Cycle() - c0
		replayed = append(replayed, res)
		return err
	}
	for _, v := range b.variants {
		op := tr.newOp()
		root := tr.begin("probe.variant", op, -1)
		id := tr.begin("x86.assemble", op, root)
		latCfg, hasLat, err := instbench.LatencyConfig(v)
		tr.end(id)
		if err != nil {
			return pr, err
		}
		if hasLat {
			if err := evaluate(op, root, latCfg); err != nil {
				return pr, err
			}
		}
		id = tr.begin("x86.assemble", op, root)
		tpCfg, err := instbench.ThroughputConfig(v)
		tr.end(id)
		if err != nil {
			return pr, err
		}
		if err := evaluate(op, root, tpCfg); err != nil {
			return pr, err
		}
		tr.end(root)
	}

	id := tr.begin("sched.run", tr.newOp(), -1)
	want, err := sched.New(sched.Options{Workers: workers, RootSeed: b.seed}).RunContext(ctx, jobs)
	tr.end(id)
	if err != nil {
		return pr, err
	}
	for i := range jobs {
		pr.check(replayed[i].Equal(want[i]), "instr_sweep %s: replayed evaluation %d differs from the sched executor's", model, i)
	}

	pr.mean(tr, "instbench.sweep_s", "instbench.sweep", time.Second)
	pr.mean(tr, "machine.new_ms", "machine.new", time.Millisecond)
	pr.share(tr, "machine.new_share", "machine.new")
	pr.mean(tr, "nano.run_ms", "nano.run", time.Millisecond)
	pr.mean(tr, "sched.key_us", "sched.key", time.Microsecond)
	run := tr.stat("nano.run")
	pr.set("machine.sim_cycles", float64(cycles)/float64(max(run.n, 1)), "%d simulated cycles over %d nano.run spans", cycles, run.n)
	pr.set("machine.host_ns_per_sim_cycle", float64(run.total.Nanoseconds())/float64(max(cycles, 1)),
		"%.4f s of nano.run spans / %d simulated cycles", run.total.Seconds(), cycles)
	asm := tr.stat("x86.assemble")
	pr.set("x86.assemble_us", float64(asm.total.Microseconds())/float64(max(2*asm.n, 1)),
		"%.6f s in %d config builds of two x86.Assemble calls each", asm.total.Seconds(), asm.n)
	lookups := b.cache.Hits + b.cache.Misses
	pr.set("sched.cache_hit_frac", float64(b.cache.Hits)/float64(max(lookups, 1)),
		"%d hits / %d lookups over %d passes' fresh caches", b.cache.Hits, lookups, b.passes)
	pr.set("sched.evictions", float64(b.cache.Evictions), "summed over %d passes' caches", b.passes)
	pr.notes = []string{
		fmt.Sprintf("machine.new, nano.run and sched.key run inside instbench.SweepVariantsContext; they are timed by replaying %s's %d evaluations through uarch.CPU.NewMachine -> nano.NewRunner -> Runner.RunContext with sched's derived seeds, each result checked equal to the executor's", model, len(jobs)),
		"x86.assemble: instbench's benchmark sources are unexported, so LatencyConfig/ThroughputConfig (two Assemble calls each: code and init) are timed and halved",
		"sched.hit_us: every pass uses a fresh result cache, so this workload makes no cache hits",
	}
	return pr, nil
}

func (b *instrBench) finish() []string { return b.reasons }

func (b *instrBench) close() {}
