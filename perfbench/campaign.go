package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nanobench"
	"nanobench/internal/cachetools"
	"nanobench/internal/experiments"
	"nanobench/internal/nano"
	"nanobench/internal/sched"
	"nanobench/internal/sim/machine"
	"nanobench/internal/sim/policy"
)

// Campaign sizes the probe replays with, matching PolicyCampaign's
// defaults so a replayed cell or age row is the campaign's own.
const (
	// campaignSeeds is how many sequence-generator seeds the passes
	// cycle through. How many sequences a cell needs depends on the
	// seed (total 204 to 247 over ten seeds tried), so cycling averages
	// that cost instead of letting one seed set a run's throughput.
	campaignSeeds        = 8
	campaignMaxSequences = 120
	ageMaxFresh          = 64
	ageStep              = 16
	ageTrials            = 8
	// accessesPerCell is how many Hierarchy.Data calls the cache.access
	// probe makes on each cell's conflict set.
	accessesPerCell = 20000
	// seqsPerCandidate is how many sequences the policy.count_hits probe
	// plays through each candidate policy.
	seqsPerCandidate = 64
)

// campaignBench is the cache_campaign workload: repeated passes of the
// Table I policy-inference campaign (every model, L1 to L3, plus the
// stochastic-leader age graphs). Pass i seeds the sequence generator
// with the workload seed's (i mod campaignSeeds)th derived seed.
type campaignBench struct {
	seed    int64
	opt     experiments.CampaignOptions
	size    int
	ref     *experiments.CampaignResult // the set-up pass's result
	digests map[int64]string            // FormatCampaign digest per generator seed
	passes  int
	reasons []string
}

func setupCampaign(ctx context.Context, seed int64) (bench, error) {
	b := &campaignBench{seed: seed, opt: experiments.CampaignOptions{Workers: workers, AgeGraphs: true}, digests: map[int64]string{}}
	size, err := experiments.CampaignSize(b.opt)
	if err != nil {
		return nil, err
	}
	b.size = size
	// The untimed set-up pass fixes the reference the probe replay must
	// reproduce.
	st, err := b.campaign(ctx, nil)
	if err != nil {
		return nil, err
	}
	if st.failed > 0 {
		b.reasons = append(b.reasons, fmt.Sprintf("set-up pass: %d cells or age rows failed their checks", st.failed))
	}
	return b, nil
}

// campaign runs one pass and checks it: every pass with the same
// generator seed must render the same FormatCampaign bytes.
func (b *campaignBench) campaign(ctx context.Context, tr *tracer) (stats, error) {
	b.opt.Seed = sched.DeriveSeed(b.seed, b.passes%campaignSeeds)
	b.passes++
	id := tr.begin("experiments.campaign", tr.newOp(), -1)
	t0 := time.Now()
	res, err := experiments.PolicyCampaign(ctx, b.opt, nil)
	lat := time.Since(t0)
	tr.end(id)
	if err != nil {
		return stats{}, fmt.Errorf("cache_campaign: %w", err)
	}
	st := stats{ops: len(res.Cells) + len(res.AgeRows), latencies: []float64{float64(lat.Nanoseconds()) / 1e6}}
	st.failed, st.checked, st.matched = checkCampaign(res, b.size)
	var buf bytes.Buffer
	experiments.FormatCampaign(&buf, res)
	sum := sha256.Sum256(buf.Bytes())
	digest := hex.EncodeToString(sum[:])
	if b.ref == nil {
		b.ref = res
	}
	if want, ok := b.digests[b.opt.Seed]; !ok {
		b.digests[b.opt.Seed] = digest
	} else if digest != want {
		b.reasons = append(b.reasons, fmt.Sprintf("pass %d: FormatCampaign digest %s, want %s", b.passes, digest, want))
	}
	return st, nil
}

// checkCampaign scores a campaign: a cell fails unless it inferred its
// model's injected policy (Cell.OK), an age row fails without a graph,
// and missing steps fail. Only cells have ground truth, so only they
// count as checks.
func checkCampaign(res *experiments.CampaignResult, size int) (failed, checked, matched int) {
	for _, c := range res.Cells {
		checked++
		if c.OK {
			matched++
		} else {
			failed++
		}
	}
	for _, a := range res.AgeRows {
		if a.Graph == nil || len(a.Graph.Hits) == 0 {
			failed++
		}
	}
	if n := len(res.Cells) + len(res.AgeRows); n < size {
		failed += size - n
	}
	return failed, checked, matched
}

func (b *campaignBench) run(ctx context.Context, deadline time.Time, tr *tracer) (stats, error) {
	var st stats
	for {
		one, err := b.campaign(ctx, tr)
		if err != nil {
			return st, err
		}
		st.add(one)
		if !time.Now().Before(deadline) {
			return st, nil
		}
	}
}

// probe replays every cell and age row of the reference campaign once,
// one layer call at a time, checking each against the campaign's
// outcome; then it times the sequence, cache and policy layers on each
// cell's own sets.
func (b *campaignBench) probe(ctx context.Context, tr *tracer) (probeResult, error) {
	pr := newProbeResult()
	rng := rand.New(rand.NewSource(b.seed))
	refSeed := sched.DeriveSeed(b.seed, 0) // the set-up pass's generator seed
	var replays, realRuns uint64
	var accesses int
	assocs := map[int]bool{}
	for _, c := range b.ref.Cells {
		levels, err := experiments.ParseLevels([]string{c.Level})
		if err != nil {
			return pr, err
		}
		level := levels[0]
		op := tr.newOp()
		root := tr.begin("probe.cell", op, -1)
		tool, err := newProbeTool(tr, op, root, c.CPU)
		if err != nil {
			return pr, err
		}
		id := tr.begin("cachetools.infer", op, root)
		inf, err := tool.InferPolicyContext(ctx, level, c.Slice, c.Set, cachetools.InferOptions{MaxSequences: campaignMaxSequences, Seed: refSeed})
		tr.end(id)
		tr.end(root)
		if err != nil {
			return pr, err
		}
		name := "probabilistic"
		if len(inf.Classes) > 0 {
			name, _ = inf.Unique()
		}
		pr.check(name == c.Policy && inf.SequencesUsed == c.Sequences,
			"cache_campaign %s %s: replay inferred %s in %d sequences, campaign %s in %d", c.CPU, c.Level, name, inf.SequencesUsed, c.Policy, c.Sequences)

		assoc := tool.Assoc(level)
		assocs[assoc] = true
		for k := 0; k < 4; k++ {
			seq := cachetools.Seq{WbInvd: true}
			for j := 0; j < 2*assoc+8; j++ {
				seq.Accesses = append(seq.Accesses, cachetools.Access{Block: rng.Intn(assoc + 4), Measured: true})
			}
			id := tr.begin("cachetools.run_seq", tr.newOp(), -1)
			_, err := tool.RunSeqContext(ctx, level, c.Slice, c.Set, seq)
			tr.end(id)
			if err != nil {
				return pr, err
			}
		}
		rep, real := tool.R.SeqReplayStats()
		replays += rep
		realRuns += real

		n, err := timeAccesses(tr, tool, level, c.Slice, c.Set, assoc+4, rng)
		if err != nil {
			return pr, err
		}
		accesses += n
	}

	prefix := cachetools.SeqOf(true, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	for _, a := range b.ref.AgeRows {
		op := tr.newOp()
		root := tr.begin("probe.agegraph", op, -1)
		tool, err := newProbeTool(tr, op, root, a.CPU)
		if err != nil {
			return pr, err
		}
		cpu := a.CPU
		tool.Workers = workers
		tool.NewSibling = func() (*cachetools.Tool, error) { return newProbeTool(nil, 0, -1, cpu) }
		id := tr.begin("cachetools.agegraph", op, root)
		g, err := tool.AgeGraphFor(cachetools.L3, a.Slice, a.Set, prefix, ageMaxFresh, ageStep, ageTrials)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return pr, err
		}
		pr.check(g.Format() == a.Graph.Format(), "cache_campaign %s: replayed age graph differs from the campaign's", a.CPU)
	}

	hitsAccesses, err := timeCountHits(tr, assocs, rng)
	if err != nil {
		return pr, err
	}

	pr.mean(tr, "experiments.campaign_s", "experiments.campaign", time.Second)
	pr.mean(tr, "machine.new_ms", "machine.new", time.Millisecond)
	pr.share(tr, "machine.new_share", "machine.new")
	pr.mean(tr, "cachetools.infer_ms", "cachetools.infer", time.Millisecond)
	pr.mean(tr, "cachetools.agegraph_ms", "cachetools.agegraph", time.Millisecond)
	pr.mean(tr, "cachetools.run_seq_us", "cachetools.run_seq", time.Microsecond)
	pr.set("nano.seqreplay_replay_frac", float64(replays)/float64(max(replays+realRuns, 1)),
		"%d replayed / %d sequence runs on the %d replayed cells' runners", replays, replays+realRuns, len(b.ref.Cells))
	pr.set("nano.seqreplay_real_runs", float64(realRuns), "runs simulated on the machine, over the %d replayed cells' runners", len(b.ref.Cells))
	acc := tr.stat("cache.access")
	pr.set("cache.access_ns", float64(acc.total.Nanoseconds())/float64(max(accesses, 1)),
		"%.4f s / %d Hierarchy.Data calls on the cells' conflict sets", acc.total.Seconds(), accesses)
	ch := tr.stat("policy.count_hits")
	pr.set("policy.count_hits_ns", float64(ch.total.Nanoseconds())/float64(max(hitsAccesses, 1)),
		"%.4f s / %d accesses through Single.CountHits over DefaultCandidates", ch.total.Seconds(), hitsAccesses)
	pr.notes = []string{
		"machine.new, cachetools.infer and the seq-replay counters run inside experiments.PolicyCampaign; every cell is replayed once through Session.NewMachine -> nano.NewRunner -> cachetools.New -> InferPolicyContext, and every age row through AgeGraphFor, each checked equal to the campaign's",
		"nano.run_ms, machine.sim_cycles, machine.host_ns_per_sim_cycle: cachetools measures through Runner.RunSeqHits, which replays verified traces instead of simulating; its cost is cachetools.run_seq_us",
		fmt.Sprintf("cache.access_ns: Hierarchy.Data runs inside machine.Run and seq replay; it is timed on each replayed cell's machine, %d seeded accesses over the cell's conflict set", accessesPerCell),
		fmt.Sprintf("policy.count_hits_ns: candidate simulation inside InferPolicyContext is timed with Single.CountHits on %d seeded sequences per candidate of the inference's shape (2*assoc+8 accesses over assoc+4 blocks)", seqsPerCandidate),
	}
	return pr, nil
}

// newProbeTool builds a cell's cache tool the way PolicyCampaign does —
// a session at the experiment seed, its runner, and cachetools.New —
// timing each step as a child of parent.
func newProbeTool(tr *tracer, op int64, parent int, cpu string) (*cachetools.Tool, error) {
	sess, err := nanobench.Open(nanobench.WithCPU(cpu), nanobench.WithMode(nanobench.Kernel), nanobench.WithSeed(experiments.Seed))
	if err != nil {
		return nil, err
	}
	id := tr.begin("machine.new", op, parent)
	m, err := sess.NewMachine()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("nano.new_runner", op, parent)
	r, err := nano.NewRunner(m, machine.Kernel)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("cachetools.new", op, parent)
	tool, err := cachetools.New(r)
	tr.end(id)
	return tool, err
}

// timeAccesses plays seeded reads over n conflict-set blocks straight
// into the tool machine's hierarchy and returns how many it made.
func timeAccesses(tr *tracer, tool *cachetools.Tool, level cachetools.Level, slice, set, n int, rng *rand.Rand) (int, error) {
	blocks, err := tool.Blocks(level, slice, set, n)
	if err != nil {
		return 0, err
	}
	phys := make([]uint64, len(blocks))
	for i, v := range blocks {
		p, ok := tool.R.M.Mem.Translate(v)
		if !ok {
			return 0, fmt.Errorf("cache.access probe: block %#x not mapped", v)
		}
		phys[i] = p
	}
	order := make([]uint64, accessesPerCell)
	for i := range order {
		order[i] = phys[rng.Intn(len(phys))]
	}
	h := tool.R.M.Hier
	id := tr.begin("cache.access", tr.newOp(), -1)
	for _, p := range order {
		h.Data(p, false)
	}
	tr.end(id)
	return len(order), nil
}

// timeCountHits plays seeded inference-shaped sequences through every
// default candidate policy of each associativity and returns the number
// of accesses simulated.
func timeCountHits(tr *tracer, assocs map[int]bool, rng *rand.Rand) (int, error) {
	sorted := make([]int, 0, len(assocs))
	for assoc := range assocs {
		sorted = append(sorted, assoc)
	}
	sort.Ints(sorted)
	total := 0
	for _, assoc := range sorted {
		seqs := make([][]int, seqsPerCandidate)
		for i := range seqs {
			seqs[i] = make([]int, 2*assoc+8)
			for j := range seqs[i] {
				seqs[i][j] = rng.Intn(assoc + 4)
			}
		}
		for _, name := range cachetools.DefaultCandidates(assoc) {
			s, err := policy.NewSingle(name, assoc, policy.LazyRNG(1))
			if err != nil {
				return 0, err
			}
			id := tr.begin("policy.count_hits", tr.newOp(), -1)
			for _, seq := range seqs {
				s.CountHits(seq)
			}
			tr.end(id)
			total += seqsPerCandidate * (2*assoc + 8)
		}
	}
	return total, nil
}

func (b *campaignBench) finish() []string { return b.reasons }

func (b *campaignBench) close() {}
