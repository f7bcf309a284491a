package policy

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchNames is the name pool the sequence and wide-assoc equivalence
// tests run over: every registered policy, the full deterministic QLRU
// grid, and sampled probabilistic variants.
func batchNames() []string {
	names := append(Names(), EnumerateQLRU()...)
	return append(names, probabilisticVariants...)
}

// accessScalar plays a run of same-set accesses through the per-access
// OnHit/Victim/OnFill protocol. seq[i] is the abstract block ID of access
// i; wayOf (block → way) and blockAt (way → block) carry the residency
// mapping with -1 meaning "absent" and are updated in place. If hits is
// non-nil, hits[i] reports whether access i hit. Returns the hit count.
func accessScalar(e Engine, set int, seq, wayOf, blockAt []int32, hits []bool) int {
	n := 0
	for i, b := range seq {
		if w := wayOf[b]; w >= 0 {
			e.OnHit(set, int(w))
			n++
			if hits != nil {
				hits[i] = true
			}
			continue
		}
		w := int32(e.Victim(set))
		if old := blockAt[w]; old >= 0 {
			wayOf[old] = -1
		}
		wayOf[b] = w
		blockAt[w] = b
		e.OnFill(set, int(w))
	}
	return n
}

// residency returns empty block → way and way → block maps.
func residency(blocks, assoc int) (wayOf, blockAt []int32) {
	wayOf = make([]int32, blocks)
	blockAt = make([]int32, assoc)
	for i := range wayOf {
		wayOf[i] = -1
	}
	for i := range blockAt {
		blockAt[i] = -1
	}
	return wayOf, blockAt
}

// checkBatchTrace plays the same random block sequences through a Single
// (the whole-sequence path policy inference takes) and through a
// one-set engine driven access by access with accessScalar, both built
// from identical RNG streams, and requires bit-identical per-access hits
// and hit counts, including RNG carryover across rounds (streams persist
// on both sides).
func checkBatchTrace(t *testing.T, name string, assoc int, seed int64) {
	t.Helper()
	single, err := NewSingle(name, assoc, LazyRNG(seed))
	if err != nil {
		t.Fatalf("NewSingle(%s): %v", name, err)
	}
	eng, err := NewEngine(Spec{Name: name}, 0, 1, assoc, LazyRNG(seed))
	if err != nil {
		t.Fatalf("NewEngine(%s): %v", name, err)
	}
	const blocks = 4
	scalar := func(seq []int, hits []bool) int {
		seq32 := make([]int32, len(seq))
		for i, b := range seq {
			seq32[i] = int32(b)
		}
		wayOf, blockAt := residency(assoc+blocks, assoc)
		eng.Reset(0)
		return accessScalar(eng, 0, seq32, wayOf, blockAt, hits)
	}
	rng := rand.New(rand.NewSource(seed * 613))
	for round := 0; round < 3; round++ {
		seq := make([]int, 100+rng.Intn(60))
		for i := range seq {
			seq[i] = rng.Intn(assoc + blocks)
		}
		want := make([]bool, len(seq))
		scalar(seq, want)
		got := single.Simulate(seq)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s assoc %d seed %d round %d: access %d: Single hit=%v, scalar hit=%v",
					name, assoc, seed, round, i, got[i], want[i])
			}
		}
		if h, w := single.CountHits(seq), scalar(seq, nil); h != w {
			t.Fatalf("%s assoc %d seed %d round %d: CountHits=%d, scalar=%d",
				name, assoc, seed, round, h, w)
		}
	}
}

// TestBatchMatchesScalar pins Single.Simulate / CountHits, which play a
// whole block sequence per call, bit-identical to the scalar per-access
// engine protocol for every specialized kernel and the reference
// fallback, across ≥40 seeds (see engineSeeds) and the full QLRU grid.
func TestBatchMatchesScalar(t *testing.T) {
	seeds := engineSeeds(t)
	for _, name := range batchNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				checkBatchTrace(t, name, 8, int64(seed)+1)
			}
		})
	}
}

// TestBatchMatchesScalarMultiSet plays runs of same-set accesses on
// randomly interleaved sets of a multi-set engine (including the
// set-dueling combinator, whose PSEL and leader bitmaps are cross-set
// state) and of the per-set reference policies, and requires identical
// hit counts and residency after every run.
func TestBatchMatchesScalarMultiSet(t *testing.T) {
	const sets, assoc = 8, 8
	leaderOf := func(slice, set int) byte {
		switch set % 4 {
		case 0:
			return 'A'
		case 1:
			return 'B'
		}
		return 0
	}
	named := func(name string) (func() Spec, func() SetFactory) {
		return func() Spec { return Spec{Name: name} },
			func() SetFactory {
				return func(set int, rng *rand.Rand) Policy { return MustNew(name, assoc, rng) }
			}
	}
	const duelA, duelB = "QLRU_H11_M1_R1_U2", "QLRU_H11_MR161_R1_U2"
	specs := []struct {
		label string
		mk    func() Spec
		ref   func() SetFactory
	}{
		{label: "LRU"}, {label: "PLRU"}, {label: "QLRU_H11_M1_R1_U2"}, {label: "QLRU_H21_MR42_R2_U1_UMO"},
		{"DUEL", func() Spec {
			return Spec{Duel: &DuelSpec{
				PolicyA: duelA, PolicyB: duelB,
				PSel: NewPSel(64), Leader: leaderOf,
			}}
		}, func() SetFactory {
			psel := NewPSel(64)
			return func(set int, rng *rand.Rand) Policy {
				switch leaderOf(0, set) {
				case 'A':
					return NewLeader(MustNew(duelA, assoc, rng), psel, true)
				case 'B':
					return NewLeader(MustNew(duelB, assoc, rng), psel, false)
				}
				f, err := NewFollower(MustNew(duelA, assoc, rng), MustNew(duelB, assoc, rng), psel)
				if err != nil {
					panic(err)
				}
				return f
			}
		}},
	}
	for _, sp := range specs {
		sp := sp
		if sp.mk == nil {
			sp.mk, sp.ref = named(sp.label)
		}
		t.Run(sp.label, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < engineSeeds(t); seed++ {
				root := int64(seed)*977 + 3
				rngFor := func(set int) *rand.Rand { return NewSetRand(root, 0, set, 0) }
				eng, err := NewEngine(sp.mk(), 0, sets, assoc, rngFor)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				ref := NewReferenceEngine(sp.label, sets, sp.ref(), rngFor)
				const blocks = assoc + 4
				wayE := make([][]int32, sets)
				blkE := make([][]int32, sets)
				wayR := make([][]int32, sets)
				blkR := make([][]int32, sets)
				for s := 0; s < sets; s++ {
					wayE[s], blkE[s] = residency(blocks, assoc)
					wayR[s], blkR[s] = residency(blocks, assoc)
				}
				rng := rand.New(rand.NewSource(root + 5))
				for round := 0; round < 12; round++ {
					set := rng.Intn(sets)
					seq := make([]int32, 20+rng.Intn(40))
					for i := range seq {
						seq[i] = int32(rng.Intn(blocks))
					}
					nE := accessScalar(eng, set, seq, wayE[set], blkE[set], nil)
					nR := accessScalar(ref, set, seq, wayR[set], blkR[set], nil)
					if nE != nR {
						t.Fatalf("%s seed %d round %d set %d: engine hits=%d, reference hits=%d",
							sp.label, seed, round, set, nE, nR)
					}
					for i := range wayR[set] {
						if wayR[set][i] != wayE[set][i] {
							t.Fatalf("%s seed %d round %d set %d: wayOf[%d] diverged: reference %d, engine %d",
								sp.label, seed, round, set, i, wayR[set][i], wayE[set][i])
						}
					}
				}
			}
		})
	}
}

// TestWideKernelsMatchReference pins engines and Singles above 64 ways,
// where LRU, FIFO and PLRU fall back to the reference engine, to the
// per-set reference policies and to the scalar protocol at 96, 128 and
// 256 ways (PLRU only at its power-of-two widths).
func TestWideKernelsMatchReference(t *testing.T) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"LRU", 96}, {"LRU", 128}, {"LRU", 256},
		{"FIFO", 96}, {"FIFO", 128}, {"FIFO", 256},
		{"PLRU", 128}, {"PLRU", 256},
	}
	seeds := engineSeeds(t) / 4
	if seeds < 4 {
		seeds = 4
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%d", c.name, c.assoc), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				checkNamedEngine(t, c.name, 2, c.assoc, int64(seed)+1)
			}
			for seed := 0; seed < seeds; seed++ {
				checkBatchTrace(t, c.name, c.assoc, int64(seed)+11)
			}
		})
	}
}

// TestStampWideRenorm drives the stamp kernel at its widest (64 ways)
// through the clock wrap and checks LRU order survives the rank
// renormalization.
func TestStampWideRenorm(t *testing.T) {
	const assoc = 64
	eng := newStampEngine("LRU", 1, assoc, false)
	for w := 0; w < assoc; w++ {
		if v := eng.Victim(0); v != w {
			t.Fatalf("cold fill: victim %d, want %d", v, w)
		}
		eng.OnFill(0, w)
	}
	// Skip the clock to just before the wrap, make way 0 the most recent,
	// then touch every other way in order: the first touch renormalizes,
	// and way 0 must end up the LRU victim.
	eng.clock[0] = ^uint32(0) - 1
	eng.OnHit(0, 0)
	for w := 1; w < assoc; w++ {
		eng.OnHit(0, w) // the first hit crosses the wrap
		if w == 1 {
			if eng.clock[0] != assoc+2 {
				t.Fatalf("post-wrap clock %d, want %d", eng.clock[0], assoc+2)
			}
			if v := eng.Victim(0); v != 2 {
				t.Fatalf("after renorm: victim %d, want 2", v)
			}
		}
	}
	if v := eng.Victim(0); v != 0 {
		t.Fatalf("post-renorm victim %d, want 0", v)
	}
}
