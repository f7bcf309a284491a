package policy

import (
	"fmt"
	"math/rand"
	"testing"
)

// engineSeeds is how many randomized traces each policy is checked with.
func engineSeeds(t *testing.T) int {
	if testing.Short() {
		return 6
	}
	return 40
}

// probabilisticVariants samples the MRpx (probabilistic-insertion) corner
// of the QLRU family, which EnumerateQLRU does not cover.
var probabilisticVariants = []string{
	"QLRU_H11_MR161_R1_U2",
	"QLRU_H21_MR42_R2_U1_UMO",
	"QLRU_H10_MR81_R1_U0",
	"QLRU_H00_MR32_R2_U3_UMO",
}

// checkEngineTrace drives one randomized hit/miss/invalidate/reset/
// restream trace through the flat engine and the per-set reference
// policies and requires identical victim decisions throughout.
func checkEngineTrace(t *testing.T, sets, assoc int, seed int64,
	mkEngine func(stream *int64) Engine,
	mkRef func(stream int64) []Policy,
	onRefRestream func()) {
	t.Helper()

	stream := int64(0)
	eng := mkEngine(&stream)
	pols := mkRef(0)

	valid := make([][]bool, sets)
	nvalid := make([]int, sets)
	for s := range valid {
		valid[s] = make([]bool, assoc)
	}
	clearSet := func(s int) {
		for w := range valid[s] {
			valid[s][w] = false
		}
		nvalid[s] = 0
	}
	pickValid := func(rng *rand.Rand, s int) int {
		k := rng.Intn(nvalid[s])
		for w := 0; w < assoc; w++ {
			if valid[s][w] {
				if k == 0 {
					return w
				}
				k--
			}
		}
		t.Fatalf("no valid way in set %d", s)
		return -1
	}

	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < 300; op++ {
		s := rng.Intn(sets)
		switch r := rng.Intn(100); {
		case r < 55: // access: hit a cached way or miss (victim + fill)
			if nvalid[s] > 0 && rng.Intn(100) < 45 {
				w := pickValid(rng, s)
				eng.OnHit(s, w)
				pols[s].OnHit(w)
				continue
			}
			wv := eng.Victim(s)
			wr := pols[s].Victim()
			if wv != wr {
				t.Fatalf("op %d (seed %d): set %d victim mismatch: engine %d, reference %d", op, seed, s, wv, wr)
			}
			eng.OnFill(s, wv)
			pols[s].OnFill(wv)
			if !valid[s][wv] {
				valid[s][wv] = true
				nvalid[s]++
			}
		case r < 70: // CLFLUSH one cached way
			if nvalid[s] == 0 {
				continue
			}
			w := pickValid(rng, s)
			eng.OnInvalidate(s, w)
			pols[s].OnInvalidate(w)
			valid[s][w] = false
			nvalid[s]--
		case r < 85: // reset one set
			eng.Reset(s)
			pols[s].Reset()
			clearSet(s)
		case r < 93: // WBINVD: reset every set
			for i := 0; i < sets; i++ {
				eng.Reset(i)
				pols[i].Reset()
				clearSet(i)
			}
		default: // restream: fresh RNG streams everywhere
			stream++
			eng.Restream()
			for i := 0; i < sets; i++ {
				eng.Reset(i)
				clearSet(i)
			}
			pols = mkRef(stream)
			if onRefRestream != nil {
				onRefRestream()
			}
		}
	}
}

func checkNamedEngine(t *testing.T, name string, sets, assoc int, seed int64) {
	t.Helper()
	root := seed * 977
	checkEngineTrace(t, sets, assoc, seed,
		func(stream *int64) Engine {
			eng, err := NewEngine(Spec{Name: name}, 0, sets, assoc, func(set int) *rand.Rand {
				return NewSetRand(root, 0, set, *stream)
			})
			if err != nil {
				t.Fatalf("NewEngine(%s): %v", name, err)
			}
			return eng
		},
		func(stream int64) []Policy {
			pols := make([]Policy, sets)
			for s := range pols {
				pols[s] = MustNew(name, assoc, NewSetRand(root, 0, s, stream))
			}
			return pols
		},
		nil)
}

// TestEngineMatchesReference pins every specialized kernel bit-identical
// to its reference Policy implementation: all registered policy names,
// the full deterministic QLRU variant grid, sampled probabilistic QLRU
// variants, and the set-dueling combinator, each across randomized traces
// for ≥40 seeds (see engineSeeds).
func TestEngineMatchesReference(t *testing.T) {
	names := append(Names(), EnumerateQLRU()...)
	names = append(names, probabilisticVariants...)
	seeds := engineSeeds(t)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				checkNamedEngine(t, name, 4, 8, int64(seed)+1)
			}
		})
	}
	// Non-power-of-two associativity (PLRU excluded by construction).
	t.Run("assoc6", func(t *testing.T) {
		t.Parallel()
		for _, name := range []string{"LRU", "FIFO", "MRU", "MRU*", "RANDOM",
			"QLRU_H11_M1_R1_U2", "QLRU_H00_M1_R0_U0_UMO", "QLRU_H11_MR161_R1_U2"} {
			for seed := 0; seed < seeds; seed++ {
				checkNamedEngine(t, name, 3, 6, int64(seed)+1)
			}
		}
	})
}

// TestDuelEngineMatchesReference pins the flat set-dueling combinator
// against the reference leader/follower wrappers, including PSEL
// evolution, per-set RNG sharing between the two candidate policies, and
// Restream resetting the duel.
func TestDuelEngineMatchesReference(t *testing.T) {
	duels := []struct{ a, b string }{
		{"QLRU_H11_M1_R1_U2", "QLRU_H11_MR161_R1_U2"}, // Ivy Bridge L3 duel
		{"LRU", "MRU"},
		{"QLRU_H21_M2_R1_U1_UMO", "RANDOM"},
	}
	leaderOf := func(slice, set int) byte {
		switch set % 4 {
		case 0:
			return 'A'
		case 1:
			return 'B'
		}
		return 0
	}
	const sets, assoc = 8, 8
	for _, d := range duels {
		d := d
		t.Run(fmt.Sprintf("DUEL(%s,%s)", d.a, d.b), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < engineSeeds(t); seed++ {
				root := int64(seed)*977 + 13
				pselR := NewPSel(64)
				checkEngineTrace(t, sets, assoc, int64(seed)+1,
					func(stream *int64) Engine {
						eng, err := NewEngine(Spec{Duel: &DuelSpec{
							PolicyA: d.a, PolicyB: d.b,
							PSel:   NewPSel(64),
							Leader: leaderOf,
						}}, 0, sets, assoc, func(set int) *rand.Rand {
							return NewSetRand(root, 0, set, *stream)
						})
						if err != nil {
							t.Fatalf("NewEngine: %v", err)
						}
						return eng
					},
					func(stream int64) []Policy {
						pols := make([]Policy, sets)
						for s := range pols {
							rng := NewSetRand(root, 0, s, stream)
							switch leaderOf(0, s) {
							case 'A':
								pols[s] = NewLeader(MustNew(d.a, assoc, rng), pselR, true)
							case 'B':
								pols[s] = NewLeader(MustNew(d.b, assoc, rng), pselR, false)
							default:
								f, err := NewFollower(MustNew(d.a, assoc, rng), MustNew(d.b, assoc, rng), pselR)
								if err != nil {
									t.Fatalf("NewFollower: %v", err)
								}
								pols[s] = f
							}
						}
						return pols
					},
					pselR.Reset)
			}
		})
	}
}

// TestSingleMatchesSimulateSeq pins the flat single-set trace simulator
// against the map-based SimulateSeq reference, including state reuse
// across calls (both sides keep their RNG streams between sequences), at
// every associativity the Table I cache levels give policy inference.
func TestSingleMatchesSimulateSeq(t *testing.T) {
	names := append(Names(), EnumerateQLRU()...)
	names = append(names, probabilisticVariants...)
	seeds := engineSeeds(t) / 4
	if seeds < 2 {
		seeds = 2
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, assoc := range []int{4, 8, 12, 16} {
				if name == "PLRU" && assoc&(assoc-1) != 0 {
					continue // tree-PLRU needs a power-of-two width
				}
				for seed := 0; seed < seeds; seed++ {
					checkSingleTrace(t, name, assoc, int64(seed)*31+7)
				}
			}
		})
	}
}

// checkSingleTrace plays three random sequences through a Single and a
// reference Policy built from the same seed and requires identical
// per-access hits and hit counts.
func checkSingleTrace(t *testing.T, name string, assoc int, sd int64) {
	t.Helper()
	sim, err := NewSingle(name, assoc, LazyRNG(sd))
	if err != nil {
		t.Fatalf("NewSingle(%s, %d): %v", name, assoc, err)
	}
	ref := MustNew(name, assoc, rand.New(rand.NewSource(sd)))
	rng := rand.New(rand.NewSource(sd * 131))
	for round := 0; round < 3; round++ {
		seq := make([]int, 120)
		for i := range seq {
			seq[i] = rng.Intn(assoc + 4)
		}
		got := sim.Simulate(seq)
		want := SimulateSeq(ref, seq)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s assoc %d seed %d round %d: access %d: Single hit=%v, reference hit=%v",
					name, assoc, sd, round, i, got[i], want[i])
			}
		}
		if h := sim.CountHits(seq); h != countTrue(SimulateSeq(ref, seq)) {
			t.Fatalf("%s assoc %d: CountHits mismatch", name, assoc)
		}
	}
}

// TestEngineSpecialization pins the fallback matrix: which name ×
// associativity pairs compile to specialized kernels and which fall back
// to the reference engine (now observable via IsReference and the
// EngineFallbacks counter).
func TestEngineSpecialization(t *testing.T) {
	cases := []struct {
		name     string
		assoc    int
		fallback bool
	}{
		{"LRU", 8, false},
		{"LRU", 64, false},
		{"LRU", 96, true}, // kernels stop at 64 ways
		{"LRU", 256, true},
		{"LRU", 512, true},
		{"FIFO", 128, true},
		{"PLRU", 16, false},
		{"PLRU", 64, false},
		{"PLRU", 128, true},
		{"PLRU", 256, true},
		{"RANDOM", 8, false},
		{"RANDOM", 128, true},
		{"MRU", 8, false},
		{"MRU", 96, true},
		{"QLRU_H11_M1_R1_U2", 16, false},
		{"QLRU_H11_M1_R1_U2", 96, true},
	}
	rngFor := LazyRNG(1)
	for _, c := range cases {
		before := EngineFallbacks()
		eng, err := NewEngine(Spec{Name: c.name}, 0, 2, c.assoc, rngFor)
		if err != nil {
			t.Fatalf("NewEngine(%s, assoc %d): %v", c.name, c.assoc, err)
		}
		counted := EngineFallbacks() - before
		if got := IsReference(eng); got != c.fallback {
			t.Errorf("%s assoc %d: IsReference=%v, want %v", c.name, c.assoc, got, c.fallback)
		}
		if (counted > 0) != c.fallback {
			t.Errorf("%s assoc %d: EngineFallbacks advanced by %d, want fallback=%v",
				c.name, c.assoc, counted, c.fallback)
		}
	}
	// The dueling combinator reports a fallback if either side fell back.
	duel := func(a, b string, assoc int) Engine {
		eng, err := NewEngine(Spec{Duel: &DuelSpec{
			PolicyA: a, PolicyB: b, PSel: NewPSel(64),
			Leader: func(slice, set int) byte { return 0 },
		}}, 0, 2, assoc, rngFor)
		if err != nil {
			t.Fatalf("NewEngine(duel %s/%s): %v", a, b, err)
		}
		return eng
	}
	if IsReference(duel("LRU", "MRU", 8)) {
		t.Errorf("DUEL(LRU,MRU) assoc 8: unexpectedly reference")
	}
	if !IsReference(duel("LRU", "MRU", 96)) {
		t.Errorf("DUEL(LRU,MRU) assoc 96: MRU side should fall back")
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
