package cache_test

import (
	"math/rand"
	"testing"

	"nanobench/internal/sim/cache"
	"nanobench/internal/uarch"
)

// TestFreshCacheMatchesEagerlyCleared pins lazy set initialization: a new
// cache initializes each set on first touch, and must behave exactly like
// a cache whose every set was initialized up front. For every Table I L1,
// L2 and L3 policy (including the adaptive duels, on two slices so both
// leader layouts are covered), one cache has every set probed once before
// the two are driven through the same seeded access, fill and invalidate
// sequence.
func TestFreshCacheMatchesEagerlyCleared(t *testing.T) {
	for _, cpu := range uarch.Table1() {
		for _, level := range []string{"L1D", "L2", "L3"} {
			slices := 1
			if level == "L3" {
				slices = min(cpu.L3Slices, 2)
			}
			for slice := 0; slice < slices; slice++ {
				fresh := newLevelCache(t, cpu, level, slice)
				eager := newLevelCache(t, cpu, level, slice)
				name := cpu.Name + "/" + level + "/" + eager.PolicyName()
				line := uint64(eager.Geom.LineSize)
				for s := 0; s < eager.Geom.Sets(); s++ {
					if eager.Probe(uint64(s) * line) {
						t.Fatalf("%s: set %d not empty before any fill", name, s)
					}
				}
				driveBoth(t, name, fresh, eager, int64(cpu.Gen)*8+int64(slice))
			}
		}
	}
}

// newLevelCache builds one cache level of cpu from a spec of its own, so
// two caches of an adaptive level never share a dueling PSEL.
func newLevelCache(t *testing.T, cpu uarch.CPU, level string, slice int) *cache.Cache {
	t.Helper()
	cfg := cpu.MachineSpec(1).Cache
	geom, pf := cfg.L3, cfg.L3Policy
	switch level {
	case "L1D":
		geom, pf = cfg.L1D, cfg.L1DPolicy
	case "L2":
		geom, pf = cfg.L2, cfg.L2Policy
	}
	c, err := cache.New(geom, slice, pf, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// driveBoth plays one seeded operation sequence through both caches and
// fails on the first differing result. Addresses concentrate on a pool of
// sets drawn around the dueling leader ranges and at random, with three
// times the associativity in distinct tags, so sets fill, evict and
// refill.
func driveBoth(t *testing.T, name string, a, b *cache.Cache, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	line := uint64(a.Geom.LineSize)
	sets := a.Geom.Sets()
	pool := make([]int, 24)
	for i := range pool {
		pool[i] = ([]int{512, 768, rng.Intn(sets)}[i%3] + rng.Intn(64)) & (sets - 1)
	}
	tags := 3 * a.Geom.Assoc
	for op := 0; op < 20000; op++ {
		set := pool[rng.Intn(len(pool))]
		phys := (uint64(rng.Intn(tags))*uint64(sets) + uint64(set)) * line
		flag := rng.Intn(2) == 0
		switch r := rng.Intn(20); {
		case r < 14:
			h1, e1, d1, p1 := a.Access(phys, flag)
			h2, e2, d2, p2 := b.Access(phys, flag)
			if h1 != h2 || e1 != e2 || d1 != d2 || p1 != p2 {
				t.Fatalf("%s op %d: Access(%#x) = %v %v %v %#x lazily, %v %v %v %#x eagerly",
					name, op, phys, h1, e1, d1, p1, h2, e2, d2, p2)
			}
		case r < 17:
			e1, d1, p1 := a.Fill(phys, flag)
			e2, d2, p2 := b.Fill(phys, flag)
			if e1 != e2 || d1 != d2 || p1 != p2 {
				t.Fatalf("%s op %d: Fill(%#x) = %v %v %#x lazily, %v %v %#x eagerly",
					name, op, phys, e1, d1, p1, e2, d2, p2)
			}
		default:
			pr1, d1 := a.InvalidateLine(phys)
			pr2, d2 := b.InvalidateLine(phys)
			if pr1 != pr2 || d1 != d2 {
				t.Fatalf("%s op %d: InvalidateLine(%#x) = %v %v lazily, %v %v eagerly",
					name, op, phys, pr1, d1, pr2, d2)
			}
		}
		if a.ValidLines() != b.ValidLines() {
			t.Fatalf("%s op %d: ValidLines %d lazily, %d eagerly", name, op, a.ValidLines(), b.ValidLines())
		}
	}
	if a.ValidLines() == 0 {
		t.Fatalf("%s: sequence left no valid lines", name)
	}
}
