package alloc_test

// Cross-cutting allocator contract: every strategy reachable through
// alloc.ByName — built-ins and registered extensions alike — must fill
// shares with non-negative values summing to at most the budget, and
// every current strategy is work-conserving, so the sum must in fact
// equal the budget (within float tolerance). The test drives each
// allocator through a deterministic pseudo-random workload, feeding
// Learn when the strategy is an online learner, so learned state
// evolves the way a real run would.

import (
	"math"
	"sort"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/geom"
	"qarv/internal/learn" // registers the learned allocators with ByName
)

// _ asserts the learn package stays linked in (its init registers the
// bandit/gradient extensions CanonicalNames must enumerate).
var _ = learn.DefaultArms

func TestEveryByNameAllocatorConservesBudget(t *testing.T) {
	canon := alloc.CanonicalNames()
	if len(canon) < 6 {
		t.Fatalf("CanonicalNames() = %v, expected builtins plus learned extensions", canon)
	}
	for _, name := range canon {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := alloc.ByName(name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			if r, ok := a.(interface{ Reseed(*geom.RNG) }); ok {
				r.Reseed(geom.NewRNG(0xa110c))
			}
			learner, _ := a.(alloc.Learner)
			rng := geom.NewRNG(7)
			for _, n := range []int{1, 2, 8} {
				backlogs := make([]float64, n)
				utilities := make([]float64, n)
				shares := make([]float64, n)
				for slot := 0; slot < 200; slot++ {
					budget := 10 * rng.Float64()
					switch slot % 4 {
					case 0: // all queues empty
						for i := range backlogs {
							backlogs[i] = 0
						}
					case 1: // one heavy queue
						for i := range backlogs {
							backlogs[i] = 0
						}
						backlogs[rng.Intn(n)] = 1e6
					default: // mixed pseudo-random load
						for i := range backlogs {
							backlogs[i] = 100 * rng.Float64()
						}
					}
					a.Allocate(slot, budget, backlogs, shares)
					var sum float64
					for i, s := range shares {
						if s < 0 {
							t.Fatalf("slot %d device %d: negative share %v (backlogs %v, budget %v)",
								slot, i, s, backlogs, budget)
						}
						sum += s
					}
					if sum > budget+1e-9 {
						t.Fatalf("slot %d: shares sum %v exceeds budget %v", slot, sum, budget)
					}
					if math.Abs(sum-budget) > 1e-9*(1+budget) {
						t.Fatalf("slot %d: shares sum %v != budget %v (work conservation)", slot, sum, budget)
					}
					if learner != nil {
						for i := range utilities {
							utilities[i] = rng.Float64()
						}
						learner.Learn(slot, utilities, backlogs)
					}
				}
			}
		})
	}
}

// TestMaxWeightAllocationFree: MaxWeight runs inside every multi-device
// slot, so once its scratch index has grown it must not allocate.
func TestMaxWeightAllocationFree(t *testing.T) {
	a := alloc.NewMaxWeight()
	backlogs := []float64{3, 9, 0, 9, 1, 7, 7, 2}
	shares := make([]float64, len(backlogs))
	a.Allocate(0, 20, backlogs, shares)
	if n := testing.AllocsPerRun(100, func() { a.Allocate(1, 20, backlogs, shares) }); n != 0 {
		t.Errorf("MaxWeight.Allocate: %v allocs per call, want 0", n)
	}
}

// TestMaxWeightOrderMatchesSliceStable: the service order equals the one
// sort.SliceStable gives with a `>` less function, ties and NaN
// backlogs included, so every share is bit-identical to it.
func TestMaxWeightOrderMatchesSliceStable(t *testing.T) {
	rng := geom.NewRNG(5)
	a := alloc.NewMaxWeight()
	for round := 0; round < 500; round++ {
		n := 1 + rng.Intn(40)
		backlogs := make([]float64, n)
		for i := range backlogs {
			switch rng.Intn(6) {
			case 0:
				backlogs[i] = math.NaN()
			case 1:
				backlogs[i] = 0
			default:
				backlogs[i] = float64(rng.Intn(8))
			}
		}
		budget := 30 * rng.Float64()
		got := make([]float64, n)
		a.Allocate(round, budget, backlogs, got)

		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool { return backlogs[idx[x]] > backlogs[idx[y]] })
		want := make([]float64, n)
		remaining := budget
		for _, i := range idx {
			if remaining <= 0 {
				break
			}
			g := backlogs[i]
			if g < 0 {
				g = 0
			}
			if g > remaining {
				g = remaining
			}
			want[i] = g
			remaining -= g
		}
		if remaining > 0 {
			for i := range want {
				want[i] += remaining / float64(n)
			}
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d device %d: share %v, want %v (backlogs %v)", round, i, got[i], want[i], backlogs)
			}
		}
	}
}

// FuzzAllocatorByName fuzzes the allocator name grammar: every name
// either errors or yields an allocator whose shares stay finite and
// non-negative, summing to at most the budget, across a few
// Allocate/Learn rounds.
func FuzzAllocatorByName(f *testing.F) {
	for _, name := range alloc.CanonicalNames() {
		f.Add(name)
	}
	for _, name := range []string{"", "bandit", "bandit:0", "bandit:1024", "gradient:NaN",
		"gradient:Inf", "gradient:1e308", "gradient:5e-324", "equal:1", "nosuch"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		a, err := alloc.ByName(name)
		if err != nil {
			return
		}
		learner, _ := a.(alloc.Learner)
		backlogs := []float64{0, 5, 1e6}
		utilities := []float64{1, 0.2, 0.7}
		shares := make([]float64, len(backlogs))
		for slot := 0; slot < 8; slot++ {
			const budget = 10.0
			a.Allocate(slot, budget, backlogs, shares)
			var sum float64
			for i, s := range shares {
				if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
					t.Fatalf("%s slot %d device %d: share %v", a.Name(), slot, i, s)
				}
				sum += s
			}
			if sum > budget*(1+1e-9) {
				t.Fatalf("%s slot %d: shares sum %v exceeds budget %v", a.Name(), slot, sum, budget)
			}
			if learner != nil {
				learner.Learn(slot, utilities, backlogs)
			}
			backlogs[slot%len(backlogs)] += 3
		}
	})
}

// BenchmarkAllocateLearn measures each ByName-reachable allocator's
// per-slot cost — one Allocate, plus Learn for online learners — over
// an 8-device backlog state, the contending-fleet shape the learning
// ablation sweeps. EqualSplit is the baseline a learned strategy's
// overhead is read against.
func BenchmarkAllocateLearn(b *testing.B) {
	const devices = 8
	for _, name := range alloc.CanonicalNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			a, err := alloc.ByName(name)
			if err != nil {
				b.Fatalf("ByName(%q): %v", name, err)
			}
			if r, ok := a.(interface{ Reseed(*geom.RNG) }); ok {
				r.Reseed(geom.NewRNG(1))
			}
			learner, _ := a.(alloc.Learner)
			backlogs := make([]float64, devices)
			utilities := make([]float64, devices)
			shares := make([]float64, devices)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d := range backlogs {
					backlogs[d] = float64((i*7 + d*13) % 97)
					utilities[d] = float64((i+d)%10) / 10
				}
				a.Allocate(i, 100, backlogs, shares)
				if learner != nil {
					learner.Learn(i, utilities, backlogs)
				}
			}
		})
	}
}
