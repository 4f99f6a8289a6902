package stats

import (
	"math"
	"sync"
)

// bucketIndex maps an observation to its sketch bucket,
// ceil(ln(x)/ln(gamma)), without calling math.Log on the hot path. It
// returns exactly what that formula returns, bit for bit: over
// [2^tableMinExp, 2^tableMaxExp) it looks the answer up in a table
// built from the formula itself, and outside that range it evaluates
// the formula.
//
// The table has two parts. bounds[j] is the smallest float64 whose
// formula index is at least first+j, found by bisection over the float
// bits. guess holds, for every mantissa cell (a binade split into equal
// parts by its top mantissa bits), the bounds offset of the cell's
// lower edge. Cells are narrow enough that a bucket boundary crosses
// each at most once, so one comparison against the next bound corrects
// the guess.
type bucketIndex struct {
	lgamma float64
	shift  uint      // float bits >> shift gives the cell number
	cell0  uint64    // cell number of 2^tableMinExp
	first  int       // bucket index of bounds[0]
	guess  []int32   // per cell: bounds offset of its lower edge
	bounds []float64 // bounds[j]: smallest x with formula index ≥ first+j
}

const (
	// tableMinExp and tableMaxExp bound the tabled range [2^-20, 2^64);
	// 2^-20 lies just below sketchMinValue, so every observation that
	// reaches a bucket in practice is tabled.
	tableMinExp = -20
	tableMaxExp = 64
	// maxCellBits caps the cells per binade at 2^9, which keeps the
	// guess table at 84·512 entries (~170 KB). Accuracies too fine for
	// that (below ~0.2%) evaluate the formula instead.
	maxCellBits = 9
)

// bucketIndexes caches one read-only bucketIndex per sketch accuracy,
// so the table is built once per process, not once per sketch.
var bucketIndexes struct {
	sync.Mutex
	byAccuracy map[float64]*bucketIndex
}

// bucketIndexFor returns the shared bucket index for a sketch accuracy
// whose bucket base has logarithm lgamma.
func bucketIndexFor(accuracy, lgamma float64) *bucketIndex {
	bucketIndexes.Lock()
	defer bucketIndexes.Unlock()
	if b, ok := bucketIndexes.byAccuracy[accuracy]; ok {
		return b
	}
	if bucketIndexes.byAccuracy == nil {
		bucketIndexes.byAccuracy = make(map[float64]*bucketIndex)
	}
	b := newBucketIndex(lgamma)
	bucketIndexes.byAccuracy[accuracy] = b
	return b
}

// bucketFormula is the sketch's bucket index by definition.
func bucketFormula(x, lgamma float64) int {
	return int(math.Ceil(math.Log(x) / lgamma))
}

// of returns the bucket index of x > 0.
func (b *bucketIndex) of(x float64) int {
	if c := math.Float64bits(x)>>b.shift - b.cell0; c < uint64(len(b.guess)) {
		j := b.guess[c]
		if x >= b.bounds[j+1] {
			j++
		}
		return int(j) + b.first
	}
	// +Inf would index as int(+Inf); it belongs in the top bucket.
	return bucketFormula(math.Min(x, math.MaxFloat64), b.lgamma)
}

// newBucketIndex builds the table for lgamma with the coarsest cells
// that pass the one-crossing check, or returns a table-less index when
// even maxCellBits cells are too coarse.
func newBucketIndex(lgamma float64) *bucketIndex {
	for bits := uint(1); bits <= maxCellBits; bits++ {
		// A cell spans under 2^-bits in log space; ask for half a
		// bucket so boundary rounding cannot fit two crossings in.
		if math.Ldexp(1, -int(bits)) > lgamma/2 {
			continue
		}
		if b := buildBucketIndex(lgamma, bits); b != nil {
			return b
		}
	}
	return &bucketIndex{lgamma: lgamma}
}

// buildBucketIndex builds the table with 2^bits cells per binade, or
// returns nil if some cell does not start at or past its guessed bound
// or is crossed by more than one bucket boundary.
func buildBucketIndex(lgamma float64, bits uint) *bucketIndex {
	lo, hi := math.Ldexp(1, tableMinExp), math.Ldexp(1, tableMaxExp)
	first := bucketFormula(lo, lgamma)
	last := bucketFormula(math.Nextafter(hi, 0), lgamma)
	// Bounds run to last+2: a lookup reads bounds[j+1] for j up to
	// last-first, and the crossing check reads bounds[j+2].
	bounds := make([]float64, last-first+3)
	for j := range bounds {
		bounds[j] = lowestWithIndex(first+j, lgamma)
	}
	shift := 52 - bits
	cell0 := math.Float64bits(lo) >> shift
	guess := make([]int32, math.Float64bits(hi)>>shift-cell0)
	for c := range guess {
		edge := math.Float64frombits((cell0 + uint64(c)) << shift)
		next := math.Float64frombits((cell0 + uint64(c) + 1) << shift)
		j := bucketFormula(edge, lgamma) - first
		if j < 0 || bounds[j] > edge || bounds[j+2] < next {
			return nil
		}
		guess[c] = int32(j)
	}
	return &bucketIndex{lgamma: lgamma, shift: shift, cell0: cell0, first: first, guess: guess, bounds: bounds}
}

// lowestWithIndex returns the smallest positive float64 whose formula
// index is at least i: a bracket around gamma^(i-1) is widened until it
// straddles the boundary, then bisected over the float bits (which
// order positive floats by value).
func lowestWithIndex(i int, lgamma float64) float64 {
	g := math.Float64bits(math.Exp(float64(i-1) * lgamma))
	for d := uint64(1 << 20); ; d <<= 4 {
		a, b := g-min(d, g-1), g+d
		if bucketFormula(math.Float64frombits(a), lgamma) >= i || bucketFormula(math.Float64frombits(b), lgamma) < i {
			continue
		}
		for b-a > 1 {
			m := a + (b-a)/2
			if bucketFormula(math.Float64frombits(m), lgamma) >= i {
				b = m
			} else {
				a = m
			}
		}
		return math.Float64frombits(b)
	}
}
