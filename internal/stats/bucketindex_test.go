package stats

import (
	"math"
	"testing"

	"qarv/internal/geom"
)

// TestBucketIndexMatchesFormula checks the table-driven bucket index
// against the defining formula ceil(ln(x)/ln(gamma)), bit for bit: at
// every value within 64 ulps of every table boundary, at every integer
// below 10^6, on log-uniform samples over [1e-6, 1e21], and at the
// edges of the tabled range. Any mismatch would move a reported
// quantile.
func TestBucketIndexMatchesFormula(t *testing.T) {
	samples := 20_000_000
	if testing.Short() {
		samples = 1_000_000
	}
	for _, alpha := range []float64{DefaultSketchAccuracy, 0.05} {
		s := NewQuantileSketch(alpha)
		idx := s.index
		if len(idx.guess) == 0 {
			t.Fatalf("alpha=%v: no table built", alpha)
		}
		lgamma := math.Log((1 + alpha) / (1 - alpha))
		mismatches := 0
		check := func(x float64) {
			want := int(math.Ceil(math.Log(x) / lgamma))
			if got := idx.of(x); got != want && mismatches < 10 {
				mismatches++
				t.Errorf("alpha=%v x=%v (bits %#x): index %d, formula %d", alpha, x, math.Float64bits(x), got, want)
			}
		}
		for _, b := range idx.bounds {
			bits := math.Float64bits(b)
			for d := uint64(0); d <= 64; d++ {
				check(math.Float64frombits(bits - d))
				check(math.Float64frombits(bits + d))
			}
		}
		for i := 1; i < 1_000_000; i++ {
			check(float64(i))
		}
		rng := geom.NewRNG(17)
		lo, hi := math.Log(1e-6), math.Log(1e21)
		for i := 0; i < samples; i++ {
			check(math.Exp(rng.Range(lo, hi)))
		}
		for _, e := range []int{tableMinExp, tableMaxExp} {
			edge := math.Ldexp(1, e)
			for _, x := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
				check(x)
			}
		}
		check(sketchMinValue)
		check(math.MaxFloat64)
		// +Inf lands in the top bucket rather than int(+Inf).
		if got, want := idx.of(math.Inf(1)), idx.of(math.MaxFloat64); got != want {
			t.Errorf("alpha=%v: +Inf indexes to %d, want the top bucket %d", alpha, got, want)
		}
	}
}

// TestBucketIndexFineAccuracy: accuracies too fine for the cell table
// evaluate the formula directly.
func TestBucketIndexFineAccuracy(t *testing.T) {
	const alpha = 0.001
	idx := NewQuantileSketch(alpha).index
	if len(idx.guess) != 0 {
		t.Fatalf("alpha=%v built a %d-cell table, want none", alpha, len(idx.guess))
	}
	lgamma := math.Log((1 + alpha) / (1 - alpha))
	for _, x := range []float64{sketchMinValue, 0.37, 1, 2, 1e3, 1e19, 1e300} {
		if got, want := idx.of(x), int(math.Ceil(math.Log(x)/lgamma)); got != want {
			t.Errorf("x=%v: index %d, formula %d", x, got, want)
		}
	}
}

// TestBucketIndexShared: sketches of one accuracy share one table, so
// building a sketch costs no table build after the first.
func TestBucketIndexShared(t *testing.T) {
	a, b := NewQuantileSketch(0.01), NewQuantileSketch(0)
	if a.index != b.index {
		t.Error("two 1% sketches built separate bucket tables")
	}
	if c := NewQuantileSketch(0.05); c.index == a.index {
		t.Error("5% and 1% sketches share a bucket table")
	}
}
