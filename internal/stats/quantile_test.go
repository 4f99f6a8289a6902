package stats

import (
	"math"
	"slices"
	"sort"
	"testing"

	"qarv/internal/geom"
)

// exactNearestRank returns the nearest-rank q-quantile of xs — the
// definition QuantileSketch.Quantile targets.
func exactNearestRank(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted)-1)))
	return sorted[rank]
}

// TestQuantileSketchErrorBound checks the advertised relative error
// bound against exact quantiles across distributions spanning several
// orders of magnitude, at multiple accuracies.
func TestQuantileSketchErrorBound(t *testing.T) {
	rng := geom.NewRNG(7)
	distributions := map[string]func() float64{
		// Heavy-tailed, ~6 orders of magnitude: lognormal.
		"lognormal": func() float64 { return math.Exp(rng.NormMeanStd(3, 2)) },
		// Uniform over a backlog-like range.
		"uniform": func() float64 { return rng.Range(0, 250_000) },
		// Small integers with ties (sojourn-like).
		"geometric-ints": func() float64 { return float64(rng.Poisson(4)) },
	}
	for name, draw := range distributions {
		for _, alpha := range []float64{0.01, 0.05} {
			s := NewQuantileSketch(alpha)
			xs := make([]float64, 20_000)
			for i := range xs {
				xs[i] = draw()
				s.Add(xs[i])
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
				got := s.Quantile(q)
				want := exactNearestRank(xs, q)
				tol := alpha*want + sketchMinValue
				if math.Abs(got-want) > tol {
					t.Errorf("%s alpha=%v q=%v: got %v want %v (tol %v)",
						name, alpha, q, got, want, tol)
				}
			}
			if s.Count() != uint64(len(xs)) {
				t.Errorf("%s: count %d want %d", name, s.Count(), len(xs))
			}
		}
	}
}

// TestQuantileSketchExactStats checks that count/sum/mean/min/max are
// exact, not sketched.
func TestQuantileSketchExactStats(t *testing.T) {
	s := NewQuantileSketch(0.01)
	xs := []float64{3, 0, 12.5, 7, 0.25, 1e6}
	var sum float64
	for _, x := range xs {
		s.Add(x)
		sum += x
	}
	if s.Min() != 0 || s.Max() != 1e6 {
		t.Errorf("min/max = %v/%v, want 0/1e6", s.Min(), s.Max())
	}
	if math.Abs(s.Sum()-sum) > 1e-9 || math.Abs(s.Mean()-sum/6) > 1e-9 {
		t.Errorf("sum/mean = %v/%v, want %v/%v", s.Sum(), s.Mean(), sum, sum/6)
	}
	// Negatives clamp to zero; NaN is ignored.
	s.Add(-5)
	if s.Min() != 0 || s.Count() != 7 {
		t.Errorf("after Add(-5): min=%v count=%d", s.Min(), s.Count())
	}
	s.Add(math.NaN())
	if s.Count() != 7 {
		t.Errorf("NaN was counted: count=%d", s.Count())
	}
}

// TestQuantileSketchMergeLossless verifies the core fleet property:
// sharded sketches merged together answer every quantile exactly as the
// single sketch over the union would.
func TestQuantileSketchMergeLossless(t *testing.T) {
	rng := geom.NewRNG(11)
	whole := NewQuantileSketch(0.01)
	parts := make([]*QuantileSketch, 4)
	for i := range parts {
		parts[i] = NewQuantileSketch(0.01)
	}
	for i := 0; i < 10_000; i++ {
		x := math.Exp(rng.NormMeanStd(1, 1.5))
		whole.Add(x)
		parts[i%len(parts)].Add(x)
	}
	merged := NewQuantileSketch(0.01)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d != whole %d", merged.Count(), whole.Count())
	}
	// Sums differ only by FP association order across shards.
	if math.Abs(merged.Sum()-whole.Sum()) > 1e-9*whole.Sum() {
		t.Fatalf("merged sum %v != whole %v", merged.Sum(), whole.Sum())
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v != whole %v", q, got, want)
		}
	}
}

func TestQuantileSketchMergeMismatch(t *testing.T) {
	a, b := NewQuantileSketch(0.01), NewQuantileSketch(0.05)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched accuracies should fail")
	}
	// Merging an empty or nil sketch is a no-op, whatever its accuracy.
	if err := a.Merge(NewQuantileSketch(0.5)); err != nil {
		t.Fatalf("empty merge: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

// TestQuantileSketchFixedMemory pins the O(log(max/min)/alpha) memory
// bound: a million observations spanning nine orders of magnitude must
// not grow the bucket table past the hard cap.
func TestQuantileSketchFixedMemory(t *testing.T) {
	rng := geom.NewRNG(3)
	s := NewQuantileSketch(0.01)
	for i := 0; i < 1_000_000; i++ {
		s.Add(math.Exp(rng.Range(0, math.Log(1e9))))
	}
	if n := s.BucketCount(); n > sketchMaxBuckets {
		t.Fatalf("bucket count %d exceeds cap %d", n, sketchMaxBuckets)
	}
	// Nine decades at 1% accuracy is ~1040 buckets; far below the cap.
	if n := s.BucketCount(); n > 1200 {
		t.Errorf("bucket count %d unexpectedly large for 9 decades", n)
	}
}

// TestQuantileSketchAccuracyClamp: out-of-range accuracies are
// clamped, so a bucket base that rounds to 1 cannot produce indices
// whose differences overflow.
func TestQuantileSketchAccuracyClamp(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, DefaultSketchAccuracy}, {-1, DefaultSketchAccuracy}, {math.NaN(), DefaultSketchAccuracy},
		{1, 0.5}, {7, 0.5}, {1e-300, sketchMinAccuracy}, {1e-12, 1e-12},
	} {
		s := NewQuantileSketch(tc.in)
		if got := s.Accuracy(); got != tc.want {
			t.Errorf("accuracy %v clamped to %v, want %v", tc.in, got, tc.want)
		}
		for _, x := range []float64{0.5, 1, 3, 1e300, math.Inf(1)} {
			s.Add(x)
		}
		if s.Count() != 5 || s.Max() != math.Inf(1) || s.BucketCount() == 0 {
			t.Errorf("accuracy %v: count %d, max %v, %d buckets", tc.in, s.Count(), s.Max(), s.BucketCount())
		}
	}
}

func TestQuantileSketchEmptyAndSingle(t *testing.T) {
	s := NewQuantileSketch(0.01)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch quantile = %v, want 0", got)
	}
	s.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		got := s.Quantile(q)
		if math.Abs(got-42) > 0.01*42 {
			t.Errorf("single-value q=%v: got %v want ~42", q, got)
		}
	}
}

func TestDecimatorKeepsShape(t *testing.T) {
	d := NewDecimator(64)
	n := 100_000
	for i := 0; i < n; i++ {
		d.Add(float64(i)) // a pure ramp
	}
	samples := d.Samples()
	if len(samples) >= 64 {
		t.Fatalf("decimator overflowed its cap: %d samples", len(samples))
	}
	if len(samples) < 32 {
		t.Fatalf("decimator too sparse: %d samples", len(samples))
	}
	// Uniform stride over a ramp: samples are the ramp at stride spacing.
	stride := float64(d.Stride())
	for i, s := range samples {
		if s != float64(i)*stride {
			t.Fatalf("sample %d = %v, want %v (stride %v)", i, s, float64(i)*stride, stride)
		}
	}
	if d.Count() != n {
		t.Errorf("count %d want %d", d.Count(), n)
	}
}

// TestDecimatorExactBelowCap: short series are retained verbatim, so
// downstream classification sees the exact trajectory.
func TestDecimatorExactBelowCap(t *testing.T) {
	d := NewDecimator(64)
	for i := 0; i < 63; i++ {
		d.Add(float64(i * i))
	}
	samples := d.Samples()
	if len(samples) != 63 || d.Stride() != 1 {
		t.Fatalf("len=%d stride=%d, want 63/1", len(samples), d.Stride())
	}
	for i, s := range samples {
		if s != float64(i*i) {
			t.Fatalf("sample %d = %v, want %v", i, s, float64(i*i))
		}
	}
	d.Reset()
	if d.Count() != 0 || len(d.Samples()) != 0 || d.Stride() != 1 {
		t.Error("Reset did not clear state")
	}
}

// TestQuantileSketchWindowCap: observations whose buckets span more
// than sketchMaxBuckets indices fold the lowest buckets into the zero
// bucket, keep the window within the cap, and leave the exact
// statistics exact.
func TestQuantileSketchWindowCap(t *testing.T) {
	const alpha = 0.05
	s := NewQuantileSketch(alpha)
	gamma := (1 + alpha) / (1 - alpha)
	// One observation per bucket, from bucket -100 up to bucket
	// -100+sketchMaxBuckets+999: the lowest 1000 must fold.
	var sum float64
	n := sketchMaxBuckets + 1000
	for i := 0; i < n; i++ {
		x := math.Pow(gamma, float64(i-100)) / math.Sqrt(gamma) // bucket interior
		s.Add(x)
		sum += x
		if c := s.BucketCount(); c > sketchMaxBuckets {
			t.Fatalf("after %d adds: %d buckets exceed the cap %d", i+1, c, sketchMaxBuckets)
		}
	}
	if c := s.BucketCount(); c != sketchMaxBuckets {
		t.Errorf("bucket count %d, want the full window %d", c, sketchMaxBuckets)
	}
	if len(s.counts) != sketchMaxBuckets {
		t.Errorf("window spans %d buckets, want %d", len(s.counts), sketchMaxBuckets)
	}
	if s.zero != 1000 {
		t.Errorf("zero bucket holds %d, want the 1000 folded observations", s.zero)
	}
	if s.Count() != uint64(n) {
		t.Errorf("count %d, want %d", s.Count(), n)
	}
	if s.Sum() != sum {
		t.Errorf("sum %v, want %v", s.Sum(), sum)
	}
	if lo, hi := math.Pow(gamma, -100)/math.Sqrt(gamma), math.Pow(gamma, float64(n-101))/math.Sqrt(gamma); s.Min() != lo || s.Max() != hi {
		t.Errorf("min/max %v/%v, want %v/%v", s.Min(), s.Max(), lo, hi)
	}
	// Folded observations read as 0; the rest keep the error bound.
	if q := s.Quantile(0); q != 0 {
		t.Errorf("q0 = %v, want 0 after folding", q)
	}
	if got, want := s.Quantile(1), s.Max(); math.Abs(got-want) > alpha*want {
		t.Errorf("q1 = %v, want within %v of max %v", got, alpha, want)
	}

	// An observation below the window's floor folds straight away.
	s.Add(math.Pow(gamma, -120))
	if s.zero != 1001 || s.BucketCount() != sketchMaxBuckets {
		t.Errorf("below-floor add: zero=%d buckets=%d", s.zero, s.BucketCount())
	}
	// The largest float moves the floor up again; every observation
	// stays accounted for.
	s.Add(math.MaxFloat64)
	top := s.index.of(math.MaxFloat64)
	var held uint64
	for _, c := range s.counts {
		held += c
	}
	if s.lo < top-sketchMaxBuckets+1 || s.lo+len(s.counts)-1 != top {
		t.Errorf("window [%d, %d] not within the cap below the top bucket %d", s.lo, s.lo+len(s.counts)-1, top)
	}
	if s.zero+held != s.Count() {
		t.Errorf("zero %d + buckets %d != count %d", s.zero, held, s.Count())
	}
}

// TestQuantileSketchMergeDisjointWindows: merging sketches whose bucket
// windows do not overlap — including a merge that pushes the combined
// span past the cap — leaves exactly the state of adding every
// observation to one sketch in sequence.
func TestQuantileSketchMergeDisjointWindows(t *testing.T) {
	const alpha = 0.05
	for _, tc := range []struct {
		name           string
		loDecade, span float64 // each part draws from 10^[lo, lo+span)
		folds          bool    // the combined span exceeds the cap
	}{
		{"apart", 0, 2, false},
		{"past-cap", -5, 3, true},
	} {
		rng := geom.NewRNG(23)
		seq := NewQuantileSketch(alpha)
		low, high := NewQuantileSketch(alpha), NewQuantileSketch(alpha)
		var lows, highs []float64
		for i := 0; i < 5000; i++ {
			lows = append(lows, math.Pow(10, tc.loDecade+rng.Float64()*tc.span))
			// The high part sits 100 decades up: disjoint windows, and
			// at 5% accuracy (≈ 178 decades of window) the "past-cap"
			// case spans beyond the cap once combined.
			highs = append(highs, math.Pow(10, 100+tc.loDecade+rng.Float64()*tc.span*30))
		}
		for _, x := range lows {
			low.Add(x)
			seq.Add(x)
		}
		for _, x := range highs {
			high.Add(x)
			seq.Add(x)
		}
		if folded := seq.zero > 0; folded != tc.folds {
			t.Fatalf("%s: sequential sketch folded=%v, want %v", tc.name, folded, tc.folds)
		}
		for _, order := range [][2]*QuantileSketch{{low, high}, {high, low}} {
			m := NewQuantileSketch(alpha)
			for _, part := range order {
				if err := m.Merge(part); err != nil {
					t.Fatal(err)
				}
			}
			if m.zero != seq.zero || m.lo != seq.lo || m.live != seq.live || !slices.Equal(m.counts, seq.counts) {
				t.Errorf("%s: merged window (zero %d, lo %d, live %d, span %d) != sequential (zero %d, lo %d, live %d, span %d)",
					tc.name, m.zero, m.lo, m.live, len(m.counts), seq.zero, seq.lo, seq.live, len(seq.counts))
			}
			if m.Count() != seq.Count() || m.Min() != seq.Min() || m.Max() != seq.Max() {
				t.Errorf("%s: merged count/min/max differ", tc.name)
			}
			for q := 0.0; q <= 1.0; q += 0.05 {
				if got, want := m.Quantile(q), seq.Quantile(q); got != want {
					t.Errorf("%s q=%v: merged %v != sequential %v", tc.name, q, got, want)
				}
			}
		}
	}
}
