package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// The fleet engine cannot retain per-frame trajectories — a million
// sessions times thousands of slots would be hundreds of gigabytes — so
// shards accumulate distributions in two fixed-memory structures defined
// here: QuantileSketch (a mergeable, relative-error-bounded quantile
// estimator over non-negative observations) and Decimator (a
// constant-size, uniform-stride downsampler that preserves a
// trajectory's shape for stability classification).

// sketch tuning constants.
const (
	// sketchMinValue is the smallest distinguishable observation; values
	// in [0, sketchMinValue) share the exact "zero" bucket. Together with
	// sketchMaxBuckets it bounds the sketch's memory regardless of how
	// many observations arrive.
	sketchMinValue = 1e-6
	// sketchMaxBuckets caps the span of the bucket window: the highest
	// and lowest retained bucket indices differ by less than this. When
	// an observation would stretch the window further, the lowest
	// buckets fold into the zero bucket (degrading accuracy at the low
	// quantiles only). At the default 1% accuracy the window spans
	// 4096·log10(1.0202) ≈ 35.6 orders of magnitude, so any input whose
	// non-empty buckets lie within 4096 indices — all fleet, sweep, and
	// telemetry traffic — never folds.
	sketchMaxBuckets = 4096
	// sketchMinAccuracy is the finest accuracy a sketch accepts; finer
	// requests are raised to it. It keeps the bucket base well above 1,
	// so bucket indices and their differences stay far inside the int
	// range.
	sketchMinAccuracy = 1e-12
	// DefaultSketchAccuracy is the relative error bound used when a
	// caller passes a non-positive accuracy.
	DefaultSketchAccuracy = 0.01
)

// QuantileSketch is a streaming quantile estimator over non-negative
// observations with a guaranteed relative error bound: Quantile(q)
// returns a value within Accuracy()·x of the true empirical q-quantile x
// (DDSketch-style logarithmic buckets; see Masson et al., "DDSketch: A
// Fast and Fully-Mergeable Quantile Sketch with Relative-Error
// Guarantees"). Memory is O(log(max/min)/α) — independent of the number
// of observations — and two sketches built with the same accuracy merge
// losslessly, so per-shard sketches combine into one fleet-wide
// distribution with no additional error. Negative observations are
// clamped to zero. The zero value is NOT ready to use; construct with
// NewQuantileSketch.
type QuantileSketch struct {
	alpha float64      // guaranteed relative accuracy
	gamma float64      // bucket base (1+alpha)/(1-alpha)
	index *bucketIndex // shared, read-only x → bucket map

	zero uint64 // observations in [0, sketchMinValue) or folded out
	// counts is the dense bucket window: counts[j] holds bucket lo+j,
	// which covers (gamma^(lo+j-1), gamma^(lo+j)]. When any bucket is
	// non-empty, the first and last entries are.
	counts []uint64
	lo     int
	live   int // non-empty buckets in counts
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewQuantileSketch returns an empty sketch with the given relative
// accuracy α ∈ (0, 1); non-positive values take DefaultSketchAccuracy,
// values ≥ 1 are clamped to 0.5, and values below 1e-12 are raised to
// 1e-12.
func NewQuantileSketch(accuracy float64) *QuantileSketch {
	switch {
	case !(accuracy > 0):
		accuracy = DefaultSketchAccuracy
	case accuracy >= 1:
		accuracy = 0.5
	case accuracy < sketchMinAccuracy:
		accuracy = sketchMinAccuracy
	}
	gamma := (1 + accuracy) / (1 - accuracy)
	return &QuantileSketch{
		alpha: accuracy,
		gamma: gamma,
		index: bucketIndexFor(accuracy, math.Log(gamma)),
	}
}

// Accuracy returns the sketch's guaranteed relative error bound.
func (s *QuantileSketch) Accuracy() float64 { return s.alpha }

// Add incorporates one observation (negatives are clamped to zero, NaN
// is ignored).
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.count++
	s.sum += x
	if x < sketchMinValue {
		s.zero++
		return
	}
	s.addBucket(s.index.of(x), 1)
}

// addBucket adds n > 0 observations to bucket i.
func (s *QuantileSketch) addBucket(i int, n uint64) {
	if j := i - s.lo; uint(j) < uint(len(s.counts)) {
		if s.counts[j] == 0 {
			s.live++
		}
		s.counts[j] += n
		return
	}
	s.widen(i, n)
}

// widen adds n > 0 observations to bucket i outside the window,
// stretching the window to reach it. The window never spans more than
// sketchMaxBuckets indices: buckets that fall below its floor go to the
// zero bucket. Which buckets end up folded depends only on the highest
// index ever seen, so the final state does not depend on the order of
// Adds and Merges.
func (s *QuantileSketch) widen(i int, n uint64) {
	old := len(s.counts)
	if old > 0 && i < s.lo {
		if s.lo+old-1-i >= sketchMaxBuckets {
			s.zero += n
			return
		}
		pad := s.lo - i
		s.counts = slices.Grow(s.counts, pad)[:old+pad]
		copy(s.counts[pad:], s.counts[:old])
		clear(s.counts[1:pad])
		s.counts[0] = n
		s.lo = i
	} else {
		if floor := i - sketchMaxBuckets + 1; floor > s.lo {
			s.foldBelow(floor)
		}
		if old = len(s.counts); old == 0 {
			s.lo = i
		}
		span := i - s.lo + 1
		s.counts = slices.Grow(s.counts, span-old)[:span]
		clear(s.counts[old : span-1])
		s.counts[span-1] = n
	}
	s.live++
}

// foldBelow moves every bucket below index floor into the zero bucket
// and trims the window to start at its lowest remaining non-empty
// bucket.
func (s *QuantileSketch) foldBelow(floor int) {
	k := min(floor-s.lo, len(s.counts))
	for _, c := range s.counts[:k] {
		if c > 0 {
			s.zero += c
			s.live--
		}
	}
	for k < len(s.counts) && s.counts[k] == 0 {
		k++
	}
	s.lo += k
	s.counts = s.counts[:copy(s.counts, s.counts[k:])]
}

// Count returns the number of observations.
func (s *QuantileSketch) Count() uint64 { return s.count }

// Sum returns the exact sum of observations (after negative clamping).
func (s *QuantileSketch) Sum() float64 { return s.sum }

// Mean returns the exact sample mean (0 when empty).
func (s *QuantileSketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the exact smallest observation (0 when empty).
func (s *QuantileSketch) Min() float64 { return s.min }

// Max returns the exact largest observation (0 when empty).
func (s *QuantileSketch) Max() float64 { return s.max }

// Quantile returns an estimate of the q-quantile (q ∈ [0,1], nearest
// rank) within the sketch's relative accuracy of the true value. It
// returns 0 on an empty sketch; q outside [0,1] is clamped.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank over 0-indexed order statistics.
	rank := uint64(math.Ceil(q * float64(s.count-1)))
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	for j, c := range s.counts {
		cum += c
		if rank < cum {
			// Midpoint of (gamma^(i-1), gamma^i] in relative terms:
			// 2·gamma^i/(gamma+1) is within alpha of every value in the
			// bucket, clamped into the exact observed range.
			est := 2 * math.Pow(s.gamma, float64(s.lo+j)) / (s.gamma + 1)
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// ErrSketchMismatch reports an attempt to merge sketches built with
// different accuracies (their bucket geometries are incompatible).
var ErrSketchMismatch = errors.New("stats: cannot merge quantile sketches with different accuracies")

// Merge folds o into s losslessly: the result equals adding o's
// observations to s one by one. Both sketches must have been built with
// the same accuracy; o is left unchanged.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("%w: %v vs %v", ErrSketchMismatch, s.alpha, o.alpha)
	}
	if s.count == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.count += o.count
	s.sum += o.sum
	s.zero += o.zero
	if top := len(o.counts) - 1; top >= 0 {
		// o's highest bucket first, so the window floor moves at most
		// once; the rest then land in ascending order, stretching the
		// window down at most once too.
		s.addBucket(o.lo+top, o.counts[top])
		for j, n := range o.counts[:top] {
			if n > 0 {
				s.addBucket(o.lo+j, n)
			}
		}
	}
	return nil
}

// BucketCount returns the number of non-empty logarithmic buckets — the
// sketch's memory footprint in O(1)-sized cells (exposed for the
// flat-memory property tests).
func (s *QuantileSketch) BucketCount() int { return s.live }

// Decimator retains a bounded, uniform-stride subsample of a series:
// every stride-th value is kept, and when the buffer fills the stride
// doubles and every other retained sample is discarded. The result
// preserves the trajectory's coarse shape (level, slope, knees) in at
// most Cap samples regardless of series length, which is exactly what
// queueing.ClassifyTrajectory needs from a backlog series whose full
// form the fleet engine cannot afford to keep.
type Decimator struct {
	cap     int
	stride  int
	n       int // total values observed
	samples []float64
}

// NewDecimator returns a decimator keeping at most capacity samples
// (minimum 16, which non-positive and smaller values are raised to).
func NewDecimator(capacity int) *Decimator {
	if capacity < 16 {
		capacity = 16
	}
	return &Decimator{cap: capacity, stride: 1}
}

// Add observes the next value of the series.
func (d *Decimator) Add(x float64) {
	if d.n%d.stride == 0 {
		d.samples = append(d.samples, x)
		if len(d.samples) >= d.cap {
			// Halve: keep samples at even positions, doubling the stride.
			half := (len(d.samples) + 1) / 2
			for i := 0; i < half; i++ {
				d.samples[i] = d.samples[2*i]
			}
			d.samples = d.samples[:half]
			d.stride *= 2
		}
	}
	d.n++
}

// Samples returns the retained subsample in series order. The slice
// aliases the decimator's buffer; callers must not retain it across
// further Adds.
func (d *Decimator) Samples() []float64 { return d.samples }

// Stride returns the current sampling stride (1 until the first halving).
func (d *Decimator) Stride() int { return d.stride }

// Count returns how many values have been observed in total.
func (d *Decimator) Count() int { return d.n }

// Reset clears the decimator for reuse without reallocating.
func (d *Decimator) Reset() {
	d.stride = 1
	d.n = 0
	d.samples = d.samples[:0]
}
