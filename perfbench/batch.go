package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"
)

// setupReps is how often a batch workload sets up per run; setup_s is
// the median. Every set-up is cold: nothing is memoized between them.
const setupReps = 3

// minReps is the fewest repetitions a measured pass makes, however long
// they take.
const minReps = 3

// pass is one measured pass of a batch workload: the same work,
// repeated until the pass's time is up.
type pass struct {
	walls      []time.Duration // one per repetition
	cpu        time.Duration   // process CPU time over the pass
	allocBytes uint64          // heap bytes allocated over the pass
	mallocs    uint64          // heap objects allocated over the pass
}

// measure repeats rep until d has elapsed (and at least minReps times).
func measure(ctx context.Context, d time.Duration, rep func() error) (*pass, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	u0 := readUsage()
	p := &pass{}
	start := now()
	for len(p.walls) < minReps || since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := now()
		if err := rep(); err != nil {
			return nil, err
		}
		p.walls = append(p.walls, since(t0))
	}
	p.cpu = readUsage().cpu - u0.cpu
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	return p, nil
}

// reps is the number of repetitions.
func (p *pass) reps() int { return len(p.walls) }

// totalNs is the summed wall time of every repetition.
func (p *pass) totalNs() float64 {
	var sum time.Duration
	for _, w := range p.walls {
		sum += w
	}
	return float64(sum)
}

// medianMs is the median repetition's wall time in milliseconds.
func (p *pass) medianMs() float64 {
	ms := make([]float64, len(p.walls))
	for i, w := range p.walls {
		ms[i] = float64(w) / 1e6
	}
	return median(ms)
}

// endToEnd fills the batch end-to-end metrics for repetitions of
// slotsPerRep device-slots each.
func (p *pass) endToEnd(setup []time.Duration, slotsPerRep int64) map[string]float64 {
	rates := make([]float64, len(p.walls))
	for i, w := range p.walls {
		rates[i] = float64(slotsPerRep) / w.Seconds()
	}
	return map[string]float64{
		"setup_s":                medianSeconds(setup),
		"device_slots_per_s":     median(rates),
		"p50_ms":                 p.medianMs(),
		"cpu_us_per_device_slot": float64(p.cpu) / 1e3 / float64(slotsPerRep*int64(p.reps())),
	}
}

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return median(s)
}

// digestJSON hashes v's JSON encoding (FNV-1a, 64 bits, hex).
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// checker counts invariant checks and their failures, and keeps the
// first failure's description for the log.
type checker struct {
	attempted, failed int64
	first             string
}

// check records one operation whose invariants held iff ok.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf(format, args...)
		}
	}
}

// merge folds another checker's counts into c.
func (c *checker) merge(o checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.first == "" {
		c.first = o.first
	}
}
