package main

// Counting decorators for the traced run. Each wraps one
// layer's public interface (policy.Policy, queueing.ArrivalProcess,
// delay.ServiceProcess, delay.CostModel, quality.UtilityModel,
// alloc.Allocator) and is installed through the factories the program
// already exposes (fleet.Profile, experiments.SweepCell, the scenario's
// utility model, stream.ServerConfig.Allocator). A decorator must be
// invisible to the program: it forwards the optional interfaces the
// program probes for (alloc.Learner, Reseed) and the Clone method, and
// has none of them when the wrapped value has none, so a probe sees
// exactly what it would see without tracing.

import (
	"reflect"
	"sync"
	"sync/atomic"

	"qarv/internal/alloc"
	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
)

// layer counts one layer's calls across all its decorator instances,
// per concrete type of the wrapped value, and keeps the first instance
// of each type. Counting costs one uncontended atomic add per call;
// what a call costs is measured afterwards, by microbenchmarking each
// kept instance and weighting it by its type's share of the calls —
// the calls are too cheap to time one by one.
type layer struct {
	mu    sync.Mutex
	kinds []*layerKind
	// decisions holds the first policy decisions of the run, replayed
	// by the policy, cost, and utility microbenchmarks.
	decisions []decision
	// allocs holds an allocator layer's first calls, replayed by its
	// microbenchmark.
	allocs []allocCall
}

// decision is one recorded Decide call.
type decision struct {
	slot    int
	backlog float64
	depth   int
}

// recordDecisions is how many decisions a policy layer keeps.
const recordDecisions = 4096

// layerKind is one concrete implementation seen in a layer.
type layerKind struct {
	typ    reflect.Type
	sample any
	counts []*atomic.Int64
}

// counter registers a decorator instance wrapping v and returns its
// call counter, and whether v is the first instance of the layer.
func (l *layer) counter(v any) (*atomic.Int64, bool) {
	n := new(atomic.Int64)
	t := reflect.TypeOf(v)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, k := range l.kinds {
		if k.typ == t {
			k.counts = append(k.counts, n)
			return n, false
		}
	}
	l.kinds = append(l.kinds, &layerKind{typ: t, sample: v, counts: []*atomic.Int64{n}})
	return n, len(l.kinds) == 1
}

// calls totals the layer's calls.
func (l *layer) calls() int64 {
	_, n := l.cost(func(any) float64 { return 0 })
	return n
}

// cost prices the layer's calls: bench times one call of a kept
// instance, and the kinds are weighted by their calls. It returns the
// mean time per call and the total calls.
func (l *layer) cost(bench func(sample any) float64) (perCallNs float64, calls int64) {
	l.mu.Lock()
	kinds := append([]*layerKind(nil), l.kinds...)
	l.mu.Unlock()
	var ns float64
	for _, k := range kinds {
		var n int64
		for _, c := range k.counts {
			n += c.Load()
		}
		if n > 0 {
			ns += bench(k.sample) * float64(n)
			calls += n
		}
	}
	return perCall(ns, calls), calls
}

// reseeder is the optional run-isolation interface stochastic
// components implement.
type reseeder interface{ Reseed(rng *geom.RNG) }

// reseedFwd forwards Reseed to the wrapped value.
type reseedFwd struct{ r reseeder }

// Reseed implements reseeder.
func (f reseedFwd) Reseed(rng *geom.RNG) { f.r.Reseed(rng) }

// cloneFwd forwards Clone: it clones the wrapped value and wraps the
// clone in a decorator that reports into the same layer.
type cloneFwd[T any] struct{ clone func() T }

// Clone returns a decorated clone of the wrapped value.
func (f cloneFwd[T]) Clone() T { return f.clone() }

// cloner returns a Clone forward for inner when inner has a
// `Clone() X` method whose result is a T, or nil. Clone methods in the
// program return their concrete type, so the method is found by
// reflection rather than by an interface assertion.
func cloner[T any](inner any, wrap func(T) T) *cloneFwd[T] {
	m := reflect.ValueOf(inner).MethodByName("Clone")
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 1 {
		return nil
	}
	if !m.Type().Out(0).Implements(reflect.TypeOf((*T)(nil)).Elem()) {
		return nil
	}
	return &cloneFwd[T]{clone: func() T { return wrap(m.Call(nil)[0].Interface().(T)) }}
}

// countedPolicy counts Decide calls; the layer's first instance also
// records its first decisions.
type countedPolicy struct {
	inner policy.Policy
	n     *atomic.Int64
	rec   *layer // non-nil while recording
}

func (p *countedPolicy) Decide(slot int, backlog float64) int {
	p.n.Add(1)
	d := p.inner.Decide(slot, backlog)
	if p.rec != nil {
		p.rec.decisions = append(p.rec.decisions, decision{slot, backlog, d})
		if len(p.rec.decisions) == recordDecisions {
			p.rec = nil
		}
	}
	return d
}

func (p *countedPolicy) Name() string { return p.inner.Name() }

// wrapPolicy decorates a policy, reporting into l.
func wrapPolicy(p policy.Policy, l *layer) policy.Policy {
	n, first := l.counter(p)
	base := &countedPolicy{inner: p, n: n}
	if first {
		base.rec = l
	}
	r, hasR := p.(reseeder)
	c := cloner(p, func(x policy.Policy) policy.Policy { return wrapPolicy(x, l) })
	switch {
	case hasR && c != nil:
		return struct {
			*countedPolicy
			reseedFwd
			cloneFwd[policy.Policy]
		}{base, reseedFwd{r}, *c}
	case hasR:
		return struct {
			*countedPolicy
			reseedFwd
		}{base, reseedFwd{r}}
	case c != nil:
		return struct {
			*countedPolicy
			cloneFwd[policy.Policy]
		}{base, *c}
	}
	return base
}

// countedArrivals counts Frames calls.
type countedArrivals struct {
	inner queueing.ArrivalProcess
	n     *atomic.Int64
}

func (a *countedArrivals) Frames(t int) int {
	a.n.Add(1)
	return a.inner.Frames(t)
}

func (a *countedArrivals) Name() string { return a.inner.Name() }

// wrapArrivals decorates an arrival process, reporting into l.
func wrapArrivals(a queueing.ArrivalProcess, l *layer) queueing.ArrivalProcess {
	n, _ := l.counter(a)
	base := &countedArrivals{inner: a, n: n}
	r, hasR := a.(reseeder)
	c := cloner(a, func(x queueing.ArrivalProcess) queueing.ArrivalProcess { return wrapArrivals(x, l) })
	switch {
	case hasR && c != nil:
		return struct {
			*countedArrivals
			reseedFwd
			cloneFwd[queueing.ArrivalProcess]
		}{base, reseedFwd{r}, *c}
	case hasR:
		return struct {
			*countedArrivals
			reseedFwd
		}{base, reseedFwd{r}}
	case c != nil:
		return struct {
			*countedArrivals
			cloneFwd[queueing.ArrivalProcess]
		}{base, *c}
	}
	return base
}

// countedService counts Service calls.
type countedService struct {
	inner delay.ServiceProcess
	n     *atomic.Int64
}

func (s *countedService) Service(t int) float64 {
	s.n.Add(1)
	return s.inner.Service(t)
}

func (s *countedService) Name() string { return s.inner.Name() }

// wrapService decorates a service process, reporting into l.
func wrapService(s delay.ServiceProcess, l *layer) delay.ServiceProcess {
	n, _ := l.counter(s)
	base := &countedService{inner: s, n: n}
	r, hasR := s.(reseeder)
	c := cloner(s, func(x delay.ServiceProcess) delay.ServiceProcess { return wrapService(x, l) })
	switch {
	case hasR && c != nil:
		return struct {
			*countedService
			reseedFwd
			cloneFwd[delay.ServiceProcess]
		}{base, reseedFwd{r}, *c}
	case hasR:
		return struct {
			*countedService
			reseedFwd
		}{base, reseedFwd{r}}
	case c != nil:
		return struct {
			*countedService
			cloneFwd[delay.ServiceProcess]
		}{base, *c}
	}
	return base
}

// countedCost counts FrameCost calls. Cost models are shared by every
// session and shard, and so is their decorator.
type countedCost struct {
	inner delay.CostModel
	n     *atomic.Int64
}

// wrapCost decorates a cost model, reporting into l.
func wrapCost(c delay.CostModel, l *layer) delay.CostModel {
	n, _ := l.counter(c)
	return &countedCost{inner: c, n: n}
}

func (c *countedCost) FrameCost(depth int) float64 {
	c.n.Add(1)
	return c.inner.FrameCost(depth)
}

func (c *countedCost) Name() string { return c.inner.Name() }

// countedUtility counts Utility calls. Utility models are shared like
// cost models.
type countedUtility struct {
	inner quality.UtilityModel
	n     *atomic.Int64
}

// wrapUtility decorates a utility model, reporting into l.
func wrapUtility(u quality.UtilityModel, l *layer) quality.UtilityModel {
	n, _ := l.counter(u)
	return &countedUtility{inner: u, n: n}
}

func (u *countedUtility) Utility(depth int) float64 {
	u.n.Add(1)
	return u.inner.Utility(depth)
}

func (u *countedUtility) Name() string { return u.inner.Name() }

// allocCall is one recorded Allocate or Learn call.
type allocCall struct {
	learn  bool
	t      int
	budget float64
	x, y   []float64 // Allocate: backlogs; Learn: utilities, backlogs
}

// recordAllocs is how many calls an allocator layer's first instance
// records.
const recordAllocs = 2048

// countedAllocator counts Allocate calls; the layer's first instance
// also records its first calls, Learn included.
type countedAllocator struct {
	inner alloc.Allocator
	n     *atomic.Int64
	rec   *[]allocCall // non-nil while recording
}

func (a *countedAllocator) Allocate(t int, budget float64, backlogs, shares []float64) {
	a.n.Add(1)
	a.record(allocCall{t: t, budget: budget, x: backlogs})
	a.inner.Allocate(t, budget, backlogs, shares)
}

func (a *countedAllocator) Name() string { return a.inner.Name() }

// record keeps a copy of one call's inputs while recording.
func (a *countedAllocator) record(c allocCall) {
	if a.rec == nil {
		return
	}
	c.x = append([]float64(nil), c.x...)
	c.y = append([]float64(nil), c.y...)
	*a.rec = append(*a.rec, c)
	if len(*a.rec) == recordAllocs {
		a.rec = nil
	}
}

// learnFwd forwards alloc.Learner, recording Learn calls beside the
// allocator's Allocate calls.
type learnFwd struct {
	l alloc.Learner
	a *countedAllocator
}

// Learn implements alloc.Learner.
func (f learnFwd) Learn(t int, utilities, backlogs []float64) {
	f.a.record(allocCall{learn: true, t: t, x: utilities, y: backlogs})
	f.l.Learn(t, utilities, backlogs)
}

// wrapAllocator decorates an allocator, reporting into l.
func wrapAllocator(a alloc.Allocator, l *layer) alloc.Allocator {
	n, first := l.counter(a)
	base := &countedAllocator{inner: a, n: n}
	if first {
		base.rec = &l.allocs
	}
	lr, hasL := a.(alloc.Learner)
	r, hasR := a.(reseeder)
	c := cloner(a, func(x alloc.Allocator) alloc.Allocator { return wrapAllocator(x, l) })
	lf, rf := learnFwd{lr, base}, reseedFwd{r}
	switch {
	case hasL && hasR && c != nil:
		return struct {
			*countedAllocator
			learnFwd
			reseedFwd
			cloneFwd[alloc.Allocator]
		}{base, lf, rf, *c}
	case hasL && hasR:
		return struct {
			*countedAllocator
			learnFwd
			reseedFwd
		}{base, lf, rf}
	case hasL && c != nil:
		return struct {
			*countedAllocator
			learnFwd
			cloneFwd[alloc.Allocator]
		}{base, lf, *c}
	case hasR && c != nil:
		return struct {
			*countedAllocator
			reseedFwd
			cloneFwd[alloc.Allocator]
		}{base, rf, *c}
	case hasL:
		return struct {
			*countedAllocator
			learnFwd
		}{base, lf}
	case hasR:
		return struct {
			*countedAllocator
			reseedFwd
		}{base, rf}
	case c != nil:
		return struct {
			*countedAllocator
			cloneFwd[alloc.Allocator]
		}{base, *c}
	}
	return base
}

// microReps is how many times each microbenchmark repeats its batch;
// the median batch is reported.
const microReps = 5

// sink keeps microbenchmarked results live so the compiler cannot drop
// the calls.
var sink float64

// microNs times op over batches of n calls and returns the median
// nanoseconds per call.
func microNs(n int, op func(i int) float64) float64 {
	per := make([]float64, microReps)
	for r := range per {
		var acc float64
		t0 := now()
		for i := 0; i < n; i++ {
			acc += op(i)
		}
		per[r] = float64(since(t0)) / float64(n)
		sink += acc
	}
	return median(per)
}

// benchCalls is how many calls one microbenchmark batch makes.
const benchCalls = 1 << 14

// benchPolicy times Decide over the recorded decisions' inputs.
func benchPolicy(decs []decision) func(any) float64 {
	return func(s any) float64 {
		p := s.(policy.Policy)
		if len(decs) == 0 {
			return 0
		}
		return microNs(benchCalls, func(i int) float64 {
			d := decs[i%len(decs)]
			return float64(p.Decide(d.slot, d.backlog))
		})
	}
}

// benchArrivals times Frames over consecutive slots.
func benchArrivals(s any) float64 {
	a := s.(queueing.ArrivalProcess)
	return microNs(benchCalls, func(i int) float64 { return float64(a.Frames(i)) })
}

// benchService times Service over consecutive slots.
func benchService(s any) float64 {
	p := s.(delay.ServiceProcess)
	return microNs(benchCalls, func(i int) float64 { return p.Service(i) })
}

// benchCost times FrameCost over the given depths.
func benchCost(depths []int) func(any) float64 {
	return func(s any) float64 {
		c := s.(delay.CostModel)
		return microNs(benchCalls, func(i int) float64 { return c.FrameCost(depths[i%len(depths)]) })
	}
}

// benchUtility times Utility over the given depths.
func benchUtility(depths []int) func(any) float64 {
	return func(s any) float64 {
		u := s.(quality.UtilityModel)
		return microNs(benchCalls, func(i int) float64 { return u.Utility(depths[i%len(depths)]) })
	}
}

// benchAllocator times one Allocate call, with the Learn calls that
// follow it, by replaying the recorded calls.
func benchAllocator(calls []allocCall) func(any) float64 {
	return func(s any) float64 {
		a := s.(alloc.Allocator)
		learner, _ := s.(alloc.Learner)
		var allocs int
		width := 0
		for _, c := range calls {
			if !c.learn {
				allocs++
				width = max(width, len(c.x))
			}
		}
		if allocs == 0 {
			return 0
		}
		shares := make([]float64, width)
		ns := microNs(len(calls), func(i int) float64 {
			c := calls[i]
			if c.learn {
				learner.Learn(c.t, c.x, c.y)
				return 0
			}
			a.Allocate(c.t, c.budget, c.x, shares[:len(c.x)])
			return shares[0]
		})
		return ns * float64(len(calls)) / float64(allocs)
	}
}

// decidedDepths lists the recorded decisions' depths.
func decidedDepths(decs []decision) []int {
	out := make([]int, len(decs))
	for i, d := range decs {
		out[i] = d.depth
	}
	return out
}
