package main

// session-sweep: an allocator × network grid on the pool backend. Each
// cell is a shared-budget run of eight heterogeneous devices, so it
// loads the per-slot Session kernel (sim, which keeps per-slot slices)
// plus alloc, learn, and netem — and no sketches and no content.

import (
	"context"
	"fmt"
	"time"

	"qarv/internal/alloc"
	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/geom"
	_ "qarv/internal/learn" // registers the bandit and gradient allocators
	"qarv/internal/queueing"
)

// Sweep workload shape.
const (
	sweepSlots   = 10_000
	sweepWorkers = 2
	sweepSamples = 30_000 // synthetic surface samples of the scenario
	sweepDevices = 8      // experiments.HeterogeneousSpecs default
)

// sweepNets are the network points of the grid.
func sweepNets() []experiments.SweepNetwork {
	return []experiments.SweepNetwork{experiments.NetworkStatic(), experiments.NetworkMarkovDwell(0.8, 64)}
}

// sweepLayers are the traced run's per-layer decorators.
type sweepLayers struct {
	service, utility layer
	alloc            map[string]*layer
}

// newSweepLayers returns empty decorators for every traced layer.
func newSweepLayers() *sweepLayers {
	ls := &sweepLayers{alloc: map[string]*layer{}}
	for _, name := range allocNames {
		ls.alloc[name] = &layer{}
	}
	return ls
}

// scenario returns a copy of scn whose utility model is decorated; the
// allocator cells hand it to every device.
func (ls *sweepLayers) scenario(scn *experiments.Scenario) *experiments.Scenario {
	s := *scn
	s.Utility = wrapUtility(scn.Utility, &ls.utility)
	return &s
}

// newSweep builds the grid over scn; with ls non-nil every cell's
// allocator and service factories are decorated.
func newSweep(scn *experiments.Scenario, seed uint64, ls *sweepLayers) (*experiments.Sweep, error) {
	allocAxis := experiments.AxisAllocator(allocNames...)
	netAxis := experiments.AxisNetwork(sweepNets()...)
	if ls != nil {
		for i := range allocAxis.Points {
			pt := &allocAxis.Points[i]
			apply, l := pt.Apply, ls.alloc[pt.Label]
			pt.Apply = func(c *experiments.SweepCell) error {
				if err := apply(c); err != nil {
					return err
				}
				newAlloc := c.NewAllocator
				c.NewAllocator = func() (alloc.Allocator, error) {
					a, err := newAlloc()
					if err != nil {
						return nil, err
					}
					return wrapAllocator(a, l), nil
				}
				return nil
			}
		}
		for i := range netAxis.Points {
			pt := &netAxis.Points[i]
			apply := pt.Apply
			pt.Apply = func(c *experiments.SweepCell) error {
				if err := apply(c); err != nil {
					return err
				}
				newService := c.NewService
				c.NewService = func(c *experiments.SweepCell, base float64, rng *geom.RNG) delay.ServiceProcess {
					return wrapService(newService(c, base, rng), &ls.service)
				}
				return nil
			}
		}
	}
	sw, err := experiments.NewSweep(scn, allocAxis, netAxis)
	if err != nil {
		return nil, err
	}
	sw.Workers = sweepWorkers
	sw.Slots = sweepSlots
	sw.Seed = seed
	return sw, nil
}

// sweepPass measures repeated sweeps for d, checking that every
// repetition's report digest equals the first.
func sweepPass(ctx context.Context, d time.Duration, scn *experiments.Scenario, seed uint64, ls *sweepLayers, chk *checker) (*pass, string, error) {
	var first string
	p, err := measure(ctx, d, func() error {
		sw, err := newSweep(scn, seed, ls)
		if err != nil {
			return err
		}
		rep, err := sw.Run(ctx)
		if err != nil {
			return err
		}
		chk.check(len(rep.Rows) == len(allocNames)*len(sweepNets()), "sweep: %d rows", len(rep.Rows))
		for _, row := range rep.Rows {
			chk.check(row.Sessions == sweepDevices && row.MaxBacklog >= row.P95Backlog,
				"sweep: cell %d has %d devices, max backlog %g < p95 %g", row.Cell, row.Sessions, row.MaxBacklog, row.P95Backlog)
		}
		dig, err := digestJSON(rep)
		if err != nil {
			return err
		}
		if first == "" {
			first = dig
		}
		chk.check(dig == first, "sweep: same-seed digest %s != %s", dig, first)
		return nil
	})
	return p, first, err
}

func runSweep(ctx context.Context, cfg runConfig) (*outcome, error) {
	var setups []time.Duration
	var scn *experiments.Scenario
	for i := 0; i < setupReps; i++ {
		t0 := now()
		s, err := experiments.NewScenario(experiments.ScenarioParams{Samples: sweepSamples, Seed: cfg.seed + 1})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		setups = append(setups, since(t0))
		scn = s
	}
	slotsPerRep := int64(len(allocNames) * len(sweepNets()) * sweepDevices * sweepSlots)

	chk := &checker{}
	untraced, dig, err := sweepPass(ctx, cfg.seconds, scn, cfg.seed, nil, chk)
	if err != nil {
		return nil, err
	}
	oc := &outcome{digest: dig}
	if !cfg.trace {
		oc.endToEnd = untraced.endToEnd(setups, slotsPerRep)
	} else {
		ls := newSweepLayers()
		traced, tdig, err := sweepPass(ctx, cfg.seconds, ls.scenario(scn), cfg.seed, ls, chk)
		if err != nil {
			return nil, err
		}
		chk.check(tdig == dig, "sweep: traced digest %s != untraced %s", tdig, dig)
		if oc.perLayer, err = sweepLayerMetrics(scn, ls, untraced, traced, slotsPerRep); err != nil {
			return nil, err
		}
	}
	oc.checker = *chk
	return oc, nil
}

// sweepLayerMetrics fills the sweep's per-layer metrics. Allocators,
// service processes, and the utility model are counted by decorators
// and priced by microbenchmarks; the devices' controllers, arrival
// processes, and cost models are built inside the allocator cell, so
// their calls are counted from the grid's shape and priced on
// equivalent instances. The budget is one sweep's,
// against the untraced pass.
func sweepLayerMetrics(scn *experiments.Scenario, ls *sweepLayers, untraced, traced *pass, slotsPerRep int64) (map[string]float64, error) {
	m := map[string]float64{}
	reps := float64(traced.reps())
	uReps := float64(untraced.reps())
	b := budget{wholeNs: untraced.totalNs() / uReps * sweepWorkers}
	var allocCalls float64
	for _, name := range allocNames {
		l := ls.alloc[name]
		ns, calls := l.cost(benchAllocator(l.allocs))
		c := layerCost{ns, float64(calls) / reps}
		m[allocMetric(name)] = c.perCallNs
		allocCalls += c.callsPerRep
		b.layersNs += c.perRep()
	}
	m["alloc.allocate_calls"] = allocCalls
	depths := scn.Params.Depths
	for _, x := range []struct {
		name  string
		l     *layer
		bench func(any) float64
	}{
		{"delay.service", &ls.service, benchService},
		{"quality.utility", &ls.utility, benchUtility(depths)},
	} {
		ns, calls := x.l.cost(x.bench)
		b.layersNs += layerCost{ns, float64(calls) / reps}.put(m, x.name)
	}

	var framesPerSlot int
	for _, s := range experiments.HeterogeneousSpecs(sweepDevices) {
		framesPerSlot += s.ArrivalsPerSlot
	}
	frames := slotsPerRep / sweepDevices * int64(framesPerSlot)
	ctrl, err := scn.Controller()
	if err != nil {
		return nil, err
	}
	step := 4 * scn.ServiceRate / benchCalls
	decs := make([]decision, benchCalls)
	for i := range decs {
		decs[i] = decision{slot: i, backlog: float64(i) * step}
	}
	b.layersNs += layerCost{benchPolicy(decs)(ctrl), float64(slotsPerRep)}.put(m, "policy.decide")
	b.layersNs += layerCost{benchArrivals(&queueing.DeterministicArrivals{PerSlot: 1}), float64(slotsPerRep)}.put(m, "queueing.arrivals")
	b.layersNs += layerCost{benchCost(depths)(scn.Cost), float64(frames)}.put(m, "delay.frame_cost")
	m["sim.self_ns_per_device_slot"] = b.gapNs() / float64(slotsPerRep)
	b.put(m, "budget.")
	m["sim.alloc_bytes_per_device_slot"] = float64(untraced.allocBytes) / uReps / float64(slotsPerRep)
	m["trace.overhead_pct"] = overheadPct(untraced.totalNs()/uReps, traced.totalNs()/reps)
	return m, nil
}
