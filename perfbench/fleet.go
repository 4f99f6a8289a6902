package main

// fleet-churn: a streaming fleet over two content classes crossed with
// a static/markov network mix, with churn. It loads the fleet slot loop
// (quantile sketches, frame queue, decimator, policy) in the measured
// pass and the content pipeline in set-up.

import (
	"context"
	"fmt"
	"math"
	"time"

	"qarv/internal/content"
	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/octree"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/stats"
	"qarv/internal/synthetic"
)

// Fleet workload shape.
const (
	fleetSeats   = 4000
	fleetSlots   = 500
	fleetChurn   = 0.001
	fleetSamples = 30_000 // synthetic surface samples per content build
)

// fleetSetup builds the fleet's device classes cold: every asset goes
// through content.Build (not the memoizing content.Load) and a fresh
// content scenario. It reports each build's time by asset.
func fleetSetup(seed uint64) ([]fleet.Profile, map[string]time.Duration, error) {
	var profiles []fleet.Profile
	times := map[string]time.Duration{}
	for _, asset := range contentAssets {
		t0 := now()
		prof, err := content.Build(content.Config{Asset: asset, Samples: fleetSamples, Seed: seed + 1})
		if err != nil {
			return nil, nil, fmt.Errorf("content %s: %w", asset, err)
		}
		times["content.build_ms."+asset] = since(t0)
		t0 = now()
		scn, err := experiments.NewContentScenario(experiments.ScenarioParams{ServiceFraction: 0.6}, prof)
		if err != nil {
			return nil, nil, fmt.Errorf("content scenario %s: %w", asset, err)
		}
		times["experiments.content_scenario_ms"] += since(t0)
		static := scn.FleetProfile(asset, 1, 1)
		markov := static
		markov.Name = asset + "+markov"
		inner := static.NewService
		markov.NewService = func(rng *geom.RNG) delay.ServiceProcess {
			mb := netem.DefaultMarkovFactor(rng.Split())
			return &delay.ModulatedService{Inner: inner(rng), Factor: mb.Bandwidth}
		}
		profiles = append(profiles, static, markov)
	}
	return profiles, times, nil
}

// fleetLayers are the traced run's per-layer decorators.
type fleetLayers struct {
	decide, arrivals, service, cost, utility layer
}

// traced returns copies of the profiles whose factories and models are
// wrapped in timing decorators.
func (ls *fleetLayers) traced(profiles []fleet.Profile) []fleet.Profile {
	out := make([]fleet.Profile, len(profiles))
	for i, p := range profiles {
		newPolicy, newArrivals, newService := p.NewPolicy, p.NewArrivals, p.NewService
		p.NewPolicy = func(rng *geom.RNG) (policy.Policy, error) {
			pol, err := newPolicy(rng)
			if err != nil {
				return nil, err
			}
			return wrapPolicy(pol, &ls.decide), nil
		}
		p.NewArrivals = func(rng *geom.RNG) queueing.ArrivalProcess {
			if newArrivals == nil {
				// fleet.Profile's documented default for a nil factory.
				return wrapArrivals(&queueing.DeterministicArrivals{PerSlot: 1}, &ls.arrivals)
			}
			return wrapArrivals(newArrivals(rng), &ls.arrivals)
		}
		p.NewService = func(rng *geom.RNG) delay.ServiceProcess {
			return wrapService(newService(rng), &ls.service)
		}
		p.Cost = wrapCost(p.Cost, &ls.cost)
		p.Utility = wrapUtility(p.Utility, &ls.utility)
		out[i] = p
	}
	return out
}

// fleetRep runs one fleet and checks its report.
func fleetRep(ctx context.Context, profiles []fleet.Profile, seed uint64, chk *checker) (*fleet.Report, string, error) {
	rep, err := fleet.RunContext(ctx, fleet.Spec{
		Sessions: fleetSeats,
		Slots:    fleetSlots,
		Churn:    fleetChurn,
		Profiles: profiles,
		Seed:     seed,
	})
	if err != nil {
		return nil, "", err
	}
	checkFleet(rep, chk)
	// Elapsed and the rate are wall-clock; every other field is simulated.
	sim := *rep
	sim.Elapsed, sim.DeviceSlotsPerSec = 0, 0
	d, err := digestJSON(sim)
	return rep, d, err
}

// checkFleet checks the report's accounting identities.
func checkFleet(rep *fleet.Report, chk *checker) {
	tot := rep.Total
	chk.check(tot.DeviceSlots == int64(fleetSeats)*fleetSlots,
		"fleet: device_slots %d, want seats × slots = %d", tot.DeviceSlots, int64(fleetSeats)*fleetSlots)
	chk.check(tot.Sessions-tot.Departures == fleetSeats,
		"fleet: sessions %d − departures %d != seats %d", tot.Sessions, tot.Departures, fleetSeats)
	var sum fleet.ProfileReport
	for _, p := range rep.PerProfile {
		sum.Sessions += p.Sessions
		sum.Departures += p.Departures
		sum.DeviceSlots += p.DeviceSlots
		sum.FramesCompleted += p.FramesCompleted
		sum.FramesDropped += p.FramesDropped
		sum.Verdicts.Diverging += p.Verdicts.Diverging
		sum.Verdicts.Converged += p.Verdicts.Converged
		sum.Verdicts.Stabilized += p.Verdicts.Stabilized
		sum.Verdicts.Unclassified += p.Verdicts.Unclassified
	}
	chk.check(sum.Sessions == tot.Sessions && sum.Departures == tot.Departures &&
		sum.DeviceSlots == tot.DeviceSlots && sum.FramesCompleted == tot.FramesCompleted &&
		sum.FramesDropped == tot.FramesDropped && sum.Verdicts == tot.Verdicts,
		"fleet: per-profile sums %+v differ from total %+v", sum, tot)
}

// fleetPass measures repeated fleet runs for d, checking every report
// and that every repetition's digest equals the first.
func fleetPass(ctx context.Context, d time.Duration, profiles []fleet.Profile, seed uint64, chk *checker) (*pass, *fleet.Report, string, error) {
	var last *fleet.Report
	var first string
	p, err := measure(ctx, d, func() error {
		rep, dig, err := fleetRep(ctx, profiles, seed, chk)
		if err != nil {
			return err
		}
		if first == "" {
			first = dig
		}
		chk.check(dig == first, "fleet: same-seed digest %s != %s", dig, first)
		last = rep
		return nil
	})
	return p, last, first, err
}

func runFleet(ctx context.Context, cfg runConfig) (*outcome, error) {
	var setups []time.Duration
	var profiles []fleet.Profile
	buildTimes := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		t0 := now()
		ps, times, err := fleetSetup(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		profiles = ps
		for k, v := range times {
			buildTimes[k] = append(buildTimes[k], float64(v)/1e6)
		}
	}

	chk := &checker{}
	untraced, rep, dig, err := fleetPass(ctx, cfg.seconds, profiles, cfg.seed, chk)
	if err != nil {
		return nil, err
	}
	oc := &outcome{digest: dig}
	slots := rep.Total.DeviceSlots
	if !cfg.trace {
		oc.endToEnd = untraced.endToEnd(setups, slots)
	} else {
		ls := &fleetLayers{}
		traced, trep, tdig, err := fleetPass(ctx, cfg.seconds, ls.traced(profiles), cfg.seed, chk)
		if err != nil {
			return nil, err
		}
		chk.check(tdig == dig, "fleet: traced digest %s != untraced %s", tdig, dig)
		m := map[string]float64{}
		for k, v := range buildTimes {
			m[k] = median(v)
		}
		if err := contentLayers(cfg.seed, m); err != nil {
			return nil, err
		}
		fleetLayerMetrics(m, ls, untraced, traced, trep)
		oc.perLayer = m
	}
	oc.checker = *chk
	return oc, nil
}

// fleetLayerMetrics fills the fleet's per-layer metrics: call counts
// from the traced pass priced by microbenchmarks, the budget of one
// fleet run against the untraced pass, and the untraced pass's
// allocation counts.
func fleetLayerMetrics(m map[string]float64, ls *fleetLayers, untraced, traced *pass, rep *fleet.Report) {
	reps := float64(traced.reps())
	depths := decidedDepths(ls.decide.decisions)
	b := budget{wholeNs: untraced.totalNs() / float64(untraced.reps()) * float64(rep.Shards)}
	for _, x := range []struct {
		name  string
		l     *layer
		bench func(any) float64
	}{
		{"policy.decide", &ls.decide, benchPolicy(ls.decide.decisions)},
		{"queueing.arrivals", &ls.arrivals, benchArrivals},
		{"delay.service", &ls.service, benchService},
		{"delay.frame_cost", &ls.cost, benchCost(depths)},
		{"quality.utility", &ls.utility, benchUtility(depths)},
	} {
		ns, calls := x.l.cost(x.bench)
		b.layersNs += layerCost{ns, float64(calls) / reps}.put(m, x.name)
	}

	// The sketches and the frame queue live inside the fleet's slot
	// loop; the report counts their calls.
	tot := rep.Total
	adds := layerCost{sketchAddNs(), float64(tot.Backlog.Count + tot.Utility.Count + tot.Sojourn.Count)}
	frames := layerCost{frameQueueNs(), float64(tot.FramesCompleted + tot.FramesDropped)}
	b.layersNs += adds.perRep() + frames.perRep()
	m["stats.sketch_add_ns"], m["stats.sketch_adds"] = adds.perCallNs, adds.callsPerRep
	m["queueing.framequeue_ns_per_frame"], m["queueing.frames"] = frames.perCallNs, frames.callsPerRep
	m["fleet.self_ns_per_device_slot"] = b.gapNs() / float64(tot.DeviceSlots)
	b.put(m, "budget.")

	uReps := float64(untraced.reps())
	m["fleet.alloc_bytes_per_device_slot"] = float64(untraced.allocBytes) / uReps / float64(tot.DeviceSlots)
	m["fleet.allocs_per_session"] = float64(untraced.mallocs) / uReps / float64(tot.Sessions)
	m["trace.overhead_pct"] = overheadPct(untraced.totalNs()/uReps, traced.totalNs()/reps)
}

// sketchAddNs is the cost of one QuantileSketch.Add over values spread
// log-uniformly across six decades — the range fleet backlogs, PSNR
// utilities, and sojourns span together.
func sketchAddNs() float64 {
	const n = 1 << 16
	vals := make([]float64, n)
	rng := geom.NewRNG(1)
	for i := range vals {
		vals[i] = math.Exp(rng.Float64() * math.Log(1e6))
	}
	s := stats.NewQuantileSketch(0)
	return microNs(n, func(i int) float64 { s.Add(vals[i]); return 0 })
}

// frameQueueNs is the cost of pushing one frame into a FrameQueue and
// serving it out again.
func frameQueueNs() float64 {
	var q queueing.FrameQueue
	return microNs(1<<16, func(i int) float64 {
		q.Push(1000, 8, i)
		return float64(len(q.Serve(1000, i)))
	})
}

// contentLayers times the public calls content.Build makes, one asset
// build each, and sets them beside the measured builds as the set-up
// budget.
func contentLayers(seed uint64, m map[string]float64) error {
	var gen, build, sizes, lod, psnr time.Duration
	for _, asset := range contentAssets {
		ch, err := synthetic.ByName(asset)
		if err != nil {
			return err
		}
		t0 := now()
		cloud, err := synthetic.Generate(synthetic.Config{
			Character: ch, SamplesTarget: fleetSamples, CaptureDepth: 10, Seed: seed + 1,
		}, synthetic.Pose{})
		if err != nil {
			return err
		}
		gen += since(t0)
		t0 = now()
		tree, err := octree.Build(cloud, 10)
		if err != nil {
			return err
		}
		build += since(t0)
		t0 = now()
		if _, err := tree.StreamSizeProfile(cloud.HasColors()); err != nil {
			return err
		}
		sizes += since(t0)
		for _, d := range content.DefaultDepths(10) {
			t0 = now()
			lc, err := tree.LOD(d, octree.LODCentroid)
			if err != nil {
				return err
			}
			lod += since(t0)
			t0 = now()
			if _, err := quality.CompareGeometry(cloud, lc); err != nil {
				return err
			}
			psnr += since(t0)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m["synthetic.generate_ms"] = ms(gen)
	m["octree.build_ms"] = ms(build)
	m["octree.stream_size_ms"] = ms(sizes)
	m["octree.lod_ms"] = ms(lod)
	m["quality.compare_geometry_ms"] = ms(psnr)
	var whole float64
	for _, asset := range contentAssets {
		whole += m["content.build_ms."+asset]
	}
	whole += m["experiments.content_scenario_ms"]
	b := budget{
		wholeNs:  whole * 1e6,
		layersNs: float64(gen+build+sizes+lod+psnr) + m["experiments.content_scenario_ms"]*1e6,
	}
	b.put(m, "budget.setup_")
	return nil
}
