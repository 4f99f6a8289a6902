package experiments

// Result-equality pins for the sweep engine: each ablation grid (the V,
// service-rate, utility-model, volatility, fleet-V and allocator grids)
// must reproduce the pre-engine implementation's output exactly for a
// fixed seed. The legacy implementations are frozen here verbatim
// (modulo names) as the reference, and each pin maps the engine's
// SweepRows onto the legacy row shape field for field.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/sim"
)

// The legacy row shapes, kept here because the frozen references
// produce them.

type vSweepRow struct {
	V              float64
	TimeAvgUtility float64
	TimeAvgBacklog float64
	MaxBacklog     float64
	Verdict        string
	// BoundUtilityGap and BoundBacklog are the theoretical guarantees at
	// this V.
	BoundUtilityGap float64
	BoundBacklog    float64
}

type rateSweepRow struct {
	RateFraction   float64 // service = fraction × calibrated rate
	TimeAvgUtility float64
	TimeAvgBacklog float64
	Verdict        string
	MeanDepth      float64
}

type utilitySweepRow struct {
	Model          string
	TimeAvgBacklog float64
	Verdict        string
	MeanDepth      float64
	KneeSlot       int
}

type networkSweepRow struct {
	// Volatility is the capacity spread v: the good state serves at
	// (1+v)× and the bad state at (1−v)× the calibrated rate.
	Volatility        float64
	GoodRate, BadRate float64
	MeanUtility       float64
	MeanBacklog       float64
	P95Backlog        float64
	P99Sojourn        float64
	Sessions          int64
	Verdicts          fleet.VerdictCounts
}

type fleetVSweepRow struct {
	VFactor     float64
	V           float64
	MeanUtility float64
	MeanBacklog float64
	P95Backlog  float64
	P99Sojourn  float64
	Sessions    int64
	Verdicts    fleet.VerdictCounts
}

type allocatorSweepRow struct {
	Allocator           string
	PerDevice           []MultiDeviceRow
	Diverging           int
	TotalTimeAvgBacklog float64
	MeanTimeAvgUtility  float64
	MeanSojourn         float64
}

// legacyVSweep is the pre-engine VSweepContext, frozen.
func legacyVSweep(ctx context.Context, s *Scenario, factors []float64, slots int) ([]vSweepRow, error) {
	rows := make([]vSweepRow, 0, len(factors))
	for _, f := range factors {
		v := s.V * f
		ctrl, err := s.ControllerWithV(v)
		if err != nil {
			return nil, fmt.Errorf("V=%v: %w", v, err)
		}
		cfg := s.SimConfig(ctrl)
		cfg.Slots = slots
		res, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("V=%v: %w", v, err)
		}
		verdict, err := res.Verdict()
		if err != nil {
			return nil, err
		}
		row := vSweepRow{
			V:              v,
			TimeAvgUtility: res.TimeAvgUtility,
			TimeAvgBacklog: res.TimeAvgBacklog,
			MaxBacklog:     res.MaxBacklog,
			Verdict:        verdict.String(),
		}
		if b, err := ctrl.TheoreticalBounds(s.ServiceRate); err == nil {
			row.BoundUtilityGap = b.UtilityGap
			row.BoundBacklog = b.BacklogBound
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// legacyRateSweep is the pre-engine RateSweepContext, frozen.
func legacyRateSweep(ctx context.Context, s *Scenario, fractions []float64, slots int) ([]rateSweepRow, error) {
	ctrl, err := s.Controller()
	if err != nil {
		return nil, err
	}
	rows := make([]rateSweepRow, 0, len(fractions))
	for _, f := range fractions {
		cfg := s.SimConfig(ctrl)
		cfg.Service = &delay.ConstantService{Rate: s.ServiceRate * f}
		cfg.Slots = slots
		res, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("fraction %v: %w", f, err)
		}
		verdict, err := res.Verdict()
		if err != nil {
			return nil, err
		}
		var depthSum float64
		for _, d := range res.Depth {
			depthSum += float64(d)
		}
		rows = append(rows, rateSweepRow{
			RateFraction:   f,
			TimeAvgUtility: res.TimeAvgUtility,
			TimeAvgBacklog: res.TimeAvgBacklog,
			Verdict:        verdict.String(),
			MeanDepth:      depthSum / float64(len(res.Depth)),
		})
	}
	return rows, nil
}

// legacyUtilitySweep is the pre-engine UtilitySweepContext, frozen.
func legacyUtilitySweep(ctx context.Context, s *Scenario, models []quality.UtilityModel, slots int) ([]utilitySweepRow, error) {
	rows := make([]utilitySweepRow, 0, len(models))
	for _, m := range models {
		cfg := core.Config{Depths: s.Params.Depths, Utility: m, Cost: s.Cost}
		v, err := core.CalibrateV(s.Params.KneeSlot, s.ServiceRate, cfg)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m.Name(), err)
		}
		cfg.V = v
		ctrl, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m.Name(), err)
		}
		simCfg := s.SimConfig(ctrl)
		simCfg.Utility = m
		simCfg.Slots = slots
		res, err := sim.RunContext(ctx, simCfg)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m.Name(), err)
		}
		verdict, err := res.Verdict()
		if err != nil {
			return nil, err
		}
		var depthSum float64
		dMax := 0
		for _, d := range res.Depth {
			depthSum += float64(d)
			if d > dMax {
				dMax = d
			}
		}
		knee := -1
		for t, d := range res.Depth {
			if d < dMax {
				knee = t
				break
			}
		}
		rows = append(rows, utilitySweepRow{
			Model:          m.Name(),
			TimeAvgBacklog: res.TimeAvgBacklog,
			Verdict:        verdict.String(),
			MeanDepth:      depthSum / float64(len(res.Depth)),
			KneeSlot:       knee,
		})
	}
	return rows, nil
}

// legacyNetworkSweep is the pre-engine NetworkSweepContext, frozen.
func legacyNetworkSweep(ctx context.Context, s *Scenario, volatilities []float64, sessions, slots int, seed uint64) ([]networkSweepRow, error) {
	rate := s.ServiceRate
	rows := make([]networkSweepRow, 0, len(volatilities))
	for _, v := range volatilities {
		if v < 0 || v >= 1 {
			return nil, fmt.Errorf("%w: %v", ErrBadVolatility, v)
		}
		good, bad := rate*(1+v), rate*(1-v)
		prof := s.FleetProfile(fmt.Sprintf("markov-v%.2f", v), 1, 1)
		prof.NewService = func(rng *geom.RNG) delay.ServiceProcess {
			return &netem.MarkovBandwidth{
				GoodRate: good, BadRate: bad,
				PGoodBad: 0.1, PBadGood: 0.1,
				RNG: rng,
			}
		}
		rep, err := fleet.RunContext(ctx, fleet.Spec{
			Sessions: sessions,
			Slots:    slots,
			Seed:     seed,
			Profiles: []fleet.Profile{prof},
		})
		if err != nil {
			return nil, fmt.Errorf("volatility %g: %w", v, err)
		}
		rows = append(rows, networkSweepRow{
			Volatility:  v,
			GoodRate:    good,
			BadRate:     bad,
			MeanUtility: rep.Total.Utility.Mean,
			MeanBacklog: rep.Total.Backlog.Mean,
			P95Backlog:  rep.Total.Backlog.P95,
			P99Sojourn:  rep.Total.Sojourn.P99,
			Sessions:    rep.Total.Sessions,
			Verdicts:    rep.Total.Verdicts,
		})
	}
	return rows, nil
}

// legacyFleetVSweep is the pre-engine FleetVSweepContext, frozen.
func legacyFleetVSweep(ctx context.Context, s *Scenario, factors []float64, sessions, slots int, seed uint64) ([]fleetVSweepRow, error) {
	rows := make([]fleetVSweepRow, 0, len(factors))
	for _, f := range factors {
		prof := s.FleetProfile("proposed", 1, f)
		prof.NewArrivals = func(rng *geom.RNG) queueing.ArrivalProcess {
			return &queueing.PoissonArrivals{Mean: 1, RNG: rng}
		}
		prof.NewService = func(rng *geom.RNG) delay.ServiceProcess {
			return &delay.NoisyService{Mean: s.ServiceRate, Std: 0.05 * s.ServiceRate, RNG: rng}
		}
		rep, err := fleet.RunContext(ctx, fleet.Spec{
			Sessions: sessions,
			Slots:    slots,
			Seed:     seed,
			Profiles: []fleet.Profile{prof},
		})
		if err != nil {
			return nil, fmt.Errorf("V=%gx: %w", f, err)
		}
		rows = append(rows, fleetVSweepRow{
			VFactor:     f,
			V:           s.V * f,
			MeanUtility: rep.Total.Utility.Mean,
			MeanBacklog: rep.Total.Backlog.Mean,
			P95Backlog:  rep.Total.Backlog.P95,
			P99Sojourn:  rep.Total.Sojourn.P99,
			Sessions:    rep.Total.Sessions,
			Verdicts:    rep.Total.Verdicts,
		})
	}
	return rows, nil
}

// legacyAllocatorSweep is the pre-engine AllocatorSweepContext, frozen.
func legacyAllocatorSweep(ctx context.Context, s *Scenario, specs []AllocDeviceSpec, budget float64, slots int, allocators []alloc.Allocator) ([]allocatorSweepRow, error) {
	rows := make([]allocatorSweepRow, 0, len(allocators))
	for _, a := range allocators {
		devices, err := fleetDevices(s, specs)
		if err != nil {
			return nil, err
		}
		res, err := sim.RunMultiContext(ctx, sim.MultiConfig{
			Devices:   devices,
			Service:   &delay.ConstantService{Rate: budget},
			Allocator: a,
			Slots:     slots,
		})
		if err != nil {
			return nil, fmt.Errorf("allocator %s: %w", a.Name(), err)
		}
		row := allocatorSweepRow{
			Allocator:           res.Allocator,
			PerDevice:           make([]MultiDeviceRow, len(res.PerDevice)),
			TotalTimeAvgBacklog: res.TotalTimeAvgBacklog,
			MeanTimeAvgUtility:  res.MeanTimeAvgUtility,
		}
		var sojournSum float64
		var completed int
		for i, r := range res.PerDevice {
			verdict, err := r.Verdict()
			if err != nil {
				return nil, err
			}
			if verdict == queueing.VerdictDiverging {
				row.Diverging++
			}
			row.PerDevice[i] = MultiDeviceRow{
				Device:         i,
				TimeAvgUtility: r.TimeAvgUtility,
				TimeAvgBacklog: r.TimeAvgBacklog,
				Verdict:        verdict.String(),
				MeanSojourn:    r.MeanSojourn,
			}
			sojournSum += float64(r.Sojourns.Sum)
			completed += int(r.Sojourns.Total)
		}
		if completed > 0 {
			row.MeanSojourn = sojournSum / float64(completed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func TestVSweepPinnedToLegacy(t *testing.T) {
	s := sharedScenario(t)
	factors := []float64{0.5, 2}
	rows := runGrid(t, newGrid(t, s, 400, AxisV(factors...)))
	got := make([]vSweepRow, len(rows))
	for i, r := range rows {
		v := s.V * factors[i]
		got[i] = vSweepRow{
			V:              v,
			TimeAvgUtility: r.Utility,
			TimeAvgBacklog: r.Backlog,
			MaxBacklog:     r.MaxBacklog,
			Verdict:        r.Verdict,
		}
		// The bound columns come from the same call the ablation table
		// makes per row.
		ctrl, err := s.ControllerWithV(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctrl.TheoreticalBounds(s.ServiceRate)
		if err != nil {
			t.Fatal(err)
		}
		got[i].BoundUtilityGap, got[i].BoundBacklog = b.UtilityGap, b.BacklogBound
	}
	want, err := legacyVSweep(context.Background(), s, factors, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("V grid diverged from legacy:\n got %+v\nwant %+v", got, want)
	}
}

func TestRateSweepPinnedToLegacy(t *testing.T) {
	s := sharedScenario(t)
	fractions := []float64{0.8, 1.1}
	rows := runGrid(t, newGrid(t, s, 400, AxisServiceRate(fractions...)))
	got := make([]rateSweepRow, len(rows))
	for i, r := range rows {
		got[i] = rateSweepRow{
			RateFraction:   fractions[i],
			TimeAvgUtility: r.Utility,
			TimeAvgBacklog: r.Backlog,
			Verdict:        r.Verdict,
			MeanDepth:      r.MeanDepth,
		}
	}
	want, err := legacyRateSweep(context.Background(), s, fractions, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rate grid diverged from legacy:\n got %+v\nwant %+v", got, want)
	}
}

func TestUtilitySweepPinnedToLegacy(t *testing.T) {
	s := sharedScenario(t)
	models := ablationUtilityModels(t, s)
	rows := runGrid(t, newGrid(t, s, 400, AxisUtility(models...)))
	got := make([]utilitySweepRow, len(rows))
	for i, r := range rows {
		got[i] = utilitySweepRow{
			Model:          models[i].Name(),
			TimeAvgBacklog: r.Backlog,
			Verdict:        r.Verdict,
			MeanDepth:      r.MeanDepth,
			KneeSlot:       r.KneeSlot,
		}
	}
	want, err := legacyUtilitySweep(context.Background(), s, models, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("utility grid diverged from legacy:\n got %+v\nwant %+v", got, want)
	}
}

func TestNetworkSweepPinnedToLegacy(t *testing.T) {
	s := sharedScenario(t)
	vols := []float64{0, 0.6}
	rows := runGrid(t, networkGrid(t, s, vols, 16, 100, 5))
	got := make([]networkSweepRow, len(rows))
	for i, r := range rows {
		v := vols[i]
		got[i] = networkSweepRow{
			Volatility:  v,
			GoodRate:    s.ServiceRate * (1 + v),
			BadRate:     s.ServiceRate * (1 - v),
			MeanUtility: r.Utility,
			MeanBacklog: r.Backlog,
			P95Backlog:  r.P95Backlog,
			P99Sojourn:  r.P99Sojourn,
			Sessions:    r.Sessions,
			Verdicts:    r.Verdicts,
		}
	}
	want, err := legacyNetworkSweep(context.Background(), s, vols, 16, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("volatility grid diverged from legacy:\n got %+v\nwant %+v", got, want)
	}
}

func TestFleetVSweepPinnedToLegacy(t *testing.T) {
	s := sharedScenario(t)
	factors := []float64{0.5, 2}
	rows := runGrid(t, fleetVGrid(t, s, factors, 16, 100, 5))
	got := make([]fleetVSweepRow, len(rows))
	for i, r := range rows {
		got[i] = fleetVSweepRow{
			VFactor:     factors[i],
			V:           s.V * factors[i],
			MeanUtility: r.Utility,
			MeanBacklog: r.Backlog,
			P95Backlog:  r.P95Backlog,
			P99Sojourn:  r.P99Sojourn,
			Sessions:    r.Sessions,
			Verdicts:    r.Verdicts,
		}
	}
	want, err := legacyFleetVSweep(context.Background(), s, factors, 16, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fleet V grid diverged from legacy:\n got %+v\nwant %+v", got, want)
	}
}

func TestAllocatorSweepPinnedToLegacy(t *testing.T) {
	s := sharedScenario(t)
	specs := HeterogeneousSpecs(3)
	budget := 1.25 * FleetMinDemand(s, specs)
	allocators := func() []alloc.Allocator {
		return []alloc.Allocator{
			alloc.EqualSplit{},
			&alloc.ProportionalBacklog{},
			alloc.NewMaxWeight(),
		}
	}
	rows := runGrid(t, allocatorGrid(t, s, specs, budget, 200, allocators()))
	got := make([]allocatorSweepRow, len(rows))
	for i, r := range rows {
		res := r.Detail.Multi
		got[i] = allocatorSweepRow{
			Allocator:           res.Allocator,
			PerDevice:           make([]MultiDeviceRow, len(res.PerDevice)),
			Diverging:           int(r.Verdicts.Diverging),
			TotalTimeAvgBacklog: r.Backlog,
			MeanTimeAvgUtility:  r.Utility,
			MeanSojourn:         r.MeanSojourn,
		}
		for d, dr := range res.PerDevice {
			verdict, err := dr.Verdict()
			if err != nil {
				t.Fatal(err)
			}
			got[i].PerDevice[d] = MultiDeviceRow{
				Device:         d,
				TimeAvgUtility: dr.TimeAvgUtility,
				TimeAvgBacklog: dr.TimeAvgBacklog,
				Verdict:        verdict.String(),
				MeanSojourn:    dr.MeanSojourn,
			}
		}
	}
	// Fresh instances for the reference run: stateful allocators must
	// not carry state between the two sweeps.
	want, err := legacyAllocatorSweep(context.Background(), s, specs, budget, 200, allocators())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("allocator grid diverged from legacy:\n got %+v\nwant %+v", got, want)
	}
}
