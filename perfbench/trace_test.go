package main

import (
	"context"
	"reflect"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/delay"
	"qarv/internal/experiments"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/learn"
	"qarv/internal/netem"
	"qarv/internal/policy"
	"qarv/internal/queueing"
)

// methods reports which optional interfaces v offers.
func methods(v any) (learner, reseed, clone bool) {
	_, learner = v.(alloc.Learner)
	_, reseed = v.(reseeder)
	clone = reflect.ValueOf(v).MethodByName("Clone").IsValid()
	return learner, reseed, clone
}

// TestDecoratorsForwardOptionalInterfaces checks that every decorator
// offers exactly the optional interfaces of the value it wraps: a
// missing forward would silently turn off learning or reseeding, and an
// extra one would make a probe act on a value that has nothing to do.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	random, err := policy.NewRandom([]int{5, 6, 7}, geom.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	maxDepth, err := policy.NewMaxDepth([]int{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	l := &layer{}
	cases := []struct {
		name           string
		inner, wrapped any
	}{
		{"equal", alloc.EqualSplit{}, wrapAllocator(alloc.EqualSplit{}, l)},
		{"gradient", learn.NewGradient(0.2), wrapAllocator(learn.NewGradient(0.2), l)},
		{"bandit", learn.NewBandit(8), wrapAllocator(learn.NewBandit(8), l)},
		{"max-depth", maxDepth, wrapPolicy(maxDepth, l)},
		{"random", random, wrapPolicy(random, l)},
		{"deterministic", &queueing.DeterministicArrivals{PerSlot: 1}, wrapArrivals(&queueing.DeterministicArrivals{PerSlot: 1}, l)},
		{"poisson", &queueing.PoissonArrivals{Mean: 1, RNG: geom.NewRNG(1)}, wrapArrivals(&queueing.PoissonArrivals{Mean: 1, RNG: geom.NewRNG(1)}, l)},
		{"constant", &delay.ConstantService{Rate: 1}, wrapService(&delay.ConstantService{Rate: 1}, l)},
		{"markov", netem.DefaultMarkovFactor(geom.NewRNG(1)), wrapService(netem.DefaultMarkovFactor(geom.NewRNG(1)), l)},
	}
	for _, c := range cases {
		il, ir, ic := methods(c.inner)
		wl, wr, wc := methods(c.wrapped)
		if il != wl || ir != wr || ic != wc {
			t.Errorf("%s: inner has Learn=%v Reseed=%v Clone=%v, decorator has %v %v %v", c.name, il, ir, ic, wl, wr, wc)
		}
	}
}

// TestDecoratorsForwardBehaviour checks that the forwards reach the
// wrapped value: a reseeded and a cloned decorated process replays the
// plain one's stream, and a decorated bandit learns exactly as the
// plain one does.
func TestDecoratorsForwardBehaviour(t *testing.T) {
	l := &layer{}
	plain := &queueing.PoissonArrivals{Mean: 2, RNG: geom.NewRNG(1)}
	wrapped := wrapArrivals(&queueing.PoissonArrivals{Mean: 2, RNG: geom.NewRNG(1)}, l)
	plain.Reseed(geom.NewRNG(9))
	wrapped.(reseeder).Reseed(geom.NewRNG(9))
	clone := reflect.ValueOf(wrapped).MethodByName("Clone").Call(nil)[0].Interface().(queueing.ArrivalProcess)
	plainClone := plain.Clone()
	for slot := 0; slot < 200; slot++ {
		want := plain.Frames(slot)
		if got := wrapped.Frames(slot); got != want {
			t.Fatalf("reseeded slot %d: %d frames, want %d", slot, got, want)
		}
		if got, want := clone.Frames(slot), plainClone.Frames(slot); got != want {
			t.Fatalf("clone slot %d: %d frames, want %d", slot, got, want)
		}
	}
	if _, calls := l.cost(func(any) float64 { return 1 }); calls != 400 {
		t.Errorf("counted %d calls, want 400 (clone reports into the same layer)", calls)
	}

	bandit := learn.NewBandit(8)
	wb := wrapAllocator(learn.NewBandit(8), &layer{})
	bandit.Reseed(geom.NewRNG(3))
	wb.(reseeder).Reseed(geom.NewRNG(3))
	backlogs := []float64{5, 1, 1, 2}
	utils := []float64{1, 2, 3, 4}
	got, want := make([]float64, 4), make([]float64, 4)
	for slot := 0; slot < 300; slot++ {
		bandit.Allocate(slot, 10, backlogs, want)
		wb.Allocate(slot, 10, backlogs, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d: decorated shares %v, plain %v", slot, got, want)
		}
		backlogs[slot%4] += want[slot%4]
		bandit.Learn(slot, utils, backlogs)
		wb.(alloc.Learner).Learn(slot, utils, backlogs)
	}
}

// TestTracedDigestsEqualUntraced runs both batch workloads' traced and
// untraced forms and requires identical simulated statistics.
func TestTracedDigestsEqualUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds content and runs a fleet and a sweep")
	}
	ctx := context.Background()
	profiles, _, err := fleetSetup(5)
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{}
	_, plain, err := fleetRep(ctx, profiles, 5, chk)
	if err != nil {
		t.Fatal(err)
	}
	ls := &fleetLayers{}
	_, traced, err := fleetRep(ctx, ls.traced(profiles), 5, chk)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("fleet digest traced %s, untraced %s", traced, plain)
	}
	if chk.failed != 0 {
		t.Errorf("fleet checks failed: %s", chk.first)
	}
	if ls.decide.calls() != int64(fleetSeats*fleetSlots) {
		t.Errorf("decide calls %d, want one per device-slot", ls.decide.calls())
	}

	scn, err := experiments.NewScenario(experiments.ScenarioParams{Samples: sweepSamples, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sls := newSweepLayers()
	digests := make([]string, 2)
	for i, l := range []*sweepLayers{nil, sls} {
		s := scn
		if l != nil {
			s = l.scenario(scn)
		}
		sw, err := newSweep(s, 6, l)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if digests[i], err = digestJSON(rep); err != nil {
			t.Fatal(err)
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("sweep digest traced %s, untraced %s", digests[1], digests[0])
	}
	for _, name := range allocNames {
		if sls.alloc[name].calls() == 0 {
			t.Errorf("allocator %s: no calls counted", name)
		}
	}
}

// TestFleetChecksCatchBrokenReports feeds the fleet checks reports
// whose accounting identities fail.
func TestFleetChecksCatchBrokenReports(t *testing.T) {
	good := fleet.Report{Total: fleet.ProfileReport{Sessions: fleetSeats + 3, Departures: 3, DeviceSlots: fleetSeats * fleetSlots}}
	good.PerProfile = []fleet.ProfileReport{good.Total}
	chk := &checker{}
	checkFleet(&good, chk)
	if chk.failed != 0 {
		t.Fatalf("consistent report failed: %s", chk.first)
	}
	bad := good
	bad.PerProfile = []fleet.ProfileReport{{Sessions: 1}}
	checkFleet(&bad, chk)
	if chk.failed != 1 {
		t.Errorf("per-profile mismatch: %d failures, want 1", chk.failed)
	}
}
