package fleet

import (
	"fmt"
	"testing"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/policy"
	"qarv/internal/queueing"
)

// benchProfile is a representative stable class: threshold policy (the
// cheap stateful controller), deterministic arrivals, constant service.
func benchProfile() Profile {
	depths := []int{3, 4, 5, 6, 7, 8}
	return Profile{
		Name:   "threshold",
		Weight: 1,
		NewPolicy: func(*geom.RNG) (policy.Policy, error) {
			return policy.NewThreshold(depths, 200, 600)
		},
		Cost:    testCost{Scale: 16},
		Utility: testUtility{},
		NewService: func(*geom.RNG) delay.ServiceProcess {
			return &delay.ConstantService{Rate: 110}
		},
	}
}

// BenchmarkFleet measures engine throughput in device-slots/sec — the
// headline capacity number perfbench's fleet-churn workload gates on —
// across fleet sizes. b.N multiplies whole fleet runs; the custom metric
// normalizes to simulated device-time per wall second.
func BenchmarkFleet(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			spec := Spec{
				Sessions: n,
				Slots:    100,
				Churn:    0.005,
				Seed:     1,
				Profiles: []Profile{benchProfile()},
			}
			var rate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				rate = rep.DeviceSlotsPerSec
			}
			b.ReportMetric(rate, "device-slots/sec")
		})
	}
}

// BenchmarkFleetStochastic prices the heavier per-slot path: Poisson
// arrivals and noisy service draw from the RNG every slot.
func BenchmarkFleetStochastic(b *testing.B) {
	prof := benchProfile()
	prof.NewArrivals = func(rng *geom.RNG) queueing.ArrivalProcess {
		return &queueing.PoissonArrivals{Mean: 1.0, RNG: rng}
	}
	prof.NewService = func(rng *geom.RNG) delay.ServiceProcess {
		return &delay.NoisyService{Mean: 110, Std: 15, RNG: rng}
	}
	spec := Spec{Sessions: 10_000, Slots: 100, Seed: 1, Profiles: []Profile{prof}}
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		rate = rep.DeviceSlotsPerSec
	}
	b.ReportMetric(rate, "device-slots/sec")
}
